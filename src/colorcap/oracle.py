"""Exact output counting and reconstruction.

Everything here is exact: counts are arbitrary-precision integers, guarded
by a budget on the q^n words they cover, and reconstruction returns a word
only if it reproduces every view it was built from.

By the projection lemma (Cori-Perrin), two words give the same outputs
exactly when they are one trace of the trace monoid whose dependence graph
is the pairs graph.  count_outputs therefore counts traces through their
lexicographically least words (Anisimov-Knuth), which a small automaton
recognizes.  verify_pairs_equality checks that lemma: it compares that
count with the exhaustive counter _levels, which stores every distinct
output of the system itself.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from collections.abc import Iterable, Iterator, Mapping

# DEFAULT_BUDGET and the two refusals live in channels; this module re-exports them
from .channels import (
    DEFAULT_BUDGET, BudgetExceededError, ChannelSystem, Record, ReconstructionError,
    _is_int,
)
from .systems import _holders, _letter_classes, _require_irreducible

_CHUNK = 256  # keys _levels joins into one buffer; its split holds their successors
_DELIM = b"\xff"  # joins those keys: no separator or letter code holds it
_CODES = b"\0", b"\1"  # a pair's smaller and larger letter in a coded view
_FOREIGN = b"\2" * 256  # the byte a foreign symbol translates to


class EnumerationReport(Record):
    def __init__(self, n: int, count: int, rate: float, elapsed: float):
        self.__dict__.update(n=n, count=count, rate=rate, elapsed=elapsed)


def _traces(system: ChannelSystem) -> Iterator[int]:
    """The number of distinct outputs at lengths 0, 1, 2, ..., from the traces
    over the visible letters (the letters some channel holds).

    Letters held by the same channels (a letter class) commute with the same
    letters and never with each other, so with the classes in a fixed order
    and each class's letters together, the automaton of lexicographically
    least words runs on classes.  Its state is the set S of classes that may
    not come next, as a bitmask; a letter of class c, not in S, moves it to
    indep(c) & (S | below(c)), where below(c) is the classes before c.
    Classes depend exactly when they share a channel, so each channel's
    classes are one bitmask and c's dependence mask is the OR of its
    channels' masks; no class graph is built.  Level k maps each state to
    its number of normal forms of length k, so it holds at most T_k states.
    T_(k+1) is read off level k as the sum over its states of
    count * |letters not in S|, and level k+1 is built only when a longer
    length is asked for.  A letter in no channel erases itself, so when
    there is one, the outputs at length n are the traces of every length up
    to n.
    """
    classes = _letter_classes(_holders(system))
    holds = [0] * system.t  # each channel's classes, as a bitmask
    for c, idx in enumerate(classes):
        for i in idx:
            holds[i] |= 1 << c
    steps, by_size = [], {}
    for c, (idx, letters) in enumerate(classes.items()):
        dep = 0  # the classes c does not commute with: those sharing a channel
        for i in idx:
            dep |= holds[i]
        steps.append((1 << c, ~dep, ((1 << c) - 1) & ~dep, len(letters)))
        by_size[len(letters)] = by_size.get(len(letters), 0) | 1 << c
    visible = sum(map(len, classes.values()))

    def allowed(state: int) -> int:
        return visible - sum(size * (state & mask).bit_count()
                             for size, mask in by_size.items())

    level, outputs = {0: 1}, 1
    yield outputs
    while True:
        traces = sum(count * allowed(state) for state, count in level.items())
        outputs = outputs + traces if visible < system.q else traces
        yield outputs
        extended: dict[int, int] = {}
        for state, count in level.items():
            for bit, indep, low, size in steps:
                if not state & bit:
                    key = state & indep | low
                    extended[key] = extended.get(key, 0) + count * size
        level = extended


def _codes(m: int) -> list[bytes]:
    """m distinct codes of one fixed width, each of nonzero bytes below 255."""
    width = next(w for w in itertools.count(1) if 254 ** w >= m)
    return [bytes(i // 254 ** d % 254 + 1 for d in range(width)) for i in range(m)]


def _levels(system: ChannelSystem) -> Iterator[set[bytes]]:
    """The sets of distinct output keys at lengths 0, 1, 2, ..., by brute force.

    A key is the channel views in order, each followed by a separator that
    belongs to its channel alone, and no letter's code holds a separator
    byte.  Byte 255 (_DELIM) is in no key.  When the t separators and the
    visible letters fit in the other 255 byte values, separator j is byte j
    and the i-th visible letter is byte t + i; otherwise a separator is a 0
    byte and a fixed-width index, and a letter is a fixed-width code of
    bytes 1 to 254.  A word followed by a letter a gives its output with a
    appended to every view whose channel holds a, so the key extends by one
    bytes.replace(sep_j, code_a + sep_j) per such channel j, each matching
    exactly once.  The next level is built from the keys of the last in
    chunks of _CHUNK, each joined by _DELIM into one buffer: every letter's
    replaces run once on the buffer, and splitting it at _DELIM gives that
    letter's new keys.  The split holds a chunk's new keys at once, which
    _CHUNK keeps small beside a level (at 1024 the 3-star's peak grew 12%
    over the word-by-word reference's; 256 runs as fast).  The last level is
    cleared and its keys freed as the chunks are taken, so read each level
    before asking for the next.
    """
    holders = _holders(system)
    visible = sorted(holders)
    t = system.t
    if t + len(visible) <= 255:
        seps = [bytes([j]) for j in range(t)]
        codes = [bytes([t + i]) for i in range(len(visible))]
    else:
        seps = [b"\0" + code for code in _codes(t)]
        codes = _codes(len(visible))
    # per letter, the (separator, code + separator) swap of each of its channels
    steps = [[(seps[j], code + seps[j]) for j in holders[a]]
             for code, a in zip(codes, visible)]
    if len(visible) < system.q:
        steps.append([])  # a letter in no channel changes nothing
    level = {b"".join(seps)}
    while True:
        yield level
        extended = set()
        keys = list(level)
        level.clear()
        while keys:
            chunk = keys[-_CHUNK:]
            del keys[-_CHUNK:]
            joined = _DELIM.join(chunk)
            for swaps in steps:
                out = joined
                for sep, longer in swaps:
                    out = out.replace(sep, longer)
                extended.update(out.split(_DELIM) if swaps else chunk)
        level = extended


def _words(q: int, n: int, budget: int | None) -> int:
    """q^n, the words a count at length n covers; BudgetExceededError past
    the budget (default DEFAULT_BUDGET)."""
    limit = DEFAULT_BUDGET if budget is None else budget
    # q^n >= 2^n > limit from n = limit.bit_length() on: never expand huge powers
    states = q ** n if n < limit.bit_length() else None
    if states is None or states > limit:
        raise BudgetExceededError(q, n, limit)
    return states


def _reports(system: ChannelSystem, lengths: Iterable[int],
             budget: int | None) -> Iterator[EnumerationReport]:
    """One report per length, lengths increasing, from one pass over
    _traces(system); each checks its budget before any work, and its
    elapsed is the time since the pass began."""
    start = time.perf_counter()
    indexed = enumerate(_traces(system))
    for n in lengths:
        states = _words(system.q, n, budget)
        count = next(c for i, c in indexed if i == n)
        # log of the exact power, so a full channel reports a rate of exactly 1.0
        rate = 0.0 if n == 0 else math.log(count, states)
        yield EnumerationReport(n=n, count=count, rate=rate,
                                elapsed=time.perf_counter() - start)


def _check_args(n, budget) -> None:
    # _reports looks for n among the lengths 0, 1, 2, ..., which never end,
    # and reads the budget's bit_length
    if not _is_int(n):
        raise ValueError(f"block length must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"block length must be >= 0, got {n}")
    if budget is not None and (not _is_int(budget) or budget < 0):
        raise ValueError(f"budget must be None or an integer >= 0, got {budget!r}")


def count_outputs(system: ChannelSystem, n: int, *,
                  budget: int | None = None) -> EnumerationReport:
    """Exact number of distinct output tuples over all q^n words.

    Raises BudgetExceededError when q^n exceeds the budget (default
    DEFAULT_BUDGET states).
    """
    _check_args(n, budget)
    return next(_reports(system, [n], budget))


def count_sweep(system: ChannelSystem, n: int, *,
                budget: int | None = None) -> Iterator[EnumerationReport]:
    """count_outputs at every length 1..n, from one pass over the lengths.

    Each report's elapsed is the time since the sweep began.  Raises
    BudgetExceededError at the first length whose q^n exceeds the budget.
    """
    _check_args(n, budget)
    return _reports(system, range(1, n + 1), budget)


def _code_view(view: tuple, pair: tuple, in_c: bool) -> bytes:
    """The view of pair (a, b) as bytes, with a as byte 0 and b as byte 1.

    in_c says that a and b are ints in 0..255; then one translate codes the
    view in C, and a foreign symbol shows as byte 2.  Any other view, and one
    that shows byte 2, is coded symbol by symbol, which names the first
    foreign symbol in view order.
    """
    a, b = pair
    if in_c:
        table = bytearray(_FOREIGN)
        table[a], table[b] = 0, 1
        try:
            coded = bytes(view).translate(table)
        except (TypeError, ValueError):  # a symbol that is not a byte
            pass
        else:
            if 2 not in coded:
                return coded
    try:
        # a symbol outside the pair maps to None, which bytes rejects
        return bytes(map({a: 0, b: 1}.get, view))
    except TypeError:  # or on a symbol that cannot be hashed
        for s in view:
            if s not in pair:
                raise ReconstructionError(
                    f"view for pair {pair} contains foreign symbol {s}") from None
        # every symbol equals a letter of the pair, though not by its hash
        return bytes(0 if s in pair[:1] else 1 for s in view)


def reconstruct_view(pair_views: Mapping, channel) -> tuple:
    """Rebuild the projection onto `channel` from all its pairwise views.

    Returns that projection as a tuple of the channel's own letters,
    whatever their type (such as 2.5 or 'a').

    pair_views maps each 2-subset {a, b} of the channel to the projection of
    the word onto {a, b}.  That view is coded as bytes, the smaller letter
    as 0 and the larger as 1 (_code_view), so each pass over it is one bytes
    method, and each letter reads its views by its own byte.  Split at a's
    byte, the view of {a, b} gives the runs of b's between consecutive a's.
    The j-th a of the word (counting from 0) comes after j earlier a's and,
    for every other letter b, after the b's in the first j + 1 runs of that
    view; it is placed straight into that slot.  That slot is the number of
    occurrences the views put before it, its score in the tournament the
    views define on all occurrences, and a tournament is transitive exactly
    when its scores are distinct (Landau).  So the views are the projections
    of one word exactly when every slot is filled once; an empty slot raises
    ReconstructionError.  The cost is linear in the total length of the
    views.
    """
    letters = sorted(set(channel))
    m = len(letters)
    if m < 2:
        raise ValueError("reconstruction needs a channel of at least 2 letters")
    normalized = {frozenset(key): tuple(word) for key, word in pair_views.items()}
    if len(normalized) != len(pair_views):
        raise ReconstructionError("duplicate pair keys in the views")
    # a letter that is an int in 0..255 indexes a translate table; a negative
    # int would index it from its end and alias a foreign byte
    in_c = [type(a) is int and 0 <= a < 256 for a in letters]
    # each letter's views where it is byte 0, and where it is byte 1
    own: list[tuple[list[bytes], list[bytes]]] = [([], []) for _ in letters]
    for i, j in itertools.combinations(range(m), 2):
        pair = letters[i], letters[j]
        key = frozenset(pair)
        if key not in normalized:
            raise ReconstructionError(f"missing view for pair {pair}")
        coded = _code_view(normalized.pop(key), pair, in_c[i] and in_c[j])
        own[i][0].append(coded)
        own[j][1].append(coded)
    if normalized:
        extra = tuple(sorted(next(iter(normalized))))
        raise ReconstructionError(f"view for {extra} is not a pair of the channel")

    counts = []
    for a, views in zip(letters, own):
        found = {v.count(code) for code, vs in zip(_CODES, views) for v in vs}
        if len(found) > 1:
            raise ReconstructionError(
                f"letter {a} occurs a different number of times across views")
        counts.append(found.pop())

    # with equal counts every slot lies in out; two occurrences with one
    # score share a slot and leave another empty
    out = [None] * sum(counts)
    for a, views, count in zip(letters, own, counts):
        gaps = [0] + [1] * count  # the j earlier a's of the j-th a
        for code, vs in zip(_CODES, views):
            for v in vs:
                gaps = list(map(operator.add, gaps, map(len, v.split(code))))
        gaps.pop()  # the run after the last a
        for slot in itertools.accumulate(gaps):
            out[slot] = a
    if None in out:
        raise ReconstructionError("the views are not the projections of one word: "
                                  "their orders of the letters form a cycle")
    return tuple(out)


def verify_pairs_equality(system: ChannelSystem, n: int, *,
                          budget: int | None = None,
                          count: int | None = None) -> bool:
    """Whether the system's pairs-graph count equals its exhaustive count.

    For an irreducible system with t >= 2 channels the two counts agree for
    every n; others fail the guard shared with bounds_general.  The
    pairs-graph count is count_outputs(system, n).count, which reads only
    the pairs graph; a caller that already holds it passes it as count, and
    otherwise it is counted here.  The system is then counted exhaustively
    (_levels), over its distinct outputs at each length up to n, within the
    same budget on q^n.
    """
    _check_args(n, budget)
    _require_irreducible(system, "pairs equality")
    if count is None:
        count = count_outputs(system, n, budget=budget).count
    else:
        _words(system.q, n, budget)
    return count == len(next(itertools.islice(_levels(system), n, None)))
