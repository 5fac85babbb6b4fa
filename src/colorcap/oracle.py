"""Exact output counting and reconstruction.

Everything here is exact: counts are arbitrary-precision integers, guarded
by a budget on the q^n words they cover, and reconstruction returns a word
only if it reproduces every view it was built from.

By the projection lemma (Cori-Perrin), two words give the same outputs
exactly when they are one trace of the trace monoid whose dependence graph
is the pairs graph.  count_outputs therefore counts traces through their
lexicographically least words (Anisimov-Knuth), which a small automaton
recognizes.  The exhaustive counter _levels, which stores every distinct
output, checks that lemma through verify_pairs_equality.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterable, Iterator, Mapping

from .channels import ChannelSystem, Record, apply_channel
from .systems import Reducible, Separable, _class_graph, _holders, classify, edge_system

DEFAULT_BUDGET = 200_000_000


class BudgetExceededError(RuntimeError):
    """Enumeration refused: the state space exceeds the configured budget."""

    def __init__(self, q: int, n: int, limit: int):
        self.q, self.n, self.limit = q, n, limit
        super().__init__(
            f"enumerating {q}^{n} words exceeds the budget of {limit} states; "
            f"raise the budget to force it")

    @property
    def states(self) -> int:
        return self.q ** self.n


class EnumerationReport(Record):
    def __init__(self, n: int, count: int, rate: float, elapsed: float):
        self.__dict__.update(n=n, count=count, rate=rate, elapsed=elapsed)


def _traces(system: ChannelSystem) -> Iterator[int]:
    """The number of traces of lengths 0, 1, 2, ... over the visible letters.

    Letters held by the same channels (a letter class) commute with the same
    letters and never with each other, so with the classes in a fixed order
    and each class's letters together, the automaton of lexicographically
    least words runs on classes.  Its state is the set S of classes that may
    not come next, as a bitmask; a letter of class c, not in S, moves it to
    indep(c) & (S | below(c)), where below(c) is the classes before c.
    Level k maps each state to its number of normal forms of length k, so it
    holds at most T_k states.  T_(k+1) is read off level k as the sum over
    its states of count * |letters not in S|, and level k+1 is built only
    when a longer length is asked for.
    """
    members, adj = _class_graph(system)
    steps, by_size = [], {}
    for c, (letters, near) in enumerate(zip(members, adj)):
        dep = sum(1 << d for d in near) | 1 << c  # the classes c does not commute with
        steps.append((1 << c, ~dep, ((1 << c) - 1) & ~dep, len(letters)))
        by_size[len(letters)] = by_size.get(len(letters), 0) | 1 << c
    visible = sum(map(len, members))

    def allowed(state: int) -> int:
        return visible - sum(size * (state & mask).bit_count()
                             for size, mask in by_size.items())

    level = {0: 1}
    yield 1
    while True:
        yield sum(count * allowed(state) for state, count in level.items())
        extended: dict[int, int] = {}
        for state, count in level.items():
            for bit, indep, low, size in steps:
                if not state & bit:
                    key = state & indep | low
                    extended[key] = extended.get(key, 0) + count * size
        level = extended


def _outputs(system: ChannelSystem) -> Iterator[int]:
    """The number of distinct outputs at lengths 0, 1, 2, ....

    A letter in no channel erases itself, so when there is one, the outputs
    at length n are the traces of every length up to n.
    """
    if len(system.letters) == system.q:
        return _traces(system)
    return itertools.accumulate(_traces(system))


def _levels(system: ChannelSystem) -> Iterator[set[bytes]]:
    """The sets of distinct output keys at lengths 0, 1, 2, ..., by brute force.

    A key joins the channel views with a 0 byte; each visible letter is a
    fixed-width code of nonzero bytes.  A word followed by a letter a gives
    its output with a appended to every view whose channel holds a.  Building
    the next level clears the last one and frees its keys as it reads them,
    so read each level before asking for the next.
    """
    holders = _holders(system)
    visible = sorted(holders)
    width = next(w for w in itertools.count(1) if 255 ** w >= len(visible))
    steps = [(bytes(i // 255 ** d % 255 + 1 for d in range(width)), holders[a])
             for i, a in enumerate(visible)]
    if len(visible) < system.q:
        steps.append((b"", []))  # a letter in no channel changes nothing
    level = {b"\0" * (system.t - 1)}
    while True:
        yield level
        extended = set()
        keys = list(level)
        level.clear()
        while keys:
            views = keys.pop().split(b"\0")
            for code, idx in steps:
                out = views.copy()
                for j in idx:
                    out[j] += code
                extended.add(b"\0".join(out))
        level = extended


def _reports(system: ChannelSystem, lengths: Iterable[int], budget: int | None,
             counts: Iterator[int]) -> Iterator[EnumerationReport]:
    """One report per length, lengths increasing, from one pass over counts,
    the counts at lengths 0, 1, 2, ...; each checks its budget before any
    work, and its elapsed is the time since the pass began."""
    limit = DEFAULT_BUDGET if budget is None else budget
    start = time.perf_counter()
    indexed = enumerate(counts)
    for n in lengths:
        # q^n >= 2^n > limit from n = limit.bit_length() on: never expand huge powers
        states = system.q ** n if n < limit.bit_length() else None
        if states is None or states > limit:
            raise BudgetExceededError(system.q, n, limit)
        count = next(c for i, c in indexed if i == n)
        # log of the exact power, so a full channel reports a rate of exactly 1.0
        rate = 0.0 if n == 0 else math.log(count) / math.log(states)
        yield EnumerationReport(n=n, count=count, rate=rate,
                                elapsed=time.perf_counter() - start)


def count_outputs(system: ChannelSystem, n: int, *,
                  budget: int | None = None) -> EnumerationReport:
    """Exact number of distinct output tuples over all q^n words.

    Raises BudgetExceededError when q^n exceeds the budget (default
    DEFAULT_BUDGET states).
    """
    if n < 0:
        raise ValueError(f"block length must be >= 0, got {n}")
    return next(_reports(system, [n], budget, _outputs(system)))


def count_sweep(system: ChannelSystem, n: int, *,
                budget: int | None = None) -> Iterator[EnumerationReport]:
    """count_outputs at every length 1..n, from one pass over the lengths.

    Each report's elapsed is the time since the sweep began.  Raises
    BudgetExceededError at the first length whose q^n exceeds the budget.
    """
    return _reports(system, range(1, n + 1), budget, _outputs(system))


class ReconstructionError(ValueError):
    """The pairwise views are not the projections of any single word."""


def reconstruct_view(pair_views: Mapping, channel) -> tuple[int, ...]:
    """Rebuild the projection onto `channel` from all its pairwise views.

    pair_views maps each 2-subset {a, b} of the channel to the projection of
    the word onto {a, b}.  With m letters in the channel, the j-th a of the
    word (counting from 0) has j earlier a's and, in each view (a, b), every
    earlier b before it, so it sits at sum_b idx_ab(j) - (m - 2) * j, where
    idx_ab(j) is the index of the j-th a in view (a, b).  Each letter is
    placed there directly; the result is returned only if every view equals
    its projection onto that view's pair, so inconsistent views raise
    ReconstructionError.
    """
    letters = sorted(set(channel))
    m = len(letters)
    if m < 2:
        raise ValueError("reconstruction needs a channel of at least 2 letters")
    normalized = {frozenset(key): tuple(word) for key, word in pair_views.items()}
    if len(normalized) != len(pair_views):
        raise ReconstructionError("duplicate pair keys in the views")
    views: dict[tuple[int, int], tuple] = {}
    for pair in itertools.combinations(letters, 2):
        key = frozenset(pair)
        if key not in normalized:
            raise ReconstructionError(f"missing view for pair {pair}")
        view = normalized.pop(key)
        bad = [s for s in view if s not in pair]
        if bad:
            raise ReconstructionError(
                f"view for pair {pair} contains foreign symbol {bad[0]}")
        views[pair] = view
    if normalized:
        extra = tuple(sorted(next(iter(normalized))))
        raise ReconstructionError(f"view for {extra} is not a pair of the channel")

    own = {a: [v for pair, v in views.items() if a in pair] for a in letters}
    length = 0
    for a in letters:
        counts = {v.count(a) for v in own[a]}
        if len(counts) > 1:
            raise ReconstructionError(
                f"letter {a} occurs a different number of times across views")
        length += counts.pop()

    # with equal counts every slot lies in 0..length-1; a slot written twice
    # leaves another empty, which the projection check below rejects
    out = [None] * length
    for a in letters:
        slots = zip(*((i for i, s in enumerate(v) if s == a) for v in own[a]))
        for j, indices in enumerate(slots):
            out[sum(indices) - (m - 2) * j] = a
    word = tuple(out)
    for pair, v in views.items():
        if apply_channel(word, pair) != v:
            raise ReconstructionError(
                f"the views are not the projections of one word: pair {pair} disagrees")
    return word


def verify_pairs_equality(system: ChannelSystem, n: int, *,
                          budget: int | None = None,
                          count: int | None = None) -> bool:
    """Whether the system and its pairs-graph edge system have equal counts.

    For an irreducible system with t >= 2 channels the two counts agree for
    every n.  The system's count comes from count_outputs, or from the
    caller as count; the edge system is counted exhaustively (_levels), so
    the check does not rest on the trace counting it tests.
    """
    if system.t < 2:
        raise ValueError("pairs equality needs at least two channels")
    if isinstance(classify(system), (Reducible, Separable)):
        raise ValueError("pairs equality expects an irreducible system; "
                         "reduce and split it first")
    edges = edge_system(system)
    if count is None:
        count = count_outputs(system, n, budget=budget).count
    exhaustive = _reports(edges, [n], budget, map(len, _levels(edges)))
    return count == next(exhaustive).count
