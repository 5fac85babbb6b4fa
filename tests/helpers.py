"""Helpers shared by several test modules; pytest collects nothing here."""

import argparse
import contextlib
import io
import itertools
import json
import math
import sys
import tracemalloc
from collections import Counter
from math import comb, prod
from typing import Sequence

from colorcap import (
    ChannelSystem, Cycle, FullClique, General, Path, Reducible, Separable,
    SingleChannel, Sunflower, SystemClass, TwoSets, apply_system, separable_split,
)
from colorcap.cli import DEFAULT_BUDGET, TABLE_SYSTEMS, SchemaError, main, system_dict


def run_cli(argv, doc=None) -> tuple:
    """(exit code, stdout, stderr) of colorcap.cli.main(argv) in this process.

    A doc, a JSON document or a ChannelSystem, is read from stdin; without
    one stdin is left as it is.
    """
    if isinstance(doc, ChannelSystem):
        doc = system_dict(doc)
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    if doc is not None:
        sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser colorcap.cli.parse_args replaced, kept as the
    reference it must agree with: the same accepted argv and parsed values,
    SchemaError on a refusal, and SystemExit(0) after printing help."""
    parser = _Parser(
        prog="colorcap",
        description="capacities, bounds, and exhaustive checks for systems "
                    "of coloring channels")
    in_parent = argparse.ArgumentParser(add_help=False)
    in_parent.add_argument("--input", default="-", metavar="FILE",
                           help="system document (JSON); '-' reads stdin")
    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--output", default="-", metavar="FILE",
                            help="result document (JSON); '-' writes stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", parents=[in_parent, out_parent],
                   help="structural class of the system")
    sub.add_parser("capacity", parents=[in_parent, out_parent],
                   help="capacity, exact where a formula applies")
    sub.add_parser("bounds", parents=[in_parent, out_parent],
                   help="clique sandwich, ignoring exact formulas")
    enum = sub.add_parser("enumerate", parents=[in_parent, out_parent],
                          help="exact output counting over trace normal forms")
    enum.add_argument("--n", type=int, required=True, metavar="N",
                      help="block length")
    enum.add_argument("--sweep", action="store_true",
                      help="report every length 1..N")
    enum.add_argument("--verify-pairs", action="store_true", dest="verify_pairs",
                      help="also count the system exhaustively and compare "
                           "with the pairs-graph count")
    enum.add_argument("--budget", type=int, default=None, metavar="B",
                      help=f"cap on q^N, the number of words a count covers "
                           f"(default {DEFAULT_BUDGET})")
    rec = sub.add_parser("reconstruct", parents=[in_parent, out_parent],
                         help="rebuild one channel's view from pairwise views")
    rec.add_argument("--channel", type=int, required=True, metavar="IDX",
                     help="1-based channel index")
    rec.add_argument("--views", required=True, metavar="FILE",
                     help='JSON file: {"views": [{"pair": [a,b], "word": [...]}]}')
    tab = sub.add_parser("table", parents=[out_parent],
                         help="built-in capacity catalog (reads no input)")
    tab.add_argument("--which", required=True, choices=sorted(TABLE_SYSTEMS),
                     help="catalog to print")
    return parser


def peak(fn) -> tuple:
    """(fn(), the peak bytes tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def visible_letters(system: ChannelSystem) -> frozenset[int]:
    """Union of all channel letter sets (the letters the system can see)."""
    return frozenset().union(*system.channels)


def restrict_alphabet(system: ChannelSystem) -> ChannelSystem:
    """Relabel the letters actually used onto 1..m, dropping unused ones.

    Output counts are invariant under the relabeling, so this is the right
    form for counting a separable component on its own letters.
    """
    used = sorted(visible_letters(system))
    if len(used) < 2:
        raise ValueError("restriction needs at least 2 used letters")
    relabel = {a: i + 1 for i, a in enumerate(used)}
    return ChannelSystem(len(used), [{relabel[a] for a in ch} for ch in system.channels])


def reference_letter_error(q: int, channels) -> str | None:
    """The per-letter rule ChannelSystem keeps: the message for the first
    channel, after frozenset normalisation, that is empty or holds a letter
    that is not an int (a bool counts as none) in 1..q; None when there is
    no such channel."""
    for i, ch in enumerate(map(frozenset, channels)):
        if not ch:
            return f"channel {i + 1} is empty"
        bad = [a for a in ch
               if not isinstance(a, int) or isinstance(a, bool) or not 1 <= a <= q]
        if bad:
            return f"channel {i + 1}: letter {bad[0]!r} outside 1..{q}"
    return None


def reference_count(system: ChannelSystem, n: int) -> int:
    """Distinct output tuples of the q^n words, by projecting every word.

    The independent check of count_outputs, which extends distinct outputs
    level by level instead.  Keys join the per-channel projections with a 0
    byte, which no letter can collide with; letters above 255 fall back to
    tuple keys.
    """
    q = system.q
    if q <= 255:
        deletes = [bytes(a for a in range(1, q + 1) if a not in ch)
                   for ch in system.channels]
        return len({b"\0".join(w.translate(None, d) for d in deletes)
                    for w in map(bytes, itertools.product(range(1, q + 1), repeat=n))})
    return len({apply_system(w, system)
                for w in itertools.product(range(1, q + 1), repeat=n)})


def reference_remove_dominated(system: ChannelSystem) -> ChannelSystem:
    """The quadratic rule remove_dominated keeps: drop a channel strictly
    inside another or equal to an earlier one; survivors stay in order."""
    chans = system.channels
    return ChannelSystem(system.q, [
        ch for i, ch in enumerate(chans)
        if not any(ch < other for other in chans) and ch not in chans[:i]])


def reference_separable_split(system: ChannelSystem) -> list[ChannelSystem]:
    """separable_split's partition by merging groups: each channel absorbs
    every group so far whose letters it meets; groups come out in
    first-channel order, each with its channels in their original order."""
    chans = system.channels
    groups: list[tuple[frozenset[int], list[int]]] = []  # (letters, channel indices)
    for i, ch in enumerate(chans):
        letters, idx, apart = ch, [i], []
        for group_letters, group_idx in groups:
            if group_letters & ch:
                letters, idx = letters | group_letters, idx + group_idx
            else:
                apart.append((group_letters, group_idx))
        groups = apart + [(letters, idx)]
    return [ChannelSystem(system.q, [chans[i] for i in idx])
            for idx in sorted(sorted(idx) for _, idx in groups)]


def reference_classify(system: ChannelSystem) -> SystemClass:
    """The class classify gives, by its definitions: a sunflower's core is
    the intersection of all channels and every two channels meet in exactly
    that core; paths and cycles count letter degrees; a full clique has a
    complete pairs graph on [q]."""
    reduced = reference_remove_dominated(system)
    if reduced != system:
        return Reducible(reduced)
    components = reference_separable_split(system)
    if len(components) > 1:
        return Separable(tuple(components))
    chans = system.channels
    if len(chans) == 1:
        return SingleChannel(len(chans[0]))
    if len(chans) == 2:
        a, b = chans
        return TwoSets(len(a & b), len(a - b), len(b - a))
    core = frozenset.intersection(*chans)
    sizes = {len(c) for c in chans}
    if core and len(sizes) == 1 and all(
            u & v == core for u, v in itertools.combinations(chans, 2)):
        return Sunflower(len(core), sizes.pop() - len(core), len(chans))
    if sizes == {2}:
        degs = sorted(Counter(a for ch in chans for a in ch).values())
        if degs[-1] <= 2 and degs.count(1) == 2:
            return Path(len(chans))
        if degs[0] == 2 and degs[-1] == 2 and len(chans) >= 4:
            return Cycle(len(chans))
    if len(pairs(system)) == system.q * (system.q - 1) // 2:
        return FullClique()
    return General()


def pairs(system: ChannelSystem) -> set[tuple[int, int]]:
    """The pairs graph's edges: every letter pair (u < v) sharing a channel."""
    return {pair for ch in system.channels
            for pair in itertools.combinations(sorted(ch), 2)}


def edge_system(system: ChannelSystem) -> ChannelSystem:
    """The system whose channels are the pairs graph's edges, in lexicographic
    order: an irreducible system's counts, by the pairs-graph theorem."""
    edges = pairs(system)
    if not edges:
        raise ValueError("pairs graph has no edges")
    return ChannelSystem(system.q, sorted(edges))


def brute_max_clique(system: ChannelSystem) -> frozenset[int]:
    """The lexicographically least largest subset of [q] whose pairs all
    share a channel, by trying every subset; {1} when there is no edge."""
    edges = pairs(system)
    for size in range(system.q, 1, -1):
        for subset in itertools.combinations(range(1, system.q + 1), size):
            if all(pair in edges for pair in itertools.combinations(subset, 2)):
                return frozenset(subset)
    return frozenset({1})


def antichains(q: int):
    """Every system over [q] whose channels are non-empty and pairwise
    incomparable: 4, 18, 166 and 7,579 of them at q = 2..5 (the Dedekind
    numbers less the empty family and the family of the empty set).

    Channels come in increasing (size, letters) order, so a later channel
    can only contain an earlier one, never lie inside it.
    """
    subsets = [frozenset(c) for r in range(1, q + 1)
               for c in itertools.combinations(range(1, q + 1), r)]

    def extend(family, start):
        for i in range(start, len(subsets)):
            if not any(c < subsets[i] for c in family):
                yield ChannelSystem(q, family + [subsets[i]])
                yield from extend(family + [subsets[i]], i + 1)

    return extend([], 0)


def irreducible_families(q: int):
    """Every antichain over [q] with two or more channels that does not
    split: 4 of them at q = 3 and 99 at q = 4."""
    for system in antichains(q):
        if system.t > 1 and len(separable_split(system)) == 1:
            yield system


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def chebyshev_U(i: int, x):
    """Chebyshev polynomial of the second kind, U_0 = 1, U_1 = 2x.

    The recurrence U_i = 2x U_{i-1} - U_{i-2} is evaluated in the arithmetic
    of x, so integer (or Fraction) inputs stay exact.
    """
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    u_prev = x * 0 + 1
    if i == 0:
        return u_prev
    u = 2 * x
    for _ in range(i - 1):
        u_prev, u = u, 2 * x * u - u_prev
    return u


def chebyshev_W(i: int, x):
    """Chebyshev polynomial of the fourth kind, W_i = U_i + U_{i-1}."""
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    if i == 0:
        return x * 0 + 1
    return chebyshev_U(i, x) + chebyshev_U(i - 1, x)


def composition_count_sunflower(k: int, p: int, t: int, i: Sequence[int],
                                j1: int) -> int:
    """Outputs of (k,p,t)-sunflower words with i[l] letters from petal l and
    j1 core letters:  k^j1 * p^sum(i) * prod_l C(j1 + i[l], i[l]).
    """
    i = tuple(i)
    if len(i) != t:
        raise ValueError(f"need one petal count per channel, got {len(i)} for t={t}")
    if j1 < 0 or any(x < 0 for x in i):
        raise ValueError("composition entries must be >= 0")
    return k ** j1 * p ** sum(i) * prod(comb(j1 + x, x) for x in i)


def composition_count_path(a: Sequence[int]) -> int:
    """Outputs of path words with a[i] copies of the i-th path letter:
    prod_i C(a[i-1] + a[i], a[i]) over consecutive pairs.
    """
    a = tuple(a)
    if len(a) < 2:
        raise ValueError("a path profile needs at least two letter counts")
    if any(x < 0 for x in a):
        raise ValueError("composition entries must be >= 0")
    return prod(comb(a[i - 1] + a[i], a[i]) for i in range(1, len(a)))


def entropy(x: float) -> float:
    """Binary entropy H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0.

    The paper's capacity objectives are sums of these terms; the tests
    evaluate them at the package's witnesses as an independent check of its
    growth-rate values.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def sunflower_objective(k: int, p: int, t: int, q: int, y: float) -> float:
    """The paper's sunflower objective g(y) in alphabet units:
    (1-y) log_q k + y log_q p + (t - (t-1)y) H(y / (t - (t-1)y)) log_q 2."""
    denom = t - (t - 1) * y
    return ((1 - y) * math.log(k) + y * math.log(p)
            + denom * entropy(y / denom) * math.log(2)) / math.log(q)


def two_sets_objective(k: int, p1: int, p2: int, q: int, a: float, b: float) -> float:
    """The paper's two-sets objective M(x1, x2) in alphabet units."""
    return ((1 - a - b) * math.log(k) + a * math.log(p1) + b * math.log(p2)
            + ((1 - b) * entropy(a / (1 - b))
               + (1 - a) * entropy(b / (1 - a))) * math.log(2)) / math.log(q)


def path_objective(alpha: Sequence[float], q: int) -> float:
    """The paper's path objective in alphabet units: the sum over consecutive
    letters of (alpha_{i-1} + alpha_i) H(alpha_i / (alpha_{i-1} + alpha_i)) log_q 2."""
    return math.fsum(
        (alpha[i - 1] + alpha[i]) * entropy(alpha[i] / (alpha[i - 1] + alpha[i]))
        for i in range(1, len(alpha))
    ) * math.log(2) / math.log(q)
