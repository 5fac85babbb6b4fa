"""Structure of channel systems: reduction, separability, pairs graph, classes.

A channel contained in another contributes nothing (its projection is a
function of the larger one), so systems reduce to antichains.  Channels that
share no letters across two groups act independently, so systems split into
separable components.  For an irreducible system the pairs graph, whose
edges are the 2-subsets co-occurring inside some channel, carries everything
that matters for counting distinguishable outputs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Union

from .channels import ChannelSystem


def remove_dominated(system: ChannelSystem) -> ChannelSystem:
    """Drop every channel contained in another (keeping one copy of duplicates).

    Survivors keep their original order.  Idempotent.
    """
    chans = system.channels
    keep = []
    for i, ch in enumerate(chans):
        dominated = any(
            ch < other or (ch == other and j < i)
            for j, other in enumerate(chans) if j != i
        )
        if not dominated:
            keep.append(ch)
    return ChannelSystem(system.q, keep)


def separable_split(system: ChannelSystem) -> list[ChannelSystem]:
    """Finest partition of the channels into groups with disjoint letter sets.

    Components are ordered by first channel occurrence and keep the original
    relative channel order; each carries the original alphabet size.
    Returns [system] when no split exists.
    """
    chans = system.channels
    parent = list(range(len(chans)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(chans)), 2):
        if chans[i] & chans[j]:
            parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(len(chans)):
        groups.setdefault(find(i), []).append(i)
    ordered = sorted(groups.values(), key=lambda idx: idx[0])
    if len(ordered) == 1:
        return [system]
    return [ChannelSystem(system.q, [chans[i] for i in idx]) for idx in ordered]


# ---------------------------------------------------------------------------
# pairs graph


@dataclass(frozen=True)
class PairsGraph:
    """Graph on the vertex set [q] whose edges are co-occurring letter pairs."""

    q: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if not (1 <= u < v <= self.q):
                raise ValueError(f"edge ({u},{v}) not an ordered pair in 1..{self.q}")

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == self.q * (self.q - 1) // 2


def pairs_graph(system: ChannelSystem) -> PairsGraph:
    """Edges are all 2-subsets appearing together inside some channel."""
    edges = set()
    for ch in system.channels:
        for u, v in itertools.combinations(sorted(ch), 2):
            edges.add((u, v))
    return PairsGraph(system.q, frozenset(edges))


def edge_system(graph: PairsGraph) -> ChannelSystem:
    """The system whose channels are the graph's edges, in lexicographic order."""
    if not graph.edges:
        raise ValueError("graph has no edges")
    return ChannelSystem(graph.q, [set(e) for e in sorted(graph.edges)])


def max_clique(graph: PairsGraph) -> frozenset[int]:
    """One maximum clique (lexicographically least among the largest).

    Bron-Kerbosch with pivoting over the graph's non-isolated vertices,
    keeping only the best maximal clique found so far.
    """
    adj: dict[int, set[int]] = {}
    for u, v in graph.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if not adj:
        return frozenset({1}) if graph.q else frozenset()
    # any clique found (two letters or more) beats this sentinel
    best: tuple[int, list[int]] = (0, [])

    def expand(r: set, p: set, x: set):
        nonlocal best
        if not p and not x:
            best = min(best, (-len(r), sorted(r)))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in list(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(adj), set())
    return frozenset(best[1])


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SingleChannel:
    size: int


@dataclass(frozen=True)
class FullClique:
    pass


@dataclass(frozen=True)
class Sunflower:
    """t channels of size k+p sharing a common core of size k, petals disjoint."""

    k: int
    p: int
    t: int


@dataclass(frozen=True)
class TwoSets:
    """Two channels with |I1 & I2| = k, |I1 - I2| = p1, |I2 - I1| = p2.

    When p1 == p2 the pair is also a (k, p, 2)-sunflower.
    """

    k: int
    p1: int
    p2: int

    @property
    def sunflower_equivalent(self) -> Sunflower | None:
        return Sunflower(self.k, self.p1, 2) if self.p1 == self.p2 else None


@dataclass(frozen=True)
class Path:
    """t channels {s0,s1}, {s1,s2}, ..., {s_{t-1},s_t} on t+1 distinct letters."""

    t: int


@dataclass(frozen=True)
class Cycle:
    """t >= 4 channels forming a closed chain of 2-sets on t distinct letters."""

    t: int


@dataclass(frozen=True)
class Separable:
    components: tuple[ChannelSystem, ...]


@dataclass(frozen=True)
class Reducible:
    reduced: ChannelSystem


@dataclass(frozen=True)
class General:
    pass


SystemClass = Union[
    SingleChannel, FullClique, Sunflower, TwoSets, Path, Cycle,
    Separable, Reducible, General,
]


def classify(system: ChannelSystem) -> SystemClass:
    """Structural class of a system, by precedence.

    Reducible and Separable fire first; then SingleChannel, FullClique, and
    the exact shapes (TwoSets for t = 2, Sunflower, Path, Cycle), matched on
    the channel sets themselves rather than up to graph isomorphism.  The
    order of channels never affects the result.
    """
    reduced = remove_dominated(system)
    if reduced != system:
        return Reducible(reduced)
    components = separable_split(system)
    if len(components) > 1:
        return Separable(tuple(components))
    chans = system.channels
    if len(chans) == 1:
        return SingleChannel(len(chans[0]))
    if pairs_graph(system).is_complete:
        return FullClique()
    if len(chans) == 2:
        a, b = chans
        # irreducible with t = 2 forces k, p1, p2 >= 1
        return TwoSets(len(a & b), len(a - b), len(b - a))
    core = frozenset.intersection(*chans)
    sizes = {len(c) for c in chans}
    if core and len(sizes) == 1 and all(
            u & v == core for u, v in itertools.combinations(chans, 2)):
        return Sunflower(len(core), sizes.pop() - len(core), len(chans))
    if all(len(c) == 2 for c in chans):
        # non-separable 2-sets form a connected graph; its shape is read off
        # the degree profile
        degrees = Counter(a for ch in chans for a in ch)
        degs = sorted(degrees.values())
        if degs[-1] <= 2 and degs.count(1) == 2:
            return Path(len(chans))
        if degs[0] == 2 and degs[-1] == 2 and len(chans) >= 4:
            return Cycle(len(chans))
    return General()
