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
    return ChannelSystem(system.q, [
        ch for i, ch in enumerate(chans)
        if not any(ch < other for other in chans) and ch not in chans[:i]])


def separable_split(system: ChannelSystem) -> list[ChannelSystem]:
    """Finest partition of the channels into groups with disjoint letter sets.

    Components are ordered by first channel occurrence and keep the original
    relative channel order; each carries the original alphabet size.
    Returns [system] when no split exists.
    """
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
    ordered = sorted(sorted(idx) for _, idx in groups)
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

    Bron-Kerbosch with pivoting over the graph's non-isolated vertices, run on
    an explicit stack and keeping only the best maximal clique found so far.
    """
    adj: dict[int, set[int]] = {}
    for u, v in graph.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if not adj:
        return frozenset({1}) if graph.q else frozenset()
    # any clique found (two letters or more) beats this sentinel
    best: tuple[int, list[int]] = (0, [])
    stack = [(set(), set(adj), set())]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            best = min(best, (-len(r), sorted(r)))
            continue
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in list(p - adj[pivot]):
            # the child sees p and x after its earlier siblings moved across
            stack.append((r | {v}, p & adj[v], x & adj[v]))
            p.remove(v)
            x.add(v)
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

    Reducible and Separable fire first; then SingleChannel; then the shapes
    TwoSets (t = 2), Sunflower, Path and Cycle, read off the channel sets;
    then FullClique, the only test that builds the pairs graph (no shape has
    a complete one); then General.  Channel order never affects the result.
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
        # connected 2-sets: the degree profile tells a path from a cycle
        degs = sorted(Counter(a for ch in chans for a in ch).values())
        if degs[-1] <= 2 and degs.count(1) == 2:
            return Path(len(chans))
        if degs[0] == 2 and degs[-1] == 2 and len(chans) >= 4:
            return Cycle(len(chans))
    if pairs_graph(system).is_complete:
        return FullClique()
    return General()
