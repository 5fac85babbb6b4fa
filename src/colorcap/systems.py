"""Structure of channel systems: reduction, separability, pairs graph, classes.

A channel contained in another contributes nothing (its projection is a
function of the larger one), so systems reduce to antichains.  Channels that
share no letters across two groups act independently, so systems split into
separable components.  For an irreducible system the pairs graph, whose
edges are the 2-subsets co-occurring inside some channel, carries everything
that matters for counting distinguishable outputs.  Every test here reads one
map, letter -> channels holding it; only edge_system lists pairs-graph edges.
"""

from __future__ import annotations

import itertools

from .channels import ChannelSystem, Record


def _holders(system: ChannelSystem) -> dict[int, list[int]]:
    """Each visible letter's channel indices, in increasing order."""
    where: dict[int, list[int]] = {}
    for i, ch in enumerate(system.channels):
        for a in ch:
            where.setdefault(a, []).append(i)
    return where


def remove_dominated(system: ChannelSystem) -> ChannelSystem:
    """Drop every channel contained in another (keeping one copy of duplicates).

    Survivors keep their original order; the system itself comes back when
    nothing is dropped.  Idempotent.
    """
    return _remove_dominated(system, _holders(system))


def _remove_dominated(system: ChannelSystem, holders: dict[int, list[int]]) -> ChannelSystem:
    chans, kept = system.channels, []
    for i, ch in enumerate(chans):
        # any channel holding ch also holds ch's least-held letter
        rarest = min(ch, key=lambda a: len(holders[a]))
        if not any(ch < chans[j] or (ch == chans[j] and j < i) for j in holders[rarest]):
            kept.append(ch)
    return system if len(kept) == len(chans) else ChannelSystem(system.q, kept)


def separable_split(system: ChannelSystem) -> list[ChannelSystem]:
    """Finest partition of the channels into groups with disjoint letter sets.

    Components are ordered by first channel occurrence and keep the original
    relative channel order; each carries the original alphabet size.
    Returns [system] when no split exists.
    """
    return _separable_split(system, _holders(system))


def _separable_split(system: ChannelSystem, holders: dict[int, list[int]]) -> list[ChannelSystem]:
    chans, seen, read, groups = system.channels, set(), set(), []
    for first in range(len(chans)):
        if first not in seen:
            seen.add(first)
            groups.append([first])
            for i in groups[-1]:  # the group grows as the walk reaches channels
                for a in chans[i] - read:  # each letter's holders are read once
                    read.add(a)
                    for j in holders[a]:
                        if j not in seen:
                            seen.add(j)
                            groups[-1].append(j)
    if len(groups) == 1:
        return [system]
    return [ChannelSystem(system.q, [chans[i] for i in sorted(idx)]) for idx in groups]


# ---------------------------------------------------------------------------
# pairs graph, read off the channels


def _letter_classes(holders: dict[int, list[int]]) -> dict[frozenset[int], list[int]]:
    """Visible letters keyed by the set of channel indices they lie in.

    Letters of one class are twins in the pairs graph: pairwise adjacent, with
    one closed neighbourhood.  Two classes are adjacent exactly when they share
    a channel, so every maximal clique holds a class wholly or not at all.
    """
    classes: dict[frozenset[int], list[int]] = {}
    for a, idx in holders.items():
        classes.setdefault(frozenset(idx), []).append(a)
    return classes


def edge_system(system: ChannelSystem) -> ChannelSystem:
    """The system whose channels are the pairs graph's edges, in lexicographic order."""
    edges = {e for ch in system.channels for e in itertools.combinations(sorted(ch), 2)}
    if not edges:
        raise ValueError("pairs graph has no edges")
    return ChannelSystem(system.q, sorted(edges))


def _class_graph(system: ChannelSystem) -> tuple[list[list[int]], list[set[int]]]:
    """The pairs graph on letter classes: each class's letters, and the set of
    the other classes that share a channel with it (the class's neighbours).
    """
    classes = _letter_classes(_holders(system))
    holds: list[set[int]] = [set() for _ in system.channels]
    for c, idx in enumerate(classes):
        for i in idx:
            holds[i].add(c)
    adj = [set().union(*(holds[i] for i in idx)) - {c} for c, idx in enumerate(classes)]
    return list(classes.values()), adj


def max_clique(system: ChannelSystem) -> frozenset[int]:
    """One maximum clique of the pairs graph (lexicographically least among
    the largest): Bron-Kerbosch with pivoting over the letter classes, run on
    an explicit stack and keeping only the best maximal clique found so far.
    """
    members, adj = _class_graph(system)
    # a single letter is a clique of the graph on [q]; any two letters beat it
    best: tuple[int, list[int]] = (-1, [1])
    stack = [([], set(range(len(adj))), set())]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            best = min(best, (-len(r), sorted(r)))
            continue
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in list(p - adj[pivot]):
            # the child sees p and x after its earlier siblings moved across
            stack.append((r + members[v], p & adj[v], x & adj[v]))
            p.remove(v)
            x.add(v)
    return frozenset(best[1])


# ---------------------------------------------------------------------------
# classification


class SystemClass(Record):
    """Structural class of a system: the common base of the nine shapes below.

    Each shape is an immutable record of its parameters, in constructor order.
    """


class SingleChannel(SystemClass):
    def __init__(self, size: int):
        self.__dict__["size"] = size


class FullClique(SystemClass):
    pass


class Sunflower(SystemClass):
    """t channels of size k+p sharing a common core of size k, petals disjoint."""

    def __init__(self, k: int, p: int, t: int):
        self.__dict__.update(k=k, p=p, t=t)


class TwoSets(SystemClass):
    """Two channels with |I1 & I2| = k, |I1 - I2| = p1, |I2 - I1| = p2.

    When p1 == p2 the pair is also a (k, p, 2)-sunflower.
    """

    def __init__(self, k: int, p1: int, p2: int):
        self.__dict__.update(k=k, p1=p1, p2=p2)

    @property
    def sunflower_equivalent(self) -> Sunflower | None:
        return Sunflower(self.k, self.p1, 2) if self.p1 == self.p2 else None


class Path(SystemClass):
    """t channels {s0,s1}, {s1,s2}, ..., {s_{t-1},s_t} on t+1 distinct letters."""

    def __init__(self, t: int):
        self.__dict__["t"] = t


class Cycle(SystemClass):
    """t >= 4 channels forming a closed chain of 2-sets on t distinct letters."""

    def __init__(self, t: int):
        self.__dict__["t"] = t


class Separable(SystemClass):
    def __init__(self, components: tuple[ChannelSystem, ...]):
        self.__dict__["components"] = components


class Reducible(SystemClass):
    def __init__(self, reduced: ChannelSystem):
        self.__dict__["reduced"] = reduced


class General(SystemClass):
    pass


def classify(system: ChannelSystem) -> SystemClass:
    """Structural class of a system, by precedence.

    Reducible and Separable fire first, then SingleChannel and TwoSets (t = 2).
    Sunflower, Path and Cycle are read off how many channels hold each letter,
    and FullClique off the letter classes of the same map (no shape has a
    complete pairs graph); else General.  Channel order never matters.
    """
    holders = _holders(system)
    reduced = _remove_dominated(system, holders)
    if reduced != system:
        return Reducible(reduced)
    components = _separable_split(system, holders)
    if len(components) > 1:
        return Separable(tuple(components))
    chans, t = system.channels, system.t
    if t == 1:
        return SingleChannel(len(chans[0]))
    if t == 2:
        a, b = chans
        # irreducible with t = 2 forces k, p1, p2 >= 1
        return TwoSets(len(a & b), len(a - b), len(b - a))
    degs, sizes = sorted(map(len, holders.values())), {len(c) for c in chans}
    # core letters lie in all t channels, petal letters in one each
    if degs[-1] == t and len(sizes) == 1 and set(degs) <= {1, t}:
        return Sunflower(degs.count(t), sizes.pop() - degs.count(t), t)
    if sizes == {2}:
        # connected 2-sets: the degree profile tells a path from a cycle
        if degs[-1] <= 2 and degs.count(1) == 2:
            return Path(t)
        if degs[0] == 2 and degs[-1] == 2 and t >= 4:
            return Cycle(t)
    classes = _letter_classes(holders)
    if sum(map(len, classes.values())) == system.q and all(
            u & v for u, v in itertools.combinations(classes, 2)):
        return FullClique()
    return General()
