"""Structure of channel systems: reduction, separability, pairs graph, classes.

A channel contained in another contributes nothing (its projection is a
function of the larger one), so systems reduce to antichains.  Channels that
share no letters across two groups act independently, so systems split into
separable components.  For an irreducible system the pairs graph, whose
edges are the 2-subsets co-occurring inside some channel, carries everything
that matters for counting distinguishable outputs.  Every test here reads one
map, letter -> channels holding it, and none lists pairs-graph edges.
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
    chans = system.channels
    # the first copy of each channel, by hash; only a channel smaller than
    # the largest can lie strictly inside another, and any channel holding
    # it also holds its least-held letter
    top = max(map(len, chans))
    kept = [ch for ch in dict.fromkeys(chans) if len(ch) == top or not any(
        ch < chans[j] for j in min(map(holders.__getitem__, ch), key=len))]
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


def _class_graph(
    system: ChannelSystem, classes: dict[frozenset[int], list[int]],
) -> tuple[list[list[int]], list[set[int]]]:
    """The pairs graph induced on the given letter classes of the system: each
    class's letters, and the set of the other given classes that share a
    channel with it (the class's neighbours), numbered in the map's order.
    """
    holds: list[set[int]] = [set() for _ in system.channels]
    for c, idx in enumerate(classes):
        for i in idx:
            holds[i].add(c)
    adj = [set().union(*(holds[i] for i in idx)) - {c} for c, idx in enumerate(classes)]
    return list(classes.values()), adj


def max_clique(system: ChannelSystem) -> frozenset[int]:
    """One maximum clique of the pairs graph (lexicographically least among
    the largest).

    Every channel is a clique, so the answer starts as the least largest
    channel ({1} if that has one letter).  TwoSets, Sunflower, Path and
    Cycle systems stop there: letters of different petals (or of different
    sets) share no channel, and a path or a cycle of t >= 4 two-sets has no
    triangle, so every maximal clique is a channel.  Every other class is
    searched over the letter classes held by two or more channels (a letter
    of one channel is simplicial: no clique through it beats its channel):
    a Carraghan-Pardalos branch and bound, pivoting like Bron-Kerbosch on
    the candidate of highest degree, whose stack frames hold a clique's
    letters and its candidates.  It needs no excluded set: a clique that is
    not maximal is smaller than one containing it.  A child is pushed if it
    has candidates and could beat the best; any other that could tie or
    beat it must take every candidate, so if they are pairwise adjacent
    (always, when there are none) that clique is compared in place.
    Computed once per system instance; later calls return the same set.
    """
    known = system._known
    if "max_clique" not in known:
        known["max_clique"] = _max_clique(system)
    return known["max_clique"]


def _max_clique(system: ChannelSystem) -> frozenset[int]:
    # every channel is a clique; a shape has no other maximal clique
    best: tuple[int, list[int]] = min((-len(ch), sorted(ch)) for ch in system.channels)
    if isinstance(classify(system), (TwoSets, Sunflower, Path, Cycle)):
        return frozenset(best[1])
    # a single letter of the graph on [q] is a clique too
    best = min(best, (-1, [1]))
    # a clique through a letter of one channel lies in that channel, and
    # every channel is a candidate for the starting best: join shared classes
    members, adj = _class_graph(system, {
        idx: letters for idx, letters in _letter_classes(_holders(system)).items()
        if len(idx) > 1})
    size, degree = list(map(len, members)), list(map(len, adj))
    stack = [([], set(range(len(adj))))] if adj else []
    while stack:
        r, p = stack.pop()
        pivot = max(p, key=degree.__getitem__)
        for v in list(p - adj[pivot]):
            # the child sees p after its earlier siblings left it
            cr, cp = r + members[v], p & adj[v]
            reach = len(cr) + sum(map(size.__getitem__, cp))
            if cp and reach > -best[0]:
                stack.append((cr, cp))
            elif reach >= -best[0] and (not cp or all(
                    len(adj[u] & cp) == len(cp) - 1 for u in cp)):
                # no candidate left to branch on, or a tie that must take them all
                for u in cp:
                    cr += members[u]
                best = min(best, (-reach, sorted(cr)))
            p.remove(v)
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
    Computed once per system instance; later calls return the same record.
    """
    known = system._known
    if "classify" not in known:
        known["classify"] = _classify(system)
    return known["classify"]


def _require_irreducible(system: ChannelSystem, what: str) -> None:
    """Refuse a system that bounds_general and verify_pairs_equality cannot take."""
    if system.t < 2:
        raise ValueError(f"{what} needs at least two channels")
    if isinstance(classify(system), (Reducible, Separable)):
        raise ValueError(f"{what} expects an irreducible system; "
                         "reduce and split it first")


def _classify(system: ChannelSystem) -> SystemClass:
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
