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
from collections.abc import Iterator

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


# The masks are as wide as their highest bit, so those of n shared letters
# take up to about n*n/8 bytes: 91 MB by tracemalloc on a 20,000-letter path.
# Above this many shared letters the search runs once per class, on masks over
# that class and its later neighbours only (11 MB on that path).  Below it one
# search is faster: the split builds masks for every class, and on a dense
# graph it scans every class's neighbourhood.
_SPLIT = 2000


def _clique_masks(
    classes: dict[frozenset[int], list[int]],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The pairs graph induced on the given letter classes, as bitmasks with
    one bit per letter, in letter order: the letters by bit; for each bit, its
    class's bits and its neighbours' bits (the other given classes sharing a
    channel with it); and the classes' lowest bits grouped by their number of
    neighbours, most first.
    """
    letters = sorted(itertools.chain.from_iterable(classes.values()))
    where = {a: i for i, a in enumerate(letters)}
    own = [sum(1 << where[a] for a in members) for members in classes.values()]
    holds: dict[int, int] = {}  # each channel's bits
    for bits, idx in zip(own, classes):
        for i in idx:
            holds[i] = holds.get(i, 0) | bits
    lowest = sum(bits & -bits for bits in own)
    own_of, adj_of, by_degree = [0] * len(letters), [0] * len(letters), {}
    for bits, (idx, members) in zip(own, classes.items()):
        adj = 0
        for i in idx:
            adj |= holds[i]
        adj ^= bits
        for a in members:
            own_of[where[a]], adj_of[where[a]] = bits, adj
        degree = (adj & lowest).bit_count()
        by_degree[degree] = by_degree.get(degree, 0) | bits & -bits
    return letters, own_of, adj_of, [by_degree[d] for d in sorted(by_degree, reverse=True)]


def _search(classes: dict[frozenset[int], list[int]], first: list[int],
            best: tuple[int, list[int]]) -> tuple[int, list[int]]:
    """The lesser of best, a clique as (-size, sorted letters), and the
    lexicographically least largest clique of the given classes; when first
    holds letters, only cliques holding their class count.  Past _SPLIT
    letters a search with no first runs once per class instead."""
    total = sum(map(len, classes.values()))
    if total < -best[0] or total == -best[0] and sorted(
            itertools.chain.from_iterable(classes.values())) >= best[1]:
        # only all the letters together could tie, and they lose on order
        return best
    if total > _SPLIT and not first:
        for neighbourhood, lead in _later_neighbourhoods(classes):
            best = _search(neighbourhood, lead, best)
        return best
    letters, own, adj, levels = _clique_masks(classes)
    size = -best[0]
    r = own[letters.index(first[0])] if first else 0
    found, stack = 0, [(r, (1 << len(letters)) - 1 ^ r)]
    while stack:
        r, p = stack.pop()
        for level in levels:
            if p & level:
                break
        pivot = p & level
        todo = p & ~adj[(pivot & -pivot).bit_length() - 1]
        while todo:
            v = (todo & -todo).bit_length() - 1
            # the child sees p after its earlier siblings left it
            cr, cp = r | own[v], p & adj[v]
            reach = (cr | cp).bit_count()
            if cp and reach > size:
                stack.append((cr, cp))
            elif reach >= size and _pairwise(cp, own, adj):
                # no candidate left to branch on, or a tie that must take them
                # all; of equal sizes, the one holding the first letter they
                # differ in comes first
                cr |= cp
                lead = cr ^ found
                if reach > size or cr & lead & -lead:
                    size, found = reach, cr
            todo ^= own[v]
            p ^= own[v]
    if not found:
        return best
    return min(best, (-size, [a for a, bit in zip(letters, bin(found)[:1:-1]) if bit == "1"]))


def _pairwise(p: int, own: list[int], adj: list[int]) -> bool:
    """Whether the classes of bitmask p pairwise share a channel."""
    rest = p
    while rest:
        u = (rest & -rest).bit_length() - 1
        if (adj[u] | own[u]) & p != p:
            return False
        rest ^= own[u]
    return True


def _later_neighbourhoods(
    classes: dict[frozenset[int], list[int]],
) -> Iterator[tuple[dict[frozenset[int], list[int]], list[int]]]:
    """Each class with a later neighbour in the map's order, as a class map of
    the class and those neighbours, with the class's letters.  A clique lies
    in the map of its first class and holds that class."""
    rank = {idx: k for k, idx in enumerate(classes)}
    inside: dict[int, list[frozenset[int]]] = {}  # each channel's classes
    for idx in classes:
        for i in idx:
            inside.setdefault(i, []).append(idx)
    for k, idx in enumerate(classes):
        later = {u for i in idx for u in inside[i] if rank[u] > k}
        if later:
            yield {idx: classes[idx], **{u: classes[u] for u in later}}, classes[idx]


def max_clique(system: ChannelSystem) -> frozenset[int]:
    """One maximum clique of the pairs graph (lexicographically least among
    the largest).

    Every channel is a clique, so the answer starts as the least largest
    channel ({1} if that has one letter).  TwoSets, Sunflower, Path and
    Cycle systems stop there: letters of different petals (or of different
    sets) share no channel, and a path or a cycle of t >= 4 two-sets has no
    triangle, so every maximal clique is a channel.  Every other class is
    searched over the letter classes held by two or more channels (a letter
    of one channel is simplicial: no clique through it beats its channel).
    Each of their letters gets one bit, in letter order; a class's mask ORs
    its letters' bits, and its neighbour mask ORs its channels' masks less
    its own bits.  When those letters are fewer than the best channel's, or
    as many and no earlier in letter order, the channel is the answer.
    Otherwise a Carraghan-Pardalos branch and bound runs on the masks,
    pivoting like Bron-Kerbosch on the candidate class with the most
    neighbour classes; its stack frames hold a clique's bits and its
    candidates' bits.  It needs no excluded set: a clique that is not
    maximal is smaller than one containing it.  A child is pushed if it has
    candidates and could beat the best; any other that could tie or beat it
    must take every candidate, so if they are pairwise adjacent (always,
    when there are none) that clique is compared in place, and of two equal
    sizes the one holding the lowest bit where they differ comes first.
    Masks over n shared letters take about n*n/8 bytes, so above _SPLIT
    shared letters the search runs once per class instead, on masks of that
    class and its later neighbours: each clique is found under its first
    class.  Computed once per system instance; later calls return the same
    set.
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
    # every channel is a candidate for the starting best: search shared classes
    shared = {idx: letters for idx, letters in _letter_classes(_holders(system)).items()
              if len(idx) > 1}
    return frozenset(_search(shared, [], best)[1])


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
    complete pairs graph); else General.  The class map is built only when
    every letter is visible and the channels of the least-held letter hold
    all q letters, both necessary for a complete graph; a General leaf that
    fails them gets its class map built once, by the clique search.
    Channel order never matters.
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
    # a complete graph needs every letter, and the channels of its least-held
    # letter must hold them all; only then are the class keys compared
    q = system.q
    if len(holders) == q and len(frozenset().union(
            *(chans[i] for i in min(holders.values(), key=len)))) == q and all(
            u & v for u, v in itertools.combinations(_letter_classes(holders), 2)):
        return FullClique()
    return General()
