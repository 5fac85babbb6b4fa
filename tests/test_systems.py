import collections
import inspect
import itertools
import random
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import colorcap.oracle
import colorcap.systems
from colorcap import (
    ChannelSystem,
    Cycle,
    FullClique,
    General,
    Path,
    Reducible,
    Separable,
    SingleChannel,
    Sunflower,
    TwoSets,
    bounds,
    bounds_general,
    capacity,
    classify,
    count_outputs,
    max_clique,
    remove_dominated,
    separable_split,
    verify_pairs_equality,
)
from colorcap.cli import class_dict
from helpers import (
    antichains, brute_max_clique, edge_system, pairs, peak, reference_classify,
    reference_remove_dominated, reference_separable_split, restrict_alphabet,
    visible_letters,
)


def test_remove_dominated():
    system = ChannelSystem(4, [[1, 2], [1, 2, 3], [4]])
    reduced = remove_dominated(system)
    assert reduced.channels == (frozenset({1, 2, 3}), frozenset({4}))


def test_remove_dominated_keeps_one_duplicate():
    system = ChannelSystem(3, [[1, 2], [1, 2]])
    assert remove_dominated(system).channels == (frozenset({1, 2}),)


def test_remove_dominated_idempotent():
    system = ChannelSystem(4, [[1], [1, 2], [3], [1, 2]])
    once = remove_dominated(system)
    assert remove_dominated(once) is once


def test_separable_split():
    system = ChannelSystem(4, [[1, 2], [3, 4]])
    parts = separable_split(system)
    assert len(parts) == 2
    assert parts[0].channels == (frozenset({1, 2}),)
    assert parts[1].channels == (frozenset({3, 4}),)
    assert all(p.q == 4 for p in parts)


def test_separable_split_connected_is_whole():
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4]])
    assert separable_split(system) == [system]


def test_separable_split_multi_channel_components():
    system = ChannelSystem(6, [[1, 2], [2, 3], [4, 5], [5, 6]])
    parts = separable_split(system)
    assert [sorted(map(sorted, p.channels)) for p in parts] == [
        [[1, 2], [2, 3]],
        [[4, 5], [5, 6]],
    ]


def _random_system(rng):
    q = rng.randint(2, 6)
    t = rng.randint(1, 5)
    channels = [
        rng.sample(range(1, q + 1), rng.randint(1, q)) for _ in range(t)
    ]
    return ChannelSystem(q, channels)


def test_remove_dominated_preserves_pairs_graph():
    # random systems grown by copies and subsets of their own channels, then
    # shuffled, reduce exactly as the quadratic reference rule reduces them
    rng = random.Random(404)
    for _ in range(500):
        base = _random_system(rng)
        chans = [sorted(ch) for ch in base.channels]
        for ch in rng.sample(chans, rng.randint(0, len(chans))):
            chans.append(rng.sample(ch, rng.randint(1, len(ch))) if rng.random() < 0.5 else ch)
        rng.shuffle(chans)
        system = ChannelSystem(base.q, chans)
        reduced = remove_dominated(system)
        assert reduced.channels == reference_remove_dominated(system).channels
        assert pairs(reduced) == pairs(system)


def test_remove_dominated_is_not_quadratic():
    # equal sizes cost one hash per channel; a smaller channel is only looked
    # up against the holders of its least-held letter, as each 2-set of a
    # path is next to a 3-set holding two of them
    path = [[i, i + 1] for i in range(1, 5001)]
    for system, kept in [
        (ChannelSystem(5000, path[:-1] + [[1, 3]]), path[:-1] + [[1, 3]]),
        (ChannelSystem(5001, path + [[1, 2, 3]]), path[2:] + [[1, 2, 3]]),
    ]:
        start = time.perf_counter()
        reduced = remove_dominated(system)
        elapsed = time.perf_counter() - start
        assert reduced.channels == ChannelSystem(system.q, kept).channels
        assert elapsed < 0.5, f"{elapsed:.2f} s"


def test_separable_split_is_not_quadratic():
    # 3,000 disjoint pairs: the walk reads each letter's channels once
    system = ChannelSystem(6000, [[2 * i - 1, 2 * i] for i in range(1, 3001)])
    start = time.perf_counter()
    parts = separable_split(system)
    elapsed = time.perf_counter() - start
    assert [part.channels for part in parts] == [(ch,) for ch in system.channels]
    assert elapsed < 0.25, f"{elapsed:.2f} s"


def test_separable_split_partitions_channels():
    rng = random.Random(405)
    for _ in range(200):
        system = _random_system(rng)
        parts = separable_split(system)
        regrouped = [ch for p in parts for ch in p.channels]
        assert sorted(map(sorted, regrouped)) == sorted(
            map(sorted, system.channels)
        )
        for a, b in itertools.combinations(parts, 2):
            assert not (visible_letters(a) & visible_letters(b))


def test_restrict_alphabet_relabels():
    system = ChannelSystem(6, [[2, 5], [5, 6]])
    small = restrict_alphabet(system)
    assert small.q == 3
    assert small.channels == (frozenset({1, 2}), frozenset({2, 3}))


def test_restrict_alphabet_rejects_single_letter():
    with pytest.raises(ValueError):
        restrict_alphabet(ChannelSystem(4, [[2]]))


def test_pairs_graph_edges():
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    assert edge_system(system).channels == tuple(
        map(frozenset, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    )
    assert len(max_clique(system)) < system.q


def test_pairs_graph_complete():
    system = ChannelSystem(3, [[1, 2, 3]])
    assert edge_system(system).channels == tuple(
        map(frozenset, [(1, 2), (1, 3), (2, 3)])
    )
    assert max_clique(system) == frozenset({1, 2, 3})


def test_edge_system_channels_are_edges():
    system = edge_system(ChannelSystem(3, [[2, 3], [1, 2], [1, 2]]))
    assert system.channels == (frozenset({1, 2}), frozenset({2, 3}))
    with pytest.raises(ValueError):
        edge_system(ChannelSystem(3, [[1], [2]]))


def test_clique_number():
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    assert max_clique(system) == frozenset({1, 2, 3})
    path = ChannelSystem(4, [[1, 2], [2, 3], [3, 4]])
    assert len(max_clique(path)) == 2
    # shapes take the least of their largest channels, wherever it is listed
    for q, channels, cls, clique in [
        (7, [[5, 3, 4], [5, 6, 7], [5, 1, 2]], Sunflower(1, 2, 3), {1, 2, 5}),
        (5, [[4, 5, 3], [3, 1, 2]], TwoSets(1, 2, 2), {1, 2, 3}),
        (5, [[3, 4], [4, 1], [1, 2], [2, 5]], Path(4), {1, 2}),
        (5, [[4, 5], [5, 2], [2, 3], [3, 1], [1, 4]], Cycle(5), {1, 3}),
    ]:
        system = ChannelSystem(q, channels)
        assert classify(system) == cls
        assert max_clique(system) == clique == brute_max_clique(system)


def test_clique_number_edgeless():
    assert max_clique(ChannelSystem(3, [[2], [3]])) == frozenset({1})


def test_max_clique_memory_follows_edges_not_alphabet():
    system = ChannelSystem(10**5, [[1, 2], [2, 3], [1, 3], [1, 4]])
    clique, peak_bytes = peak(lambda: max_clique(system))
    assert clique == frozenset({1, 2, 3})
    assert peak_bytes < 10**6


def test_max_clique_memory_stays_flat_over_many_maximal_cliques():
    # K_24 minus a perfect matching has 2^12 maximal cliques, all of size 12
    matching = {(a, a + 1) for a in range(1, 24, 2)}
    edges = set(itertools.combinations(range(1, 25), 2)) - matching
    system = ChannelSystem(24, sorted(edges))
    clique, peak_bytes = peak(lambda: max_clique(system))
    assert clique == frozenset(range(1, 25, 2))
    assert peak_bytes < 10**6


def test_max_clique_does_not_recurse_per_clique_letter():
    # one 300-letter channel closed into a triangle by letter 301
    system = ChannelSystem(301, [range(1, 301), [300, 301], [301, 1]])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        clique, peak_bytes = peak(lambda: max_clique(system))
    finally:
        sys.setrecursionlimit(limit)
    assert clique == frozenset(range(1, 301))
    assert peak_bytes < 10**6


@pytest.mark.parametrize("q, channels", [
    # the triangle ties the starting channel {4, 5, 6} and beats it on order
    (6, [[1, 2], [2, 3], [1, 3], [3, 4], [4, 5, 6]]),
    (6, [[4, 5, 6], [1, 2], [2, 3], [1, 3], [1, 4]]),
    # two triangles, each beating every starting channel: the lesser wins
    (7, [[1, 2], [2, 3], [3, 1], [3, 4], [4, 5], [5, 6], [6, 4], [6, 7]]),
])
def test_max_clique_breaks_ties_like_brute_force(q, channels):
    system = ChannelSystem(q, channels)
    assert classify(system) == General()
    assert max_clique(system) == frozenset({1, 2, 3}) == brute_max_clique(system)


def _chained_systems(rng):
    """General systems over q = 8-12 whose channels each share a letter with
    the one before, kept only when some letter class holds several letters:
    big enough that the bound prunes, and that ties meet multi-letter classes."""
    while True:
        q = rng.randint(8, 12)
        letters = rng.sample(range(1, q + 1), q)
        channels = [rng.sample(letters, rng.randint(2, 5))]
        for _ in range(rng.randint(2, 6)):
            channels.append([rng.choice(channels[-1])] + rng.sample(letters, rng.randint(1, 4)))
        system = ChannelSystem(q, channels)
        classes = colorcap.systems._letter_classes(colorcap.systems._holders(system))
        if classify(system) == General() and any(len(c) > 1 for c in classes.values()):
            yield system


def test_max_clique_matches_brute_force_on_chained_systems():
    for system in itertools.islice(_chained_systems(random.Random(2027)), 300):
        assert max_clique(system) == brute_max_clique(system), system


def test_max_clique_searches_class_by_class_above_the_split():
    # a 2-set path on new letters, hung off the chained system's last letter,
    # takes the shared letters past _SPLIT: the search then runs once per
    # class, over masks of its later neighbours, and meets the chained
    # system's cliques under classes taken in either channel order
    length = 2 * colorcap.systems._SPLIT
    for system in itertools.islice(_chained_systems(random.Random(36)), 4):
        q = system.q
        channels = [sorted(ch) for ch in system.channels]
        channels += [[a, a + 1] for a in range(q, q + length)]
        for order in (channels, channels[::-1]):
            joined = ChannelSystem(q + length, order)
            assert classify(joined) == General()
            clique, peak_bytes = peak(lambda: max_clique(joined))
            assert clique == brute_max_clique(system), system
            # one search over every shared letter peaks at 5.5 MB here
            assert peak_bytes < 3.5 * 10**6


def test_max_clique_returns_the_channel_of_a_pendant_system():
    # one 300-letter channel, and a 2-set from each of its letters to a
    # private letter: no branch off a pendant can beat the channel
    m = 300
    system = ChannelSystem(2 * m, [range(1, m + 1)] + [[a, m + a] for a in range(1, m + 1)])
    assert classify(system) == General()
    assert max_clique(system) == frozenset(range(1, m + 1))


@pytest.mark.parametrize("q, channels, clique", [
    # the channel with two private letters ties the triangle {3, 4, 5} and
    # beats it on order
    (5, [[1, 2, 3], [3, 4], [4, 5], [5, 3]], {1, 2, 3}),
    # a clique of shared letters beats every channel
    (6, [[1, 2], [2, 3], [1, 3], [1, 4], [2, 4], [3, 4], [4, 5, 6]], {1, 2, 3, 4}),
    # the triangle of shared letters ties the channel {5, 6, 7}, listed
    # first, and beats it on order
    (7, [[5, 6, 7], [1, 2], [2, 3], [1, 3], [3, 4], [4, 5]], {1, 2, 3}),
])
def test_max_clique_weighs_letters_of_one_channel_like_brute_force(q, channels, clique):
    system = ChannelSystem(q, channels)
    assert classify(system) == General()
    assert max_clique(system) == frozenset(clique) == brute_max_clique(system)


def test_max_clique_matches_brute_force_on_every_antichain():
    # every system of pairwise incomparable channels over q <= 5: each shape,
    # and every General leaf small enough to check exhaustively
    checked = 0
    for q in (2, 3, 4, 5):
        for system in antichains(q):
            checked += 1
            assert max_clique(system) == brute_max_clique(system), system
    assert checked == 4 + 18 + 166 + 7579


def _spy_masks(monkeypatch):
    """Record the letters of each class map the clique masks are built on."""
    built, build = [], colorcap.systems._clique_masks

    def spy(classes):
        built.append(sorted(a for letters in classes.values() for a in letters))
        return build(classes)

    for module in (colorcap.systems, colorcap.oracle):
        monkeypatch.setattr(module, "_clique_masks", spy, raising=False)
    return built


def _shared_letters(system):
    """The letters that two or more channels of the system hold."""
    held = collections.Counter(a for ch in system.channels for a in ch)
    return sorted(a for a, k in held.items() if k > 1)


def test_max_clique_searches_only_the_letters_two_channels_share(monkeypatch):
    # the pendant letters lie in one channel each, so the search leaves them
    # out; the 2-set on two of them makes those two shared, and the shared
    # letters outnumber the channel, so the search runs
    built = _spy_masks(monkeypatch)
    m = 300
    system = ChannelSystem(2 * m, [range(1, m + 1)] + [[a, m + a] for a in range(1, m + 1)]
                           + [[m + 1, m + 2]])
    assert max_clique(system) == frozenset(range(1, m + 1))
    assert built == [list(range(1, m + 3))] == [_shared_letters(system)]


def test_max_clique_stops_before_the_masks_when_the_shared_letters_cannot_win(monkeypatch):
    # the pendant system's m shared letters only tie its m-letter channel,
    # and all of them together come no earlier in letter order
    built = _spy_masks(monkeypatch)
    m = 300
    system = ChannelSystem(2 * m, [range(1, m + 1)] + [[a, m + a] for a in range(1, m + 1)])
    assert max_clique(system) == frozenset(range(1, m + 1))
    assert built == []


# classification


def test_classify_single_channel():
    assert classify(ChannelSystem(4, [[1, 2, 3, 4]])) == SingleChannel(size=4)
    assert classify(ChannelSystem(4, [[2, 3]])) == SingleChannel(size=2)


def test_classify_reducible():
    cls = classify(ChannelSystem(4, [[1, 2], [1, 2, 3]]))
    assert isinstance(cls, Reducible)
    assert cls.reduced.channels == (frozenset({1, 2, 3}),)


def test_classify_separable():
    cls = classify(ChannelSystem(4, [[1, 2], [3, 4]]))
    assert isinstance(cls, Separable)
    assert len(cls.components) == 2


def test_classify_two_sets():
    cls = classify(ChannelSystem(4, [[1, 2], [1, 3, 4]]))
    assert cls == TwoSets(k=1, p1=1, p2=2)
    assert "sunflower_equivalent" not in class_dict(cls)
    sym = classify(ChannelSystem(3, [[1, 3], [2, 3]]))
    assert sym == TwoSets(k=1, p1=1, p2=1)
    assert class_dict(sym)["sunflower_equivalent"] == vars(Sunflower(k=1, p=1, t=2))


def test_classify_sunflower():
    assert classify(ChannelSystem(4, [[1, 2], [1, 3], [1, 4]])) == Sunflower(
        k=1, p=1, t=3
    )
    assert classify(
        ChannelSystem(8, [[1, 2, 3, 4], [1, 2, 5, 6], [1, 2, 7, 8]])
    ) == Sunflower(k=2, p=2, t=3)


def test_classify_sunflower_reproduces_definition():
    rng = random.Random(406)
    for _ in range(50):
        k = rng.randint(1, 3)
        p = rng.randint(1, 3)
        t = rng.randint(3, 5)
        letters = rng.sample(range(1, 21), k + t * p)
        core, rest = letters[:k], letters[k:]
        channels = [core + rest[i * p:(i + 1) * p] for i in range(t)]
        rng.shuffle(channels)
        system = ChannelSystem(20, channels)
        assert classify(system) == Sunflower(k=k, p=p, t=t)
        # and the class is faithful to the channels it came from
        chans = system.channels
        assert len(frozenset.intersection(*chans)) == k
        assert {len(c) for c in chans} == {k + p}
        assert all(
            u & v == frozenset.intersection(*chans)
            for u, v in itertools.combinations(chans, 2)
        )


def test_classify_path():
    assert classify(ChannelSystem(4, [[1, 2], [2, 3], [3, 4]])) == Path(t=3)
    # channel order never matters
    assert classify(ChannelSystem(4, [[3, 4], [1, 2], [2, 3]])) == Path(t=3)
    assert classify(ChannelSystem(5, [[2, 4], [4, 1], [1, 5], [5, 3]])) == Path(t=4)


def test_classify_cycle():
    assert classify(ChannelSystem(4, [[1, 2], [2, 3], [3, 4], [4, 1]])) == Cycle(t=4)
    assert classify(
        ChannelSystem(5, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]])
    ) == Cycle(t=5)


def test_classify_triangle_is_full_clique_only_on_tight_alphabet():
    # over q=3 the three pairs cover every pair of letters
    assert classify(ChannelSystem(3, [[1, 2], [2, 3], [1, 3]])) == FullClique()
    # over q=4 letter 4 pairs with nothing, so no formula applies
    assert classify(ChannelSystem(4, [[1, 2], [2, 3], [1, 3]])) == General()


def test_classify_full_clique_from_overlapping_triples():
    cls = classify(ChannelSystem(4, [[1, 2, 3], [1, 2, 4], [3, 4, 1]]))
    assert cls == FullClique()


def test_classify_general():
    # a 3-star plus a far edge: neither sunflower nor path nor cycle
    cls = classify(ChannelSystem(5, [[1, 2], [1, 3], [1, 4], [4, 5]]))
    assert cls == General()


def test_classify_order_stable():
    channels = [[1, 2], [1, 3], [1, 4]]
    expected = classify(ChannelSystem(4, channels))
    for perm in itertools.permutations(channels):
        assert classify(ChannelSystem(4, perm)) == expected


def test_classify_sunflower_is_not_quadratic():
    # 3,000 petals around letter 1: one degree profile, no pairwise scan
    system = ChannelSystem(3001, [[1, i] for i in range(2, 3002)])
    start = time.perf_counter()
    cls = classify(system)
    elapsed = time.perf_counter() - start
    assert cls == Sunflower(k=1, p=1, t=3000)
    assert elapsed < 0.25, f"{elapsed:.2f} s"


def test_sunflower_needs_common_core():
    # pairwise intersections exist but differ, so not a sunflower
    cls = classify(ChannelSystem(6, [[1, 2, 3], [3, 4, 5], [5, 6, 1]]))
    assert cls == General()


# method name -> (system, its class)
SHAPES = {
    "two_sets": (ChannelSystem(4, [[1, 2], [1, 3, 4]]), TwoSets(k=1, p1=1, p2=2)),
    "sunflower": (ChannelSystem(4, [[1, 2], [1, 3], [1, 4]]), Sunflower(k=1, p=1, t=3)),
    "path": (ChannelSystem(4, [[1, 2], [2, 3], [3, 4]]), Path(t=3)),
    "cycle": (ChannelSystem(4, [[1, 2], [2, 3], [3, 4], [4, 1]]), Cycle(t=4)),
}


class _PairsGraphRead(Exception):
    pass


def _refuse_letter_classes(system):
    raise _PairsGraphRead


@pytest.mark.parametrize("method", SHAPES)
def test_shapes_are_read_off_the_channel_sets(monkeypatch, method):
    # the letter classes are the only way into the pairs graph
    monkeypatch.setattr(colorcap.systems, "_letter_classes", _refuse_letter_classes)
    system, expected = SHAPES[method]
    system = ChannelSystem(system.q, system.channels)  # an empty memo
    assert classify(system) == expected
    assert capacity(system).method == method


@pytest.mark.parametrize("channels", [
    [[1, 2], [2, 3], [1, 3]],
    [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]],
])
def test_full_clique_and_general_build_the_pairs_graph(monkeypatch, channels):
    # a full clique is told by its class keys; the General system fails the
    # check before them (letter 2's channels miss letter 4), so its class
    # map is first built by the clique search
    monkeypatch.setattr(colorcap.systems, "_letter_classes", _refuse_letter_classes)
    system = ChannelSystem(len({a for ch in channels for a in ch}), channels)
    if reference_classify(system) == General():
        assert classify(system) == General()
        with pytest.raises(_PairsGraphRead):
            max_clique(system)
    else:
        with pytest.raises(_PairsGraphRead):
            classify(system)


@pytest.mark.parametrize("channels", [
    [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]],
    [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3]],
])
def test_a_general_leaf_builds_its_letter_classes_once(monkeypatch, channels):
    # classify rules out a complete graph without the class map, and the
    # clique search builds it once for capacity and bounds together
    calls = _spy(monkeypatch, "_letter_classes")
    system = ChannelSystem(len({a for ch in channels for a in ch}), channels)
    assert classify(system) == General()
    capacity(system)
    bounds(system)
    assert len(calls) == 1


@pytest.mark.parametrize("channels", [
    [[1, 2], [1, 2, 3], [1, 4]],
    [[1, 2], [3, 4]],
    [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]],
])
def test_classify_builds_the_letter_map_once(monkeypatch, channels):
    # reduction, splitting and the shape tests share one letter map per level
    builds, build = [], colorcap.systems._holders
    monkeypatch.setattr(colorcap.systems, "_holders",
                        lambda system: builds.append(system) or build(system))
    system = ChannelSystem(5, channels)
    classify(system)
    assert builds == [system]


def test_only_the_clique_search_builds_a_class_graph(monkeypatch):
    # the trace counter ORs per-channel class masks of its own; only the
    # clique search builds the letter masks of the class graph
    built = _spy_masks(monkeypatch)
    system = ChannelSystem(5, [[1, 2, 3], [3, 4], [4, 5], [5, 1]])
    count_outputs(system, 4)
    assert built == []
    max_clique(system)
    assert built == [_shared_letters(system)]


@pytest.mark.parametrize("check, maps", [
    (bounds_general, 2), (lambda system: verify_pairs_equality(system, 3), 3),
], ids=["bounds_general", "verify_pairs_equality"])
def test_irreducibility_guards_build_the_letter_map_once(monkeypatch, check, maps):
    builds, build = [], colorcap.systems._holders
    # the trace counter builds its own letter map
    for module in (colorcap.systems, colorcap.oracle):
        monkeypatch.setattr(module, "_holders",
                            lambda system: builds.append(system) or build(system))
    # a separable system stops at the guard: one classify, one letter map
    split = ChannelSystem(5, [[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="irreducible"):
        check(split)
    assert builds == [split]
    # an irreducible one passes it on: classify, then the clique search or
    # the trace counter, and for the pairs equality the exhaustive counter
    system = ChannelSystem(5, [[1, 2, 3], [3, 4], [4, 5], [5, 1]])
    check(system)
    assert builds[1:] == [system] * maps


@pytest.mark.parametrize("check, what", [
    (bounds_general, "clique sandwich"),
    (lambda system: verify_pairs_equality(system, 3), "pairs equality"),
], ids=["bounds_general", "verify_pairs_equality"])
def test_irreducibility_guards_share_one_text(check, what):
    split = f"{what} expects an irreducible system; reduce and split it first"
    for channels, text in (([[1, 2, 3]], f"{what} needs at least two channels"),
                           ([[1], [1, 2]], split), ([[1, 2], [3, 4]], split)):
        with pytest.raises(ValueError) as info:
            check(ChannelSystem(4, channels))
        assert str(info.value) == text


def _spy(monkeypatch, name):
    """Record each system the named private worker of colorcap.systems runs on."""
    calls, worker = [], getattr(colorcap.systems, name)
    monkeypatch.setattr(colorcap.systems, name,
                        lambda system, *args: calls.append(system) or worker(system, *args))
    return calls


def _same_instances(calls, expected):
    return len(calls) == len(expected) and all(a is b for a, b in zip(calls, expected))


# a 5-cycle with one chord: General, with a clique of three
CHORDED = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3]]
# shapes on relabeled letters: no clique lies outside a channel
SUNFLOWER = [[8, 6, 1], [8, 6, 3], [8, 6, 2]]


def _walk(system):
    """The system and every system below it, in the order _dispatch visits them."""
    cls = classify(system)
    below = ([cls.reduced] if isinstance(cls, Reducible)
             else cls.components if isinstance(cls, Separable) else [])
    return [system] + [part for child in below for part in _walk(child)]


def test_classify_and_clique_run_once_per_instance(monkeypatch):
    classified = _spy(monkeypatch, "_classify")
    searched = _spy(monkeypatch, "_max_clique")
    built = _spy_masks(monkeypatch)
    for q, channels, top in [
        (5, CHORDED, General),
        # the channel [1] is dominated, over a Separable of two Generals
        (10, CHORDED + [[a + 5 for a in ch] for ch in CHORDED] + [[1]], Reducible),
        (7, [[6, 2, 5], [5, 3, 1, 7]], TwoSets),
        (8, SUNFLOWER, Sunflower),
        (5, [[3, 5], [5, 1], [1, 4], [4, 2]], Path),
        (6, [[2, 4], [4, 1], [1, 6], [6, 3], [3, 2]], Cycle),
        (8, SUNFLOWER + [[6, 8]], Reducible),
        # two-set and path components
        (8, [[1, 2, 3], [3, 4], [5, 6], [6, 7], [7, 8]], Separable),
    ]:
        classified.clear()
        searched.clear()
        built.clear()
        system = ChannelSystem(q, channels)
        for _ in range(2):
            assert isinstance(classify(system), top)
            capacity(system)
            bounds(system)
            for leaf, _cls in _leaves(system):
                max_clique(leaf)
        # every system of the walk is classified once; every leaf takes its
        # clique once, and only General leaves build a class graph to search,
        # once each, on their shared letters
        leaves = _leaves(system)
        general = [leaf for leaf, cls in leaves if isinstance(cls, General)]
        assert _same_instances(classified, _walk(system))
        assert _same_instances(searched, [leaf for leaf, _cls in leaves])
        assert built == [_shared_letters(leaf) for leaf in general]


def test_equal_systems_compute_their_own_results(monkeypatch):
    classified = _spy(monkeypatch, "_classify")
    searched = _spy(monkeypatch, "_max_clique")
    a, b = ChannelSystem(5, CHORDED), ChannelSystem(5, CHORDED)
    assert a == b and a is not b
    assert classify(a) == classify(b) == General()
    assert max_clique(a) == max_clique(b) == frozenset({1, 2, 3})
    assert _same_instances(classified, [a, b])
    assert _same_instances(searched, [a, b])


def test_memo_is_invisible_to_the_record():
    system = ChannelSystem(5, CHORDED)
    before = (dict(vars(system)), hash(system), repr(system))
    classify(system)
    bounds(system)
    assert system._known  # filled
    assert (vars(system), hash(system), repr(system)) == before
    assert list(vars(system)) == ["q", "channels"]
    fresh = ChannelSystem(5, CHORDED)
    assert system == fresh and fresh == system
    assert len({system, fresh}) == 1


@st.composite
def small_systems(draw):
    """Systems with q <= 7 and t <= 6: arbitrary ones, and relabeled
    sunflowers, paths and cycles, which arbitrary draws seldom hit. A
    "clique" draw adds each letter pair that no channel holds as a channel
    of its own (t up to 27), so its pairs graph is complete. Three
    near-sunflowers (t >= 3) spoil the last channel of a sunflower: its
    petal is a letter short, or trades that letter for one of the first
    petal's, or the channel misses the first core letter."""
    q = draw(st.integers(2, 7))
    letters = draw(st.permutations(range(1, q + 1)))
    near = ["petal-short", "petal-overlap", "core-gap"]
    shape = draw(st.sampled_from(
        ["any", "clique"] + ["sunflower", "path"] * (q >= 3)
        + ["cycle", *near] * (q >= 4)))
    if shape == "sunflower" or shape in near:
        t_min = 3 if shape in near else 2
        short = shape in ("petal-short", "petal-overlap")
        room = q + short  # a last petal a letter short leaves one letter over
        k = draw(st.integers(1, room - t_min))
        p = draw(st.integers(1, (room - k) // t_min))
        t = draw(st.integers(t_min, min(6, (room - k) // p)))
        core = letters[:k]
        petals = [letters[k + i * p:k + i * p + p] for i in range(t)]
        if short:
            petals[-1] = petals[-1][:p - 1]
        if shape == "petal-overlap":
            petals[-1] += petals[0][:1]
        channels = [core + petal for petal in petals]
        if shape == "core-gap":
            channels[-1] = channels[-1][1:]
    elif shape == "path":
        t = draw(st.integers(2, min(6, q - 1)))
        channels = [letters[i:i + 2] for i in range(t)]
    elif shape == "cycle":
        t = draw(st.integers(4, min(6, q)))
        channels = [[letters[i], letters[(i + 1) % t]] for i in range(t)]
    else:
        channel = st.frozensets(st.integers(1, q), min_size=1, max_size=4)
        channels = draw(st.lists(channel, min_size=1, max_size=6))
        if shape == "clique":
            channels += [{a, b} for a, b in itertools.combinations(range(1, q + 1), 2)
                         if not any({a, b} <= ch for ch in channels)]
    return ChannelSystem(q, draw(st.permutations(channels)))


def _leaves(system):
    """(system, class) for every irreducible leaf below the system."""
    cls = classify(system)
    if isinstance(cls, Reducible):
        return _leaves(cls.reduced)
    if isinstance(cls, Separable):
        return [leaf for part in cls.components for leaf in _leaves(part)]
    return [(system, cls)]


@given(small_systems())
def test_no_shape_has_a_complete_pairs_graph(system):
    # classify tests the shapes before it reads the pairs graph, which is
    # sound only because of this: two sets, a sunflower's petals, a path's
    # ends and a cycle's s0, s2 each give two letters that share no channel.
    # Both directions of classify's full-clique test (classes cover [q] and
    # pairwise share a channel) are checked against the brute-force pairs.
    for leaf, cls in _leaves(system):
        complete = len(pairs(leaf)) == leaf.q * (leaf.q - 1) // 2
        if isinstance(cls, (TwoSets, Sunflower, Path, Cycle)):
            assert not complete
        if isinstance(cls, FullClique):
            assert complete
        if complete:
            assert isinstance(cls, (FullClique, SingleChannel))


@settings(max_examples=400)  # a petal overlap of equal size needs q >= 6
@given(small_systems())
def test_split_and_classify_match_the_reference(system):
    # the group merge, the core intersection with its pairwise scan, and
    # degrees counted channel by channel give the same split and classes
    assert [part.channels for part in separable_split(system)] == [
        part.channels for part in reference_separable_split(system)]
    assert classify(system) == reference_classify(system)
    for leaf, cls in _leaves(system):
        assert cls == reference_classify(leaf)


@st.composite
def visible_systems(draw):
    """Irreducible systems over [q], 3 <= q <= 7, in which every letter lies
    in some channel.  Either random channels, each letter left out joining
    one of them; or two channels meeting in letter 1 and holding [q]
    between them, then 2-sets across them that hold every other letter:
    letter 1 is among the least held and its channels hold every letter,
    while the pairs graph is complete only with every such 2-set."""
    q = draw(st.integers(3, 7))
    if draw(st.booleans()):
        channel = st.sets(st.integers(1, q), min_size=2, max_size=q - 1)
        channels = draw(st.lists(channel, min_size=3, max_size=7))
        for a in set(range(1, q + 1)).difference(*channels):
            channels[draw(st.integers(0, len(channels) - 1))].add(a)
    else:
        left = draw(st.sets(st.integers(2, q), min_size=1, max_size=q - 2))
        right = set(range(2, q + 1)) - left
        across = [{a, b} for a in sorted(left) for b in sorted(right)]
        cover = [draw(st.sampled_from([ab for ab in across if a in ab]))
                 for a in range(2, q + 1)]
        channels = [{1} | left, {1} | right] + cover + draw(
            st.lists(st.sampled_from(across), unique_by=frozenset))
    system = remove_dominated(ChannelSystem(q, channels))
    assume(system.t > 2 and len(separable_split(system)) == 1)
    return system


@settings(max_examples=400)
@given(visible_systems())
# letter 1's channels hold all five letters, yet 3 and 4 share no channel
@example(ChannelSystem(5, [[1, 2, 3], [1, 4, 5], [2, 4], [3, 5], [2, 5]]))
@example(ChannelSystem(4, [[1, 2, 3], [1, 2, 4], [3, 4, 1]]))
def test_full_clique_verdict_matches_the_reference(system):
    # the check before the class keys only ever answers General when the
    # pairs graph is incomplete
    assert classify(system) == reference_classify(system)


@settings(max_examples=400)
@given(small_systems())
def test_max_clique_matches_brute_force(system):
    # the same clique, tie-break included, as trying every subset of [q]
    assert max_clique(system) == brute_max_clique(system)
