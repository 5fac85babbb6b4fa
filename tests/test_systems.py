import inspect
import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
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
    bounds_general,
    capacity,
    classify,
    count_outputs,
    edge_system,
    max_clique,
    remove_dominated,
    separable_split,
    verify_pairs_equality,
)
from helpers import (
    brute_max_clique, pairs, reference_classify, reference_remove_dominated,
    reference_separable_split, restrict_alphabet,
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
    assert remove_dominated(once) == once


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
    # a channel is only looked up against the holders of its least-held letter
    system = ChannelSystem(5000, [[i, i + 1] for i in range(1, 5000)] + [[1, 3]])
    start = time.perf_counter()
    reduced = remove_dominated(system)
    elapsed = time.perf_counter() - start
    assert reduced.channels == system.channels
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
            assert not (a.letters & b.letters)


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


def test_clique_number_edgeless():
    assert max_clique(ChannelSystem(3, [[2], [3]])) == frozenset({1})


def test_max_clique_memory_follows_edges_not_alphabet():
    system = ChannelSystem(10**5, [[1, 2], [2, 3], [1, 3], [1, 4]])
    tracemalloc.start()
    try:
        clique = max_clique(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clique == frozenset({1, 2, 3})
    assert peak < 10**6


def test_max_clique_memory_stays_flat_over_many_maximal_cliques():
    # K_24 minus a perfect matching has 2^12 maximal cliques, all of size 12
    matching = {(a, a + 1) for a in range(1, 24, 2)}
    edges = set(itertools.combinations(range(1, 25), 2)) - matching
    system = ChannelSystem(24, sorted(edges))
    tracemalloc.start()
    try:
        clique = max_clique(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clique == frozenset(range(1, 25, 2))
    assert peak < 10**6


def test_max_clique_does_not_recurse_per_clique_letter():
    # one 300-letter channel closed into a triangle by letter 301
    system = ChannelSystem(301, [range(1, 301), [300, 301], [301, 1]])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    tracemalloc.start()
    try:
        clique = max_clique(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(limit)
    assert clique == frozenset(range(1, 301))
    assert peak < 10**6


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
    assert cls.sunflower_equivalent is None
    sym = classify(ChannelSystem(3, [[1, 3], [2, 3]]))
    assert sym == TwoSets(k=1, p1=1, p2=1)
    assert sym.sunflower_equivalent == Sunflower(k=1, p=1, t=2)


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
    assert classify(system) == expected
    assert capacity(system).method == method


@pytest.mark.parametrize("channels", [
    [[1, 2], [2, 3], [1, 3]],
    [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]],
])
def test_full_clique_and_general_build_the_pairs_graph(monkeypatch, channels):
    monkeypatch.setattr(colorcap.systems, "_letter_classes", _refuse_letter_classes)
    system = ChannelSystem(len({a for ch in channels for a in ch}), channels)
    with pytest.raises(_PairsGraphRead):
        classify(system)


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


def test_clique_and_trace_counter_read_one_class_graph(monkeypatch):
    graphs, graph = [], colorcap.systems._class_graph

    def spy(system):
        graphs.append(system)
        return graph(system)

    for module in (colorcap.systems, colorcap.oracle):
        monkeypatch.setattr(module, "_class_graph", spy)
    system = ChannelSystem(5, [[1, 2, 3], [3, 4], [4, 5], [5, 1]])
    count_outputs(system, 4)
    assert graphs == [system]
    graphs.clear()
    max_clique(system)
    assert graphs == [system]


@pytest.mark.parametrize("check", [
    bounds_general, lambda system: verify_pairs_equality(system, 3),
], ids=["bounds_general", "verify_pairs_equality"])
def test_irreducibility_guards_build_the_letter_map_once(monkeypatch, check):
    builds, build = [], colorcap.systems._holders
    monkeypatch.setattr(colorcap.systems, "_holders",
                        lambda system: builds.append(system) or build(system))
    # a separable system stops at the guard: one classify, one letter map
    split = ChannelSystem(5, [[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="irreducible"):
        check(split)
    assert builds == [split]
    # an irreducible one passes it on to one class graph
    system = ChannelSystem(5, [[1, 2, 3], [3, 4], [4, 5], [5, 1]])
    check(system)
    assert builds.count(system) == 2


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


@given(small_systems())
def test_max_clique_matches_brute_force(system):
    # the same clique, tie-break included, as trying every subset of [q]
    assert max_clique(system) == brute_max_clique(system)
