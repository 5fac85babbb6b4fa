import math
import re

import pytest

from colorcap import (
    ChannelSystem,
    bounds,
    bounds_cycle,
    bounds_general,
    capacity,
    capacity_path,
    capacity_single,
    capacity_sunflower,
    count_outputs,
    max_clique,
)
from helpers import entropy, pairs, peak

# oracle counts for the 4-cycle over q=4, frozen from exhaustive enumeration
CYCLE_4_COUNTS = {
    4: 164,
    5: 560,
    6: 1912,
    7: 6528,
    8: 22288,
    9: 76096,
    10: 259808,
}


def test_general_bounds_path_3():
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4]])
    result = bounds_general(system)
    assert result.kind == "bounds"
    # clique number 2: log_4 2 = 0.5 below, and the e-factor cap saturates at 1
    assert math.isclose(result.lower, 0.5, abs_tol=1e-15)
    assert result.upper == 1.0
    assert result.witness["omega"] == 2


def test_general_lower_is_largest_clique_channel():
    # the lower bound is exactly the capacity of one channel the size of a
    # maximum clique in the pairs graph
    for q, channels in [
        (4, [[1, 2], [2, 3], [3, 4]]),
        (5, [[1, 2, 3], [3, 4, 5], [5, 1]]),
        (6, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1]]),
    ]:
        system = ChannelSystem(q, channels)
        omega = len(max_clique(system))
        result = bounds_general(system)
        assert result.lower == capacity_single(omega, q).value


def test_general_bounds_memory_follows_channels_not_pairs():
    # two sets whose pairs graph has ~30,000 edges: one 200-letter clique
    system = ChannelSystem(300, [range(1, 201), range(101, 301)])
    result, peak_bytes = peak(lambda: bounds(system))
    assert result.witness["omega"] == 200
    assert result.witness["clique"] == list(range(1, 201))
    assert peak_bytes < 10**6


def test_cycle_bounds_are_valid_intervals():
    for t in range(4, 9):
        for q in (t, t + 3):
            result = bounds_cycle(t, q)
            assert 0.0 < result.lower <= result.upper <= 1.0


def test_general_bounds_unsaturated_upper():
    # a single pair over a huge alphabet: upper = log_q(2 t e) < 1
    system = ChannelSystem(64, [[1, 2], [2, 3]])
    result = bounds_general(system)
    expected_upper = math.log(2 * 2 * math.e) / math.log(64)
    assert math.isclose(result.upper, expected_upper, abs_tol=1e-12)
    assert result.upper < 1.0


def test_general_bounds_requires_irreducible():
    with pytest.raises(ValueError):
        bounds_general(ChannelSystem(4, [[1, 2, 3, 4]]))
    with pytest.raises(ValueError):
        bounds_general(ChannelSystem(4, [[1, 2], [3, 4]]))


def test_cycle_bounds_four():
    result = bounds_cycle(4, 4)
    assert math.isclose(
        result.lower, capacity_path(3, 4).value, abs_tol=1e-15
    )
    # the 4-cycle's upper bound log_q(2 + sqrt 3) is the growth rate of two
    # triples sharing two letters, and the paper's entropy form of it
    s = math.sqrt(3.0)
    for q in range(4, 9):
        upper = bounds_cycle(4, q).upper
        assert math.isclose(upper, capacity_sunflower(2, 1, 2, q).value, abs_tol=1e-15)
        paper = (1 / s + (1 + 1 / s) * entropy(2 - s)) * math.log(2) / math.log(q)
        assert math.isclose(upper, paper, abs_tol=1e-12)


def test_cycle_bounds_long():
    result = bounds_cycle(7, 8)
    assert math.isclose(result.lower, capacity_path(6, 8).value, abs_tol=1e-15)
    assert math.isclose(result.upper, math.log(4) / math.log(8), abs_tol=1e-15)
    assert result.lower < result.upper


def test_cycle_bounds_rejects_triangle():
    with pytest.raises(ValueError, match="complete pairs graph"):
        bounds_cycle(3, 4)
    with pytest.raises(ValueError):
        bounds_cycle(5, 4)  # needs q >= t


@pytest.mark.parametrize("position", [0, 1], ids=["t", "q"])
@pytest.mark.parametrize("bad", [2.5, True, "3", 4.0],
                         ids=["float", "bool", "str", "whole_float"])
def test_cycle_bounds_refuse_non_integer_parameters(position, bad):
    args = [4, 4]
    bounds_cycle(*args)
    args[position] = bad
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        bounds_cycle(*args)


@pytest.mark.parametrize("t", [4.5, 3.0, 2, True])
def test_cycle_bounds_give_other_channel_counts_their_own_text(t):
    with pytest.raises(ValueError, match="channel count must be an integer >= 4") as info:
        bounds_cycle(t, 6)
    assert "complete pairs graph" not in str(info.value)


def test_cycle_empirical_sandwich():
    # exhaustive counts stay inside the proven interval at every length
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4], [4, 1]])
    result = bounds_cycle(4, 4)
    for n, expected in CYCLE_4_COUNTS.items():
        report = count_outputs(system, n)
        assert report.count == expected
        assert report.rate <= result.upper + 1e-12
    # the lower bound is asymptotic; by n = 10 the rate has cleared it
    last = math.log(CYCLE_4_COUNTS[10]) / (10 * math.log(4))
    assert last > result.lower


def test_bounds_dispatcher_matches_cycle():
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4], [4, 1]])
    via_dispatch = bounds(system)
    direct = bounds_cycle(4, 4)
    assert via_dispatch.interval() == direct.interval()


def test_bounds_dispatcher_ignores_formula_leaves():
    # capacity() gives the exact path value; bounds() gives only the sandwich
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4]])
    sandwich = bounds(system)
    exact = capacity(system)
    assert sandwich.kind == "bounds"
    assert sandwich.lower - 1e-12 <= exact.value <= sandwich.upper + 1e-12


def test_exact_methods_inside_general_bounds():
    # every formula value must respect the clique sandwich for its system
    cases = [
        ChannelSystem(3, [[1, 3], [2, 3]]),
        ChannelSystem(4, [[1, 2, 3], [1, 3, 4]]),
        ChannelSystem(4, [[1, 2], [1, 3, 4]]),
        ChannelSystem(4, [[1, 2], [1, 3], [1, 4]]),
        ChannelSystem(4, [[1, 2], [2, 3], [3, 4]]),
        ChannelSystem(6, [[1, 2, 3], [1, 4, 5], [1, 4, 6]]),
    ]
    for system in cases:
        exact = capacity(system)
        if exact.kind != "exact":
            continue
        sandwich = bounds_general(system)
        assert sandwich.lower - 1e-12 <= exact.value <= sandwich.upper + 1e-12


def test_count_is_monotone_in_the_pairs_graph():
    chains = [
        [[[1, 2], [2, 3]],
         [[1, 2], [2, 3], [3, 4]],
         [[1, 2], [2, 3], [3, 4], [4, 1]],
         [[1, 2, 3], [3, 4], [4, 1]],
         [[1, 2, 3, 4]]],
        [[[1, 2]],
         [[1, 2], [1, 3]],
         [[1, 2], [1, 3], [1, 4]],
         [[1, 2], [1, 3, 4]]],
    ]
    for chain in chains:
        systems = [ChannelSystem(4, channels) for channels in chain]
        for small, large in zip(systems, systems[1:]):
            assert pairs(small) <= pairs(large)
            for n in range(1, 7):
                assert count_outputs(small, n).count <= count_outputs(large, n).count
