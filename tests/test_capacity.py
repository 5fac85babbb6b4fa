"""Formula-level tests: closed forms, stationarity, and cross-identities.

The frozen reference values below were computed two independent ways
(high-precision root finding and exact big-integer growth-rate fits) before
being trusted here; they are not copied from the implementation under test.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorcap import (
    CapacityResult,
    ChannelSystem,
    bounds_cycle,
    capacity,
    capacity_path,
    capacity_single,
    capacity_sunflower,
    capacity_two_sets,
    path_profile,
)
from helpers import (
    chebyshev_U, chebyshev_W, entropy, path_objective, sunflower_objective,
    two_sets_objective,
)

# growth rate of ({1,3},{2,3}) over q=3 (and of any one-core pair of
# disjoint petals, modulo the log base)
STAR_2_Q3 = 0.8760357589718848
# ({1,2,3},{1,3,4}) over q=4: two shared letters
TWO_SHARED_Q4 = 0.949984313476496
# ({1,2},{1,3,4}) over q=4: unequal petals
UNEQUAL_Q4 = 0.885776651581806
# ({1,2},{1,3},{1,4}) over q=4: three petals on one core letter
STAR_3_Q4 = 0.8271946346183933
# ({1,2},{2,3},{3,4}) over q=4
PATH_3_Q4 = 0.7924812503605781


def test_entropy():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == 1.0
    assert math.isclose(entropy(0.11), 0.49992, abs_tol=5e-6)
    with pytest.raises(ValueError):
        entropy(-0.1)
    with pytest.raises(ValueError):
        entropy(1.1)


@given(st.floats(0.001, 0.999))
def test_entropy_symmetric(x):
    assert math.isclose(entropy(x), entropy(1 - x), abs_tol=1e-12)


def test_chebyshev_integer_values():
    # U_i(1) = i+1 and W_i(1) = 2i+1, exactly, with integer arithmetic
    for i in range(21):
        u = chebyshev_U(i, 1)
        w = chebyshev_W(i, 1)
        assert isinstance(u, int) and u == i + 1
        assert isinstance(w, int) and w == 2 * i + 1


def test_chebyshev_recurrence():
    for i in range(2, 15):
        for x in (-0.7, 0.3, 1.9):
            assert math.isclose(
                chebyshev_U(i, x),
                2 * x * chebyshev_U(i - 1, x) - chebyshev_U(i - 2, x),
                rel_tol=1e-12,
            )


def test_chebyshev_negative_index():
    with pytest.raises(ValueError):
        chebyshev_U(-1, 0.5)


def _ratio_orbit(m, count):
    """First `count` entries of r_0 = m-1, r_i = ((m-1) r_{i-1} - 1)/(r_{i-1}+1)."""
    r = [m - 1]
    for _ in range(count - 1):
        r.append(((m - 1) * r[-1] - 1) / (r[-1] + 1))
    return r


def test_chebyshev_ratio_solves_recursion():
    # r_{2i-1} = U_i(u)/U_{i-1}(u) and r_{2i} = W_{i+1}(u)/W_i(u) at
    # u = (m-2)/2; sampled away from the recursion's poles, where the
    # float orbit is well conditioned
    rng = random.Random(97)
    samples = 0
    while samples < 50:
        m = rng.uniform(0.05, 3.95)
        u = (m - 2) / 2
        r = _ratio_orbit(m, 9)
        if any(abs(v) > 50 or abs(v + 1) < 1e-2 for v in r):
            continue
        samples += 1
        for i in range(1, 5):
            expected = chebyshev_U(i, u) / chebyshev_U(i - 1, u)
            assert math.isclose(r[2 * i - 1], expected, rel_tol=1e-9, abs_tol=1e-9)
        for i in range(1, 5):
            expected = chebyshev_W(i + 1, u) / chebyshev_W(i, u)
            assert math.isclose(r[2 * i], expected, rel_tol=1e-9, abs_tol=1e-9)


def test_chebyshev_closed_form_roots():
    # U_i(u)/U_{i-1}(u) = 1/(x-1) at u = (x-2)/2 has solutions
    # x = 2 + 2cos(2πk/(2i+3)) for k = 1..i+1, except k = (2i+3)/3 when
    # 3 | i (there x = 1 and the right side blows up); the W_i/W_{i-1}
    # analogue uses 2i+2, k = 1..i, excluding k = 2(i+1)/3 when 3 | i+1
    for i in range(1, 13):
        for k in range(1, i + 2):
            if i % 3 == 0 and 3 * k == 2 * i + 3:
                continue
            x = 2 + 2 * math.cos(2 * math.pi * k / (2 * i + 3))
            u = (x - 2) / 2
            assert abs((x - 1) * chebyshev_U(i, u) - chebyshev_U(i - 1, u)) < 1e-9
        for k in range(1, i + 1):
            if (i + 1) % 3 == 0 and 3 * k == 2 * (i + 1):
                continue
            x = 2 + 2 * math.cos(2 * math.pi * k / (2 * i + 2))
            u = (x - 2) / 2
            assert abs((x - 1) * chebyshev_W(i, u) - chebyshev_W(i - 1, u)) < 1e-9


# closed-form capacities against frozen references


def test_single_channel():
    assert capacity_single(4, 4).value == 1.0
    assert math.isclose(capacity_single(2, 4).value, 0.5, abs_tol=1e-15)


def test_sunflower_reference_values():
    assert math.isclose(
        capacity_sunflower(1, 1, 2, 3).value, STAR_2_Q3, abs_tol=1e-12
    )
    assert math.isclose(
        capacity_sunflower(2, 1, 2, 4).value, TWO_SHARED_Q4, abs_tol=1e-12
    )
    assert math.isclose(
        capacity_sunflower(1, 1, 3, 4).value, STAR_3_Q4, abs_tol=1e-12
    )


def test_two_sets_reference_values():
    assert math.isclose(
        capacity_two_sets(1, 1, 1, 3).value, STAR_2_Q3, abs_tol=1e-12
    )
    assert math.isclose(
        capacity_two_sets(2, 1, 1, 4).value, TWO_SHARED_Q4, abs_tol=1e-12
    )
    result = capacity_two_sets(1, 1, 2, 4)
    assert math.isclose(result.value, UNEQUAL_Q4, abs_tol=1e-12)
    assert math.isclose(result.witness["x2_star"], 0.5, abs_tol=1e-12)


def test_path_reference_value():
    assert math.isclose(capacity_path(3, 4).value, PATH_3_Q4, abs_tol=1e-12)


def test_path_profile_small():
    m, r, alpha = path_profile(3)
    assert math.isclose(m, 3.0, abs_tol=1e-12)
    assert [round(x, 12) for x in r] == [2.0, 1.0, 0.5]
    assert [round(x, 12) for x in alpha] == [
        round(v, 12) for v in (1 / 6, 1 / 3, 1 / 3, 1 / 6)
    ]


def test_path_capacity_is_log_of_growth_constant():
    for t in range(2, 21):
        m, _, _ = path_profile(t)
        assert math.isclose(
            capacity_path(t, t + 1).value,
            math.log(m) / math.log(t + 1),
            abs_tol=1e-12,
        )


def test_path_two_matches_sunflower():
    for q in range(3, 9):
        assert math.isclose(
            capacity_path(2, q).value,
            capacity_sunflower(1, 1, 2, q).value,
            abs_tol=1e-15,
        )


def test_equal_petals_two_sets_match_sunflower():
    # both are log_q of one growth rate: I = 1 + (k + 2p) x + p^2 x^2
    for k in range(1, 8):
        for p in range(1, 8):
            q = k + 2 * p
            assert math.isclose(
                capacity_two_sets(k, p, p, q).value,
                capacity_sunflower(k, p, 2, q).value,
                abs_tol=1e-15,
            )


def test_paw_capacity_equals_its_growth_rate():
    # the paw and the 4-cycle share I = 1 + 4x + 2x^2, so the paw's exact
    # capacity log_4(2 + sqrt 2) lies in the 4-cycle's sandwich
    paw = capacity(ChannelSystem(4, [[1, 2], [1, 3, 4]]))
    assert paw.method == "two_sets"
    assert math.isclose(paw.value, UNEQUAL_Q4, abs_tol=1e-15)
    assert math.isclose(paw.value, math.log(2 + math.sqrt(2)) / math.log(4), abs_tol=1e-15)
    cycle = bounds_cycle(4, 4)
    assert cycle.lower <= paw.value <= cycle.upper


def test_sunflower_value_is_the_objective_at_its_witness():
    for k in range(1, 6):
        for p in range(1, 6):
            for t in range(1, 8):
                q = k + t * p
                res = capacity_sunflower(k, p, t, q)
                g = sunflower_objective(k, p, t, q, res.witness["y_star"])
                assert math.isclose(res.value, g, abs_tol=1e-12), (k, p, t)


def test_path_value_is_the_objective_at_its_witness():
    for t in range(2, 30):
        res = capacity_path(t, t + 1)
        g = path_objective(res.witness["alpha_star"], t + 1)
        assert math.isclose(res.value, g, abs_tol=1e-12), t


def test_sunflower_stationarity():
    # the petals' frequency at the growth rate's root must kill the
    # derivative of the paper's objective
    for k, p, t in [(1, 1, 2), (2, 1, 2), (1, 1, 3), (3, 2, 4), (1, 5, 2)]:
        q = k + t * p
        y = capacity_sunflower(k, p, t, q).witness["y_star"]
        h = 1e-7

        def g(yy, k=k, p=p, t=t, q=q):
            return sunflower_objective(k, p, t, q, yy)

        slope = (g(y + h) - g(y - h)) / (2 * h)
        assert abs(slope) < 1e-6


def test_sunflower_objective_concave_everywhere():
    # concavity on (0, 1) makes the stationary witness the maximum
    h = 1e-5
    for k, p, t in [(1, 1, 3), (2, 1, 2), (1, 3, 4), (3, 2, 5)]:
        q = k + t * p

        def g(yy, k=k, p=p, t=t, q=q):
            return sunflower_objective(k, p, t, q, yy)

        for i in range(1, 20):
            y = i / 20
            second = (g(y + h) - 2 * g(y) + g(y - h)) / h**2
            assert second < 0
        y = capacity_sunflower(k, p, t, q).witness["y_star"]
        second = (g(y + h) - 2 * g(y) + g(y - h)) / h**2
        assert second < 0


def test_two_sets_stationarity():
    for k, p1, p2 in [(1, 1, 2), (2, 3, 1), (4, 2, 5)]:
        q = k + p1 + p2
        res = capacity_two_sets(k, p1, p2, q)
        x1, x2 = res.witness["x1_star"], res.witness["x2_star"]

        def m_val(a, b, k=k, p1=p1, p2=p2, q=q):
            return two_sets_objective(k, p1, p2, q, a, b)

        h = 1e-7
        assert abs((m_val(x1 + h, x2) - m_val(x1 - h, x2)) / (2 * h)) < 1e-5
        assert abs((m_val(x1, x2 + h) - m_val(x1, x2 - h)) / (2 * h)) < 1e-5
        assert math.isclose(res.value, m_val(x1, x2), abs_tol=1e-12)


def _two_sets_hessian(a, b):
    # second derivatives of the objective in nats; the parameters k, p1, p2
    # only enter linearly so they drop out
    s = a + b - 2 * a * b - 1
    haa = s / (a * (1 - a) * (1 - a - b))
    hbb = s / (b * (1 - b) * (1 - a - b))
    hab = -2 / (1 - a - b)
    return haa, hbb, hab


def test_two_sets_hessian_negative_definite_interior():
    # objective is strictly concave on the open simplex
    rng = random.Random(7)
    for _ in range(100):
        a = rng.uniform(0.01, 0.97)
        b = rng.uniform(0.01, 0.99 - a)
        haa, hbb, hab = _two_sets_hessian(a, b)
        assert haa < 0
        assert hbb < 0
        assert haa * hbb - hab**2 > 0


def test_two_sets_hessian_matches_objective():
    k, p1, p2, q = 1, 1, 2, 4

    def m_val(a, b):
        return two_sets_objective(k, p1, p2, q, a, b)

    a, b = 0.2, 0.3
    h = 1e-4
    maa = (m_val(a + h, b) - 2 * m_val(a, b) + m_val(a - h, b)) / h**2
    mbb = (m_val(a, b + h) - 2 * m_val(a, b) + m_val(a, b - h)) / h**2
    mab = (
        m_val(a + h, b + h) - m_val(a + h, b - h)
        - m_val(a - h, b + h) + m_val(a - h, b - h)
    ) / (4 * h**2)
    haa, hbb, hab = _two_sets_hessian(a, b)
    scale = math.log(q)
    assert math.isclose(maa, haa / scale, rel_tol=1e-3)
    assert math.isclose(mbb, hbb / scale, rel_tol=1e-3)
    assert math.isclose(mab, hab / scale, rel_tol=1e-3)


def test_path_endpoint_identity():
    # the last ratio closes the recursion: r_{t-1} (m-1) = 1
    for t in range(2, 31):
        m, r, _ = path_profile(t)
        assert abs(r[-1] * (m - 1) - 1) < 1e-9


def test_path_alpha_is_distribution():
    for t in (2, 5, 9):
        _, r, alpha = path_profile(t)
        assert math.isclose(math.fsum(alpha), 1.0, abs_tol=1e-12)
        assert all(a > 0 for a in alpha)
        # alpha_i / alpha_{i-1} = r_{i-1}
        for i in range(1, t + 1):
            assert math.isclose(alpha[i] / alpha[i - 1], r[i - 1], rel_tol=1e-9)


def test_parameter_validation():
    with pytest.raises(ValueError):
        capacity_sunflower(0, 1, 2, 3)
    with pytest.raises(ValueError):
        capacity_sunflower(1, 1, 2, 2)  # needs q >= k + t p
    with pytest.raises(ValueError):
        capacity_two_sets(1, 0, 1, 3)
    with pytest.raises(ValueError):
        capacity_path(1, 4)
    with pytest.raises(ValueError):
        capacity_path(4, 4)  # needs q >= t + 1
    with pytest.raises(ValueError, match="alphabet size"):
        capacity_single(1, 1)
    with pytest.raises(ValueError, match="channel size"):
        capacity_single(0, 4)
    with pytest.raises(ValueError, match="channel size"):
        capacity_single(5, 4)
    with pytest.raises(ValueError, match="two sets with parameters"):
        capacity_two_sets(1, 1, 2, 3)  # needs q >= k + p1 + p2


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(2, 4), st.integers(0, 3)
)
def test_sunflower_capacity_monotone_in_q(k, p, t, extra):
    # growing the ambient alphabet only shrinks the normalized rate
    q = k + t * p
    small = capacity_sunflower(k, p, t, q).value
    large = capacity_sunflower(k, p, t, q + extra).value
    assert large <= small + 1e-12


# dispatcher


def test_capacity_result_validation():
    with pytest.raises(ValueError):
        CapacityResult("exact", "m", value=1.5)
    with pytest.raises(ValueError):
        CapacityResult("bounds", "m", lower=0.8, upper=0.7)
    with pytest.raises(ValueError, match="both endpoints"):
        CapacityResult("bounds", "m", lower=0.5)
    with pytest.raises(ValueError, match="kind must be"):
        CapacityResult("approx", "m", value=0.5)
    interval = CapacityResult("bounds", "m", lower=0.5, upper=0.9).interval()
    assert interval == (0.5, 0.9)
    assert CapacityResult("exact", "m", value=0.5).interval() == (0.5, 0.5)


def test_dispatch_single_and_formula_leaves():
    assert capacity(ChannelSystem(4, [[1, 2, 3, 4]])).value == 1.0
    r = capacity(ChannelSystem(4, [[1, 2], [2, 3], [3, 4]]))
    assert r.kind == "exact" and r.method == "path"
    assert math.isclose(r.value, PATH_3_Q4, abs_tol=1e-12)


def test_dispatch_reducible_drops_channels():
    full = capacity(ChannelSystem(4, [[1, 2], [1, 2, 3], [1, 4]]))
    assert full.kind == "exact"
    assert full.witness["removed_channels"] == [[1, 2]]


def test_dispatch_separable_takes_max():
    r = capacity(ChannelSystem(4, [[1, 2], [3, 4]]))
    assert r.kind == "exact"
    assert math.isclose(r.value, 0.5, abs_tol=1e-15)
    assert len(r.witness["components"]) == 2


def test_dispatch_separable_with_bound_component():
    # one component is a 4-cycle (bounds only), the other a wide channel
    system = ChannelSystem(
        9, [[1, 2], [2, 3], [3, 4], [4, 1], [5, 6, 7, 8, 9]]
    )
    r = capacity(system)
    assert r.kind == "bounds"
    assert r.lower >= math.log(5) / math.log(9) - 1e-12


def test_dispatch_separable_tie_goes_to_the_first_component():
    # the 4-cycle's lower end log_9 3 and the triple's log_9 3 are both 0.5
    r = capacity(ChannelSystem(9, [[1, 2], [2, 3], [3, 4], [4, 1], [5, 6, 7]]))
    lowers = [part["lower"] if part["kind"] == "bounds" else part["value"]
              for part in r.witness["components"]]
    assert lowers == [0.5, 0.5]
    assert r.witness["winner"] == 0


def test_dispatch_full_clique():
    r = capacity(ChannelSystem(3, [[1, 2], [2, 3], [1, 3]]))
    assert r.kind == "exact" and r.value == 1.0
