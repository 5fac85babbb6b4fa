import contextlib
import io
import itertools
import json
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorcap import (
    BudgetExceededError,
    ChannelSystem,
    ReconstructionError,
    apply_channel,
    count_outputs,
    edge_system,
    reconstruct_view,
    remove_dominated,
    separable_split,
    verify_pairs_equality,
)
from colorcap import cli, oracle
from colorcap.cli import main
from colorcap.oracle import count_sweep
from helpers import (
    composition_count_path,
    composition_count_sunflower,
    reference_count,
    restrict_alphabet,
)


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def test_count_small_examples():
    assert count_outputs(ChannelSystem(3, [[1, 3], [2, 3]]), 2).count == 8
    assert count_outputs(ChannelSystem(2, [[1, 2]]), 5).count == 32
    assert count_outputs(ChannelSystem(4, [[1, 2, 3, 4]]), 0).count == 1


def test_count_two_singletons():
    # only the multiplicity pair (#1s, #2s) survives, so n+1 outputs
    system = ChannelSystem(2, [[1], [2]])
    for n in range(9):
        assert count_outputs(system, n).count == n + 1


def test_count_rate_and_elapsed():
    report = count_outputs(ChannelSystem(3, [[1, 3], [2, 3]]), 5)
    assert report.n == 5
    assert math.isclose(
        report.rate, math.log(report.count) / (5 * math.log(3)), abs_tol=1e-15
    )
    assert report.elapsed >= 0
    assert count_outputs(ChannelSystem(3, [[1, 2]]), 0).rate == 0.0


def test_count_rejects_negative_n():
    with pytest.raises(ValueError):
        count_outputs(ChannelSystem(2, [[1, 2]]), -1)


def test_budget_refusal():
    with pytest.raises(BudgetExceededError) as info:
        count_outputs(ChannelSystem(4, [[1, 2]]), 30, budget=10**6)
    assert info.value.states == 4**30
    assert info.value.limit == 10**6


def test_budget_refusal_at_huge_n_skips_the_power():
    # 3^(10^12) has about 4.8 * 10^11 digits: computing it would not finish
    with pytest.raises(BudgetExceededError, match=r"3\^1000000000000 words"):
        count_outputs(ChannelSystem(3, [[1, 2]]), 10**12)


def test_tuple_keys_above_255_letters():
    # letters in no channel are interchangeable, so only the visible ones matter
    wide = ChannelSystem(300, [[1, 2], [2, 300]])
    narrow = ChannelSystem(4, [[1, 2], [2, 3]])
    for n in range(3):
        assert count_outputs(wide, n).count == count_outputs(narrow, n).count


@st.composite
def counting_cases(draw):
    """(system, n): q <= 6 with n <= 5, q = 7 or 8 with n <= 4, or q = 300
    with n <= 2.  A draw may split the visible letters into two groups whose
    channels stay apart, so that the system is separable.  The draws leave
    letters in no channel, repeat a channel, nest a channel in another and
    add single-letter channels."""
    q = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 300]))
    visible = draw(st.lists(st.integers(1, q), min_size=1, max_size=min(q, 8),
                            unique=True))
    cut = draw(st.integers(1, len(visible)))
    channels = []
    for group in (visible[:cut], visible[cut:]):
        if group:
            subsets = st.lists(st.sampled_from(group), min_size=1, unique=True)
            channels += draw(st.lists(subsets, min_size=1, max_size=4))
    for extra in draw(st.lists(st.sampled_from(["duplicate", "nested", "single"]),
                               max_size=3)):
        base = draw(st.sampled_from(channels))
        if extra == "duplicate":
            channels.append(base)
        elif extra == "nested":
            channels.append(draw(st.lists(st.sampled_from(base), min_size=1, unique=True)))
        else:
            channels.append([draw(st.sampled_from(visible))])
    n = draw(st.integers(0, 5 if q <= 6 else 4 if q <= 8 else 2))
    return ChannelSystem(q, channels), n


@settings(max_examples=150, deadline=None)
@given(counting_cases())
def test_count_matches_word_by_word_reference(case):
    system, n = case
    want = [reference_count(system, i) for i in range(n + 1)]
    assert count_outputs(system, n).count == want[n]
    assert [r.count for r in count_sweep(system, n)] == want[1:]


def test_count_matches_reference_on_every_small_system():
    # every sequence of one to three channels over q = 3, so every order of
    # the letter classes the engine keys its states by; [{1}, {2}, {1, 3}]
    # needs the state to carry the forbidden {2} across the letter 1
    subsets = [c for r in (1, 2, 3) for c in itertools.combinations([1, 2, 3], r)]
    for t in (1, 2, 3):
        for channels in itertools.product(subsets, repeat=t):
            system = ChannelSystem(3, channels)
            assert [r.count for r in count_sweep(system, 4)] == [
                reference_count(system, n) for n in range(1, 5)], channels


def test_count_over_multibyte_letter_codes():
    # 300 visible letters: each takes a two-byte code in the keys
    system = ChannelSystem(300, [range(1, 281), range(200, 301)])
    for n in range(3):
        assert count_outputs(system, n).count == reference_count(system, n)
    # 66,000 visible letters need three-byte codes; distinct codes give
    # every letter its own output
    wide = ChannelSystem(66_000, [range(1, 66_001), range(60_000, 66_001)])
    assert count_outputs(wide, 1).count == 66_000


def test_count_sweep_matches_count_outputs():
    for q, channels, n in (
        (4, [[1, 2], [2, 3], [3, 4], [4, 1]], 7),
        (4, [[1, 2], [1, 3], [1, 4]], 7),
        (5, [[1, 2], [2, 3]], 6),  # letters 4 and 5 in no channel
        (6, [[1, 2], [3, 4]], 5),
    ):
        system = ChannelSystem(q, channels)
        reports = list(count_sweep(system, n))
        assert [r.n for r in reports] == list(range(1, n + 1))
        for r in reports:
            single = count_outputs(system, r.n)
            assert (r.count, r.rate) == (single.count, single.rate)
        elapsed = [r.elapsed for r in reports]
        assert elapsed == sorted(elapsed)


def test_count_sweep_refuses_at_the_first_length_over_budget():
    system = ChannelSystem(3, [[1], [2]])
    reports = []
    with pytest.raises(BudgetExceededError) as swept:
        for report in count_sweep(system, 12, budget=3**5):
            reports.append(report)
    assert [(r.n, r.count) for r in reports] == [(1, 3), (2, 6), (3, 10), (4, 15), (5, 21)]
    with pytest.raises(BudgetExceededError) as single:
        count_outputs(system, 6, budget=3**5)
    assert swept.value.n == single.value.n == 6
    assert str(swept.value) == str(single.value)


def _linear_recurrence(start, coefficients, n):
    """start extended to n + 1 terms by a_k = sum_j coefficients[j] a_(k-1-j)."""
    terms = list(start)
    while len(terms) <= n:
        terms.append(sum(c * a for c, a in zip(coefficients, reversed(terms))))
    return terms[:n + 1]


def test_count_cycle4_beyond_brute_force():
    # the trace counts of the 4-cycle: I(C4) = 1 + 4x + 2x^2 gives
    # T_n = 4 T_(n-1) - 2 T_(n-2); n = 10 is 4^10 words
    want = _linear_recurrence([1, 4], [4, -2], 1000)
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4], [4, 1]])
    assert [r.count for r in count_sweep(system, 10)] == want[1:11]
    assert want[10] == 259_808
    assert count_outputs(system, 1000, budget=4**1000).count == want[1000]


def test_count_sunflower_at_n_8():
    system = ChannelSystem(4, [[1, 2], [1, 3], [1, 4]])
    assert [r.count for r in count_sweep(system, 8)] == [
        4, 13, 41, 129, 406, 1278, 4023, 12664]
    # the pairs graph is the star K_(1,3), with trace counts 1/((1-z)^3 - z)
    want = _linear_recurrence([1, 4, 13], [4, -3, 1], 50)
    assert [r.count for r in count_sweep(system, 50, budget=4**50)] == want[1:]


def test_count_octahedron():
    # the eight triangles that take one letter of each of {1,2}, {3,4} and
    # {5,6}: the pairs graph is K_6 minus a perfect matching, whose trace
    # counts are 1/(1 - 6z + 3z^2)
    system = ChannelSystem(6, itertools.product([1, 2], [3, 4], [5, 6]))
    assert [count_outputs(system, n).count for n in range(7)] == [
        1, 6, 33, 180, 981, 5346, 29133]
    want = _linear_recurrence([1, 6], [6, -3], 40)
    assert count_outputs(system, 40, budget=6**40).count == want[40]


def test_count_wide_path():
    # 5,000 channels {i, i+1} on q = 5,001 letters: a word of two letters
    # loses only the order of two letters that share no channel
    q = 5_001
    system = ChannelSystem(q, [[i, i + 1] for i in range(1, q)])
    assert count_outputs(system, 1).count == q
    assert count_outputs(system, 2).count == q**2 - (math.comb(q, 2) - (q - 1))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _exhaustive_count(system, n):
    return next(len(level) for i, level in enumerate(oracle._levels(system)) if i == n)


def test_count_memory_stays_near_one_level():
    # each level is emptied while the next is built, so the peak stays near
    # the largest level, which the word-by-word reference also holds
    system = ChannelSystem(4, [[1, 2, 3, 4]])
    exhaustive = _peak_bytes(lambda: _exhaustive_count(system, 8))
    reference = _peak_bytes(lambda: reference_count(system, 8))
    assert exhaustive <= 1.1 * reference


def test_engine_memory_stays_far_below_the_outputs():
    # a lossless system has one letter class and one automaton state, while
    # the reference holds all 4^8 outputs: the engine needs under 1% of that
    system = ChannelSystem(4, [[1, 2, 3, 4]])
    engine = _peak_bytes(lambda: count_outputs(system, 8))
    reference = _peak_bytes(lambda: reference_count(system, 8))
    assert engine <= reference / 100


def test_dominated_removal_count_invariance():
    system = ChannelSystem(4, [[1, 2], [1, 2, 3], [3, 4]])
    reduced = remove_dominated(system)
    assert reduced.t == 2
    for n in range(7):
        assert (
            count_outputs(system, n).count == count_outputs(reduced, n).count
        )


def test_monotone_in_added_channel():
    # a finer system can only distinguish more
    base = ChannelSystem(4, [[1, 2], [3, 4]])
    finer = ChannelSystem(4, [[1, 2], [3, 4], [2, 3]])
    for n in range(1, 7):
        assert count_outputs(base, n).count <= count_outputs(finer, n).count


# pairs-graph equality


def _irreducible_families(q):
    letters = list(range(1, q + 1))
    subsets = []
    for r in range(1, q + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(letters, r))
    out = []
    for tsize in range(2, len(subsets) + 1):
        for combo in itertools.combinations(subsets, tsize):
            if any(a < b or b < a for a, b in itertools.combinations(combo, 2)):
                continue
            system = ChannelSystem(q, combo)
            if len(separable_split(system)) > 1:
                continue
            out.append(system)
    return out


def test_pairs_equality_exhaustive_q3():
    families = _irreducible_families(3)
    assert len(families) == 4
    for system in families:
        for n in range(1, 9):
            assert verify_pairs_equality(system, n)


def test_pairs_equality_named_q4_systems():
    for channels in (
        [[1, 2, 3], [2, 3, 4]],
        [[1, 2], [2, 3], [3, 4], [4, 1]],
        [[1, 2], [1, 3], [1, 4]],
        [[1, 2, 3], [1, 3, 4]],
    ):
        system = ChannelSystem(4, channels)
        for n in range(1, 9):
            assert verify_pairs_equality(system, n)


def test_pairs_equality_rejects_reducible():
    with pytest.raises(ValueError, match="at least two channels"):
        verify_pairs_equality(ChannelSystem(3, [[1, 2]]), 3)
    with pytest.raises(ValueError):
        verify_pairs_equality(ChannelSystem(3, [[1], [1, 2]]), 3)
    with pytest.raises(ValueError):
        verify_pairs_equality(ChannelSystem(4, [[1, 2], [3, 4]]), 3)


def test_pairs_equality_reads_a_given_count():
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    right = count_outputs(system, 5).count
    assert verify_pairs_equality(system, 5, count=right)
    assert not verify_pairs_equality(system, 5, count=right + 1)


def _enumerate(argv, system):
    """(exit code, stdout, stderr) of `colorcap enumerate` in this process."""
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(json.dumps(
        {"q": system.q, "channels": [sorted(c) for c in system.channels]}))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["enumerate", *argv])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
def test_verify_pairs_counts_the_system_once(monkeypatch, sweep):
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    counted = []

    def spy(real, counter):
        def wrapper(counted_system, *args, **kwargs):
            counted.append((counter, counted_system.t))
            return real(counted_system, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "count_outputs", spy(oracle.count_outputs, "engine"))
    monkeypatch.setattr(cli, "count_outputs", spy(cli.count_outputs, "engine"))
    monkeypatch.setattr(cli, "count_sweep", spy(cli.count_sweep, "engine"))
    monkeypatch.setattr(oracle, "_levels", spy(oracle._levels, "exhaustive"))
    code, out, _ = _enumerate(["--n", "6", "--verify-pairs", *sweep], system)
    assert code == 0 and json.loads(out)["pairs_equal"] is True
    # the system once by the engine, then its 5-edge system exhaustively
    assert counted == [("engine", 2), ("exhaustive", 5)]


def test_verify_pairs_with_a_letter_in_no_channel():
    # letter 5 lies in no channel, so the exhaustive counter's step for it
    # changes no view
    system = ChannelSystem(5, [[1, 2], [2, 3], [3, 4], [4, 1]])
    code, out, _ = _enumerate(["--n", "5", "--verify-pairs"], system)
    doc = json.loads(out)
    assert code == 0 and doc["pairs_equal"] is True
    last = doc["enumeration"][-1]
    assert (last["n"], last["count"]) == (5, "791")
    assert reference_count(system, 5) == 791


def test_verify_pairs_after_a_cut_sweep_refuses_at_n():
    system = ChannelSystem(4, [[1, 2], [1, 3], [1, 4]])
    budget = ["--budget", str(4**7)]
    swept = _enumerate(["--n", "8", "--sweep", "--verify-pairs", *budget], system)
    single = _enumerate(["--n", "8", "--verify-pairs", *budget], system)
    assert swept[0] == single[0] == 3
    assert swept[1] == single[1] == ""
    assert swept[2] == single[2] == (
        "error: enumerating 4^8 words exceeds the budget of 16384 states; "
        "raise the budget to force it\n")


def test_edge_system_counts_differ_before_reduction_boundary():
    # sanity: the equality is a fact about views, not a tautology; the
    # two systems have different channel counts yet identical output counts.
    # count_outputs reads only the pairs graph, so the edge system is
    # counted word by word
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    edges = edge_system(system)
    assert edges.t == 5
    assert count_outputs(system, 6).count == reference_count(edges, 6)


# composition counting


def test_composition_count_sunflower_examples():
    # one core letter, two single-letter petals: C(j1+i1,i1) C(j1+i2,i2)
    assert composition_count_sunflower(1, 1, 2, (1, 1), 1) == 4
    assert composition_count_sunflower(2, 3, 2, (0, 0), 2) == 4
    assert composition_count_sunflower(1, 2, 3, (1, 0, 2), 1) == 2**3 * 2 * 3


def test_composition_count_sunflower_validation():
    with pytest.raises(ValueError):
        composition_count_sunflower(1, 1, 2, (1,), 1)
    with pytest.raises(ValueError):
        composition_count_sunflower(1, 1, 2, (1, -1), 1)


def test_composition_count_path_examples():
    assert composition_count_path((1, 1)) == 2
    assert composition_count_path((2, 1, 2)) == 3 * 3
    with pytest.raises(ValueError):
        composition_count_path((3,))


def _sunflower_sum(k, p, t, n):
    total = 0
    for j1 in range(n + 1):
        for i in _compositions(n - j1, t):
            total += composition_count_sunflower(k, p, t, i, j1)
    return total


def _path_sum(t, n):
    return sum(
        composition_count_path(a) for a in _compositions(n, t + 1)
    )


def test_sunflower_composition_sum_matches_oracle():
    star = ChannelSystem(3, [[1, 2], [1, 3]])
    wide = ChannelSystem(4, [[1, 2, 3], [1, 2, 4]])
    for n in range(9):
        assert _sunflower_sum(1, 1, 2, n) == count_outputs(star, n).count
        assert _sunflower_sum(2, 1, 2, n) == count_outputs(wide, n).count


def test_path_composition_sum_matches_oracle():
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4]])
    for n in range(9):
        assert _path_sum(3, n) == count_outputs(system, n).count


def test_composition_sum_three_petals():
    system = ChannelSystem(4, [[1, 2], [1, 3], [1, 4]])
    for n in range(7):
        assert _sunflower_sum(1, 1, 3, n) == count_outputs(system, n).count


# sweep


def _sweep(system, n, *flags):
    """The JSON document of `colorcap enumerate --sweep` on the system."""
    stdin, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(json.dumps(
        {"q": system.q, "channels": [sorted(c) for c in system.channels]}))
    try:
        with contextlib.redirect_stdout(out):
            assert main(["enumerate", "--n", str(n), "--sweep", *flags]) == 0
    finally:
        sys.stdin = stdin
    return json.loads(out.getvalue())


def test_sweep_full_channel_rate_one():
    doc = _sweep(ChannelSystem(3, [[1, 2, 3]]), 6)
    assert [r["rate"] for r in doc["enumeration"]] == [1.0] * 6


def test_sweep_truncates_at_budget():
    doc = _sweep(ChannelSystem(3, [[1], [2]]), 12, "--budget", str(3**5))
    assert [r["n"] for r in doc["enumeration"]] == [1, 2, 3, 4, 5]
    assert [int(r["count"]) for r in doc["enumeration"]] == [3, 6, 10, 15, 21]
    assert doc["truncated"] is True


def test_sweep_rates_bounded_by_exact_value():
    # finite-n rates of the 3-path stay below capacity + slack; purely
    # observational, no convergence claimed
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4]])
    doc = _sweep(system, 8)
    assert all(r["rate"] <= 1.0 for r in doc["enumeration"])


# separable convolution


def _restricted_counts(component, n):
    if len(component.letters) < 2:
        return [1] * (n + 1)
    small = restrict_alphabet(component)
    return [count_outputs(small, i).count for i in range(n + 1)]


def _convolution_check(system, n):
    parts = separable_split(system)
    assert len(parts) == 2
    t1 = _restricted_counts(parts[0], n)
    t2 = _restricted_counts(parts[1], n)
    expected = sum(t1[i] * t2[n - i] for i in range(n + 1))
    return expected == count_outputs(system, n).count


def test_convolution_two_singletons():
    assert _convolution_check(ChannelSystem(2, [[1], [2]]), 5)


def test_convolution_pair_components():
    system = ChannelSystem(4, [[1, 2], [3, 4]])
    for n in range(8):
        assert _convolution_check(system, n)


def test_convolution_random_systems():
    rng = random.Random(20240817)
    for trial in range(20):
        q = rng.randint(3, 6)
        letters = list(range(1, q + 1))
        rng.shuffle(letters)
        cut = rng.randint(1, q - 1)
        groups = [letters[:cut], letters[cut:]]
        channels = []
        for group in groups:
            if len(group) == 1:
                channels.append(group)
                continue
            # a chain keeps the group connected and covered
            for i in range(len(group) - 1):
                channels.append(group[i : i + 2])
            for _ in range(rng.randint(0, 2)):
                size = rng.randint(1, len(group))
                channels.append(rng.sample(group, size))
        rng.shuffle(channels)
        system = ChannelSystem(q, channels)
        n = rng.randint(1, 7)
        assert _convolution_check(system, n), (q, channels, n)


def test_convolution_requires_every_letter_in_a_channel():
    # with a channel-free letter the word can hide symbols, and the identity
    # genuinely fails; this pins the precondition
    system = ChannelSystem(3, [[1], [2]])  # letter 3 invisible
    parts = separable_split(system)
    t1 = _restricted_counts(parts[0], 2)
    t2 = _restricted_counts(parts[1], 2)
    convolution = sum(t1[i] * t2[2 - i] for i in range(3))
    assert count_outputs(system, 2).count > convolution


# reconstruction


def test_reconstruct_three_letter_example():
    views = {
        frozenset({1, 2}): (1, 2),
        frozenset({1, 3}): (1, 3),
        frozenset({2, 3}): (2, 3),
    }
    assert reconstruct_view(views, frozenset({1, 2, 3})) == (1, 2, 3)


def test_reconstruct_single_pair_is_identity():
    views = {frozenset({1, 2}): (2, 1, 2, 1)}
    assert reconstruct_view(views, frozenset({1, 2})) == (2, 1, 2, 1)


def test_reconstruct_documented_round_trip():
    x = (3, 1, 2, 1)
    channel = frozenset({1, 2, 3})
    views = {
        frozenset(p): apply_channel(x, frozenset(p))
        for p in itertools.combinations(sorted(channel), 2)
    }
    assert views[frozenset({1, 2})] == (1, 2, 1)
    assert views[frozenset({1, 3})] == (3, 1, 1)
    assert views[frozenset({2, 3})] == (3, 2)
    assert reconstruct_view(views, channel) == x


def test_reconstruct_missing_view():
    with pytest.raises(ReconstructionError, match="missing view"):
        reconstruct_view({frozenset({1, 2}): (1, 2)}, frozenset({1, 2, 3}))


@pytest.mark.parametrize("views, channel, error, message", [
    ({}, {1}, ValueError, "at least 2 letters"),
    ({(1, 2): (1, 2), (2, 1): (2, 1)}, {1, 2}, ReconstructionError, "duplicate pair keys"),
    ({(1, 2): (1, 2), (1, 3): (1, 3)}, {1, 2}, ReconstructionError,
     r"view for \(1, 3\) is not a pair of the channel"),
])
def test_reconstruct_rejects_malformed_input(views, channel, error, message):
    with pytest.raises(error, match=message):
        reconstruct_view(views, frozenset(channel))


def test_reconstruct_count_mismatch():
    views = {
        frozenset({1, 2}): (1, 2),
        frozenset({1, 3}): (1, 1, 3),  # two 1s here, one elsewhere
        frozenset({2, 3}): (2, 3),
    }
    with pytest.raises(ReconstructionError):
        reconstruct_view(views, frozenset({1, 2, 3}))


def test_reconstruct_cyclic_inconsistency():
    # pairwise orders 1<2, 2<3, 3<1 admit no word
    views = {
        frozenset({1, 2}): (1, 2),
        frozenset({2, 3}): (2, 3),
        frozenset({1, 3}): (3, 1),
    }
    with pytest.raises(ReconstructionError):
        reconstruct_view(views, frozenset({1, 2, 3}))


def test_reconstruct_foreign_symbol():
    views = {
        frozenset({1, 2}): (1, 9),
        frozenset({1, 3}): (1,),
        frozenset({2, 3}): (9,),
    }
    with pytest.raises(ReconstructionError):
        reconstruct_view(views, frozenset({1, 2, 3}))


@settings(max_examples=60)
@given(st.lists(st.integers(1, 4), max_size=24).map(tuple), st.data())
def test_reconstruct_round_trip_property(x, data):
    size = data.draw(st.integers(2, 4))
    channel = frozenset(
        data.draw(
            st.permutations(range(1, 5)).map(lambda p: tuple(p[:size]))
        )
    )
    views = {
        frozenset(p): apply_channel(x, frozenset(p))
        for p in itertools.combinations(sorted(channel), 2)
    }
    assert reconstruct_view(views, channel) == apply_channel(x, channel)


def _one_symbol_edits(view, pair):
    """Every view one deletion, insertion or adjacent swap away from `view`."""
    for i in range(len(view)):
        yield view[:i] + view[i + 1:]
    for i in range(len(view) + 1):
        for s in pair:
            yield view[:i] + (s,) + view[i:]
    for i in range(len(view) - 1):
        yield view[:i] + (view[i + 1], view[i]) + view[i + 2:]


def test_reconstruct_exhaustive_one_symbol_edits():
    # every word of length <= 5 over a 3-letter channel, with one view edited;
    # an edit changes a length by at most one, so words up to 6 letters hold
    # every view set that is the projections of some word
    channel = frozenset({1, 2, 3})
    pairs = list(itertools.combinations(sorted(channel), 2))

    def projections(w):
        return tuple(apply_channel(w, frozenset(p)) for p in pairs)

    source = {projections(w): w
              for n in range(7) for w in itertools.product(sorted(channel), repeat=n)}
    cases = 0
    for n in range(6):
        for w in itertools.product(sorted(channel), repeat=n):
            views = projections(w)
            for k, pair in enumerate(pairs):
                for edited in _one_symbol_edits(views[k], pair):
                    key = views[:k] + (edited,) + views[k + 1:]
                    pair_views = {frozenset(p): v for p, v in zip(pairs, key)}
                    if key in source:
                        assert reconstruct_view(pair_views, channel) == source[key]
                    else:
                        with pytest.raises(ReconstructionError):
                            reconstruct_view(pair_views, channel)
                    cases += 1
    assert cases > 10_000


def test_reconstruct_round_trip_long_word():
    rng = random.Random(20261018)
    channel = frozenset(range(1, 9))
    x = tuple(rng.choices(sorted(channel), k=10_000))
    views = {
        frozenset(p): apply_channel(x, frozenset(p))
        for p in itertools.combinations(sorted(channel), 2)
    }
    assert len(views) == 28
    assert reconstruct_view(views, channel) == x
