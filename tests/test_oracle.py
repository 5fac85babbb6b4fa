import itertools
import json
import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorcap import (
    BudgetExceededError,
    ChannelSystem,
    ReconstructionError,
    apply_channel,
    count_outputs,
    reconstruct_view,
    remove_dominated,
    separable_split,
    verify_pairs_equality,
)
from colorcap import oracle
from colorcap.oracle import count_sweep
from helpers import (
    composition_count_path,
    composition_count_sunflower,
    compositions,
    edge_system,
    irreducible_families,
    visible_letters,
    peak,
    reference_count,
    restrict_alphabet,
    run_cli,
)


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


def test_sweep_and_pairs_check_reject_a_negative_length():
    # a negative length used to give count_sweep an empty sweep, and a given
    # count sent verify_pairs_equality looking for it forever
    system = ChannelSystem(3, [[1, 2], [2, 3]])
    for call in (lambda: list(count_sweep(system, -3)),
                 lambda: verify_pairs_equality(system, -1)):
        with pytest.raises(ValueError, match="block length must be >= 0, got -"):
            call()
    assert list(count_sweep(system, 0)) == []


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
def test_counts_reject_a_non_integer_length(n):
    # 2.5 used to run forever: the count looked for length 2.5 among 0, 1, 2, ...
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4], [4, 1]])
    for call in (lambda: count_outputs(system, n), lambda: count_sweep(system, n),
                 lambda: verify_pairs_equality(system, n)):
        with pytest.raises(ValueError, match="block length must be an integer"):
            call()


@pytest.mark.parametrize("budget", [1e9, "100", -5, True])
def test_counts_reject_a_bad_budget(budget):
    # 1e9 and "100" used to fail on budget.bit_length(), -5 refused even 4^0
    # words, and True stood for a budget of one state
    system = ChannelSystem(4, [[1, 2], [2, 3], [3, 4], [4, 1]])
    for call in (lambda: count_outputs(system, 0, budget=budget),
                 lambda: count_sweep(system, 3, budget=budget),  # raises before iterating
                 lambda: verify_pairs_equality(system, 0, budget=budget)):
        with pytest.raises(ValueError, match="budget must be None or an integer >= 0"):
            call()


def test_budget_refusal():
    with pytest.raises(BudgetExceededError) as info:
        count_outputs(ChannelSystem(4, [[1, 2]]), 30, budget=10**6)
    assert (info.value.q, info.value.n) == (4, 30)
    assert info.value.limit == 10**6


def test_budget_refusal_at_huge_n_skips_the_power():
    # 3^(10^12) has about 4.8 * 10^11 digits: computing it would not finish
    with pytest.raises(BudgetExceededError, match=r"3\^1000000000000 words"):
        count_outputs(ChannelSystem(3, [[1, 2]]), 10**12)


def test_297_hidden_letters_of_q300_count_as_one():
    # letters in no channel are interchangeable, so only the visible ones
    # matter: the engine counts the 297 hidden letters of q = 300 as one
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
    # needs the state to carry the forbidden {2} across the letter 1; the
    # exhaustive counter meets the same systems, reducible and separable ones too
    subsets = [c for r in (1, 2, 3) for c in itertools.combinations([1, 2, 3], r)]
    for t in (1, 2, 3):
        for channels in itertools.product(subsets, repeat=t):
            system = ChannelSystem(3, channels)
            want = [reference_count(system, n) for n in range(5)]
            assert [r.count for r in count_sweep(system, 4)] == want[1:], channels
            sizes = [len(level) for _, level in zip(want, oracle._levels(system))]
            assert sizes == want, channels


def test_count_over_multibyte_letter_codes():
    # 300 visible letters, more than a byte can number: the reference keys
    # its outputs by tuples, the engine by letter classes
    system = ChannelSystem(300, [range(1, 281), range(200, 301)])
    for n in range(3):
        assert count_outputs(system, n).count == reference_count(system, n)
    # 66,000 visible letters: every letter still gives its own output
    wide = ChannelSystem(66_000, [range(1, 66_001), range(60_000, 66_001)])
    assert count_outputs(wide, 1).count == 66_000


@settings(max_examples=150, deadline=None)
@given(counting_cases())
def test_exhaustive_levels_match_word_by_word_reference(case):
    system, n = case
    sizes = [len(level) for _, level in zip(range(n + 1), oracle._levels(system))]
    assert sizes == [reference_count(system, i) for i in range(n + 1)]


@pytest.mark.parametrize("system, sep_width", [
    # 1 separator + 254 letters = 255 byte values, all but the delimiter: one byte for each
    (ChannelSystem(254, [range(1, 255)]), 1),
    # one letter more: separators of a 0 byte and an index, letter codes of two bytes
    (ChannelSystem(255, [range(1, 256)]), 2),
    (ChannelSystem(256, [range(1, 257)]), 2),
    (ChannelSystem(300, [range(1, 281), range(200, 301)]), 2),
    # 256 channels need two-byte separator indices too
    (ChannelSystem(257, [[i, i + 1] for i in range(1, 257)]), 3),
], ids=["one-byte-254", "wide-255", "wide-256", "wide-300", "path-256-channels"])
def test_exhaustive_levels_over_wide_alphabets_and_many_channels(system, sep_width):
    levels = oracle._levels(system)
    (empty,) = next(levels)
    assert len(empty) == sep_width * system.t
    sizes = [1] + [len(level) for _, level in zip(range(2), levels)]
    assert sizes == [count_outputs(system, n).count for n in range(3)]
    if system.t == 256:
        # two letters lose their order only when they share no channel
        assert sizes[2] == 257**2 - (math.comb(257, 2) - 256) == 33_409


@pytest.mark.parametrize("m, width", [
    (1, 1), (253, 1), (254, 1), (255, 2), (254**2, 2), (254**2 + 1, 3)])
def test_codes_are_distinct_of_one_width_and_avoid_the_reserved_bytes(m, width):
    codes = oracle._codes(m)
    assert len(set(codes)) == m
    assert {len(code) for code in codes} == {width}
    joined = b"".join(codes)
    assert b"\0" not in joined and oracle._DELIM not in joined


@pytest.mark.parametrize("chunk", [1, 3])
def test_exhaustive_levels_across_chunk_seams(monkeypatch, chunk):
    # chunks of one and three keys put a seam between nearly every pair of
    # keys, so a key lost or merged there shows on small systems
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    for system in (
        ChannelSystem(4, [[1, 2], [2, 3], [3, 4], [4, 1]]),
        ChannelSystem(4, [[1, 2], [1, 3], [1, 4]]),
        ChannelSystem(5, [[1, 2], [2, 3]]),  # letters 4 and 5 in no channel
    ):
        sizes = [len(level) for _, level in zip(range(6), oracle._levels(system))]
        assert sizes == [reference_count(system, n) for n in range(6)], system


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


def _exhaustive_count(system, n):
    return next(len(level) for i, level in enumerate(oracle._levels(system)) if i == n)


def test_count_memory_stays_near_one_level():
    # each level is emptied while the next is built, so the peak stays near
    # the largest level, which the word-by-word reference also holds
    system = ChannelSystem(4, [[1, 2, 3, 4]])
    _, exhaustive = peak(lambda: _exhaustive_count(system, 8))
    _, reference = peak(lambda: reference_count(system, 8))
    assert exhaustive <= 1.1 * reference


@pytest.mark.parametrize("channels", [
    [[1, 2], [2, 3], [3, 4], [4, 1]],
    [[1, 2], [1, 3], [1, 4]],
], ids=["cycle4", "star3"])
def test_exhaustive_memory_with_many_channels_stays_near_the_reference(channels):
    # every channel ends its view with a separator, one byte more per key
    # than the reference's; on these short keys that costs 3-6% of the peak
    system = edge_system(ChannelSystem(4, channels))
    _, exhaustive = peak(lambda: _exhaustive_count(system, 8))
    _, reference = peak(lambda: reference_count(system, 8))
    assert exhaustive <= 1.1 * reference


def test_engine_memory_stays_far_below_the_outputs():
    # a lossless system has one letter class and one automaton state, while
    # the reference holds all 4^8 outputs: the engine needs under 1% of that
    system = ChannelSystem(4, [[1, 2, 3, 4]])
    _, engine = peak(lambda: count_outputs(system, 8))
    _, reference = peak(lambda: reference_count(system, 8))
    assert engine <= reference / 100


def test_count_memory_on_the_pendant_system_stays_small():
    # one 2,000-letter channel and a 2-set from each of its letters to a
    # private letter: the channel's 2,000 classes are pairwise dependent,
    # about 130 MB as neighbour sets and about 6 MB as per-channel bitmasks
    m = 2000
    system = ChannelSystem(2 * m, [range(1, m + 1)] + [[a, m + a] for a in range(1, m + 1)])
    report, peak_bytes = peak(lambda: count_outputs(system, 1))
    assert report.count == 2 * m
    assert peak_bytes < 20_000_000


def test_reconstruct_memory_stays_near_the_views():
    # the views coded as bytes, one byte a symbol, one list of slots for the
    # word, one running list of gaps per letter and one view's runs at a
    # time, then the word as a tuple: 10^5 letters over 6 peak at about 2.2 MB
    rng = random.Random(6)
    channel = frozenset(range(1, 7))
    x = tuple(rng.choices(sorted(channel), k=100_000))
    views = _views(x, channel)
    _, peak_bytes = peak(lambda: reconstruct_view(views, channel))
    assert peak_bytes < 3_000_000


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


def test_pairs_equality_exhaustive_q3():
    families = list(irreducible_families(3))
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


def test_pairs_equality_reports_unequal_counts(monkeypatch):
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    assert verify_pairs_equality(system, 5)
    real = oracle.count_outputs
    monkeypatch.setattr(oracle, "count_outputs", lambda *args, **kwargs:
                        types.SimpleNamespace(count=real(*args, **kwargs).count + 1))
    assert not verify_pairs_equality(system, 5)


def test_pairs_equality_reports_an_unequal_exhaustive_count(monkeypatch):
    # the exhaustive side is the system's own: one extra key at every level
    # must make the check fail
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    assert verify_pairs_equality(system, 5)
    real = oracle._levels
    monkeypatch.setattr(oracle, "_levels", lambda counted: (
        level | {b"extra"} for level in real(counted)))
    assert not verify_pairs_equality(system, 5)


def test_pairs_equality_counts_its_own_argument_exhaustively(monkeypatch):
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    seen, real = [], oracle._levels
    monkeypatch.setattr(oracle, "_levels",
                        lambda counted: seen.append(counted) or real(counted))
    assert verify_pairs_equality(system, 4)
    assert len(seen) == 1 and seen[0] is system


def test_pairs_equality_takes_the_engine_count_and_still_checks_it(monkeypatch):
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    count = count_outputs(system, 5).count
    monkeypatch.setattr(oracle, "count_outputs", None)  # a given count is not recounted
    assert verify_pairs_equality(system, 5, count=count)
    assert not verify_pairs_equality(system, 5, count=count + 1)
    # the guard and the budget on the exhaustive count hold with a count too
    with pytest.raises(ValueError, match="pairs equality"):
        verify_pairs_equality(ChannelSystem(4, [[1, 2], [3, 4]]), 5, count=count)
    with pytest.raises(BudgetExceededError):
        verify_pairs_equality(system, 5, budget=4 ** 5 - 1, count=count)


@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
def test_verify_pairs_counts_the_system_once(monkeypatch, sweep):
    system = ChannelSystem(4, [[1, 2, 3], [2, 3, 4]])
    counted = []

    def spy(real, counter):
        def wrapper(counted_system, *args, **kwargs):
            counted.append((counter, counted_system.t))
            return real(counted_system, *args, **kwargs)
        return wrapper

    # the CLI imports its oracle functions when the command runs, so spies on
    # the oracle module reach it
    monkeypatch.setattr(oracle, "count_outputs", spy(oracle.count_outputs, "engine"))
    monkeypatch.setattr(oracle, "count_sweep", spy(oracle.count_sweep, "engine"))
    monkeypatch.setattr(oracle, "_levels", spy(oracle._levels, "exhaustive"))
    code, out, _ = run_cli(["enumerate", "--n", "6", "--verify-pairs", *sweep], system)
    assert code == 0 and json.loads(out)["pairs_equal"] is True
    # the system by the engine for the report, which the check reuses, then
    # the same 2-channel system exhaustively, once
    assert counted == [("engine", 2), ("exhaustive", 2)]


def test_verify_pairs_with_a_letter_in_no_channel():
    # letter 5 lies in no channel, so the exhaustive counter's step for it
    # changes no view
    system = ChannelSystem(5, [[1, 2], [2, 3], [3, 4], [4, 1]])
    code, out, _ = run_cli(["enumerate", "--n", "5", "--verify-pairs"], system)
    doc = json.loads(out)
    assert code == 0 and doc["pairs_equal"] is True
    last = doc["enumeration"][-1]
    assert (last["n"], last["count"]) == (5, "791")
    assert reference_count(system, 5) == 791


@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
def test_verify_pairs_on_wide_channels_with_a_letter_in_no_channel(sweep):
    # 3-letter channels, so the system is not its own edge system, and
    # letter 6 lies in no channel
    system = ChannelSystem(6, [[1, 2, 3], [3, 4, 5], [5, 1, 2]])
    code, out, _ = run_cli(["enumerate", "--n", "4", "--verify-pairs", *sweep], system)
    doc = json.loads(out)
    assert code == 0 and doc["pairs_equal"] is True
    assert doc["enumeration"][-1]["count"] == str(reference_count(system, 4))


def test_verify_pairs_after_a_cut_sweep_refuses_at_n():
    system = ChannelSystem(4, [[1, 2], [1, 3], [1, 4]])
    budget = ["--budget", str(4**7)]
    swept = run_cli(["enumerate", "--n", "8", "--sweep", "--verify-pairs", *budget], system)
    single = run_cli(["enumerate", "--n", "8", "--verify-pairs", *budget], system)
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
        for i in compositions(n - j1, t):
            total += composition_count_sunflower(k, p, t, i, j1)
    return total


def _path_sum(t, n):
    return sum(
        composition_count_path(a) for a in compositions(n, t + 1)
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
    code, out, _ = run_cli(["enumerate", "--n", str(n), "--sweep", *flags], system)
    assert code == 0
    return json.loads(out)


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
    if len(visible_letters(component)) < 2:
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


# letters on both sides of the byte boundary, and one that is not an int, so
# one channel can mix pairs coded by translate with pairs coded symbol by symbol
_LETTERS = (-1, 0, 1, 2, 2.5, 3, 4, 255, 256, 300)


@settings(max_examples=100)
@given(st.lists(st.sampled_from(_LETTERS), max_size=32).map(tuple), st.data())
def test_reconstruct_round_trip_property(x, data):
    size = data.draw(st.integers(2, 4))
    channel = frozenset(
        data.draw(
            st.permutations(_LETTERS).map(lambda p: tuple(p[:size]))
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


def _arrangements(letters, counts):
    """Every distinct word with counts[k] copies of letters[k]."""
    return set(itertools.permutations(
        [a for a, k in zip(letters, counts) for _ in range(k)]))


@pytest.mark.parametrize("letters, most", [((1, 2, 3), 2), ((1, 2, 3, 4), 1)])
def test_reconstruct_accepts_exactly_the_projections_of_a_word(letters, most):
    # every family of pair views with equal counts per letter, against a map
    # from each word's projections to the word
    channel = frozenset(letters)
    pairs = list(itertools.combinations(letters, 2))
    families = accepted = 0
    for counts in itertools.product(range(most + 1), repeat=len(letters)):
        count = dict(zip(letters, counts))
        source = {tuple(apply_channel(w, frozenset(p)) for p in pairs): w
                  for w in _arrangements(letters, counts)}
        for key in itertools.product(*(_arrangements(p, (count[p[0]], count[p[1]]))
                                       for p in pairs)):
            pair_views = {frozenset(p): v for p, v in zip(pairs, key)}
            if key in source:
                assert reconstruct_view(pair_views, channel) == source[key]
                accepted += 1
            else:
                with pytest.raises(ReconstructionError):
                    reconstruct_view(pair_views, channel)
            families += 1
    assert accepted < families


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


def _views(x, channel):
    return {frozenset(p): apply_channel(x, frozenset(p))
            for p in itertools.combinations(sorted(channel), 2)}


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_LETTERS), max_size=24).map(tuple), st.data())
def test_reconstruct_perturbed_views_are_rejected_or_reproduced(x, data):
    # whatever the views, a returned word must project onto every one of them;
    # a 2-letter channel has one view, always the projection of some word
    channel = frozenset(data.draw(
        st.sets(st.sampled_from(_LETTERS), min_size=3, max_size=5)))
    views = _views(x, channel)
    for _ in range(data.draw(st.integers(1, 2))):
        key = data.draw(st.sampled_from(sorted(views, key=sorted)))
        view = list(views[key])
        edit = data.draw(st.sampled_from(["delete", "insert", "swap", "foreign"]))
        i = data.draw(st.integers(0, len(view)))
        if edit == "delete" and view:
            del view[min(i, len(view) - 1)]
        elif edit == "insert":
            view.insert(i, data.draw(st.sampled_from(sorted(key))))
        elif edit == "swap":
            # the first neighbours from i on that differ change places
            turns = [k for k in range(len(view) - 1) if view[k] != view[k + 1]]
            if turns:
                k = next((k for k in turns if k >= i), turns[0])
                view[k], view[k + 1] = view[k + 1], view[k]
        elif edit == "foreign":
            view.insert(i, data.draw(st.sampled_from(
                [0, 5, -1, "1", 1.5, 255, 256, 2**70, True])))
        views[key] = tuple(view)
    try:
        word = reconstruct_view(views, channel)
    except ReconstructionError:
        return
    assert _views(word, channel) == views


def test_reconstruct_round_trip_letters_above_255():
    rng = random.Random(256)
    channel = frozenset({7, 255, 256, 1000, 70_000})
    x = tuple(rng.choices(sorted(channel), k=500))
    assert reconstruct_view(_views(x, channel), channel) == x


def test_reconstruct_round_trip_channel_of_200_letters():
    # ranks above 127 are codes outside ASCII
    rng = random.Random(200)
    channel = frozenset(range(1, 201))
    x = tuple(rng.choices(sorted(channel), k=300)) + (200, 1, 128, 127)
    assert reconstruct_view(_views(x, channel), channel) == x


@pytest.mark.parametrize("symbol, shown", [
    ([2], r"\[2\]"), ({3}, r"\{3\}"), (None, "None"),
    # a tuple is the symbols after the 1: the first foreign one in view order
    # is named, whether it is a byte or not
    ((9, 300), "9"), ((300, 9), "300"),
])
def test_reconstruct_names_an_unhashable_or_foreign_symbol(symbol, shown):
    tail = symbol if isinstance(symbol, tuple) else (symbol,)
    views = {frozenset({1, 2}): (1, *tail), frozenset({1, 3}): (1,),
             frozenset({2, 3}): ()}
    with pytest.raises(ReconstructionError,
                       match=rf"view for pair \(1, 2\) contains foreign symbol {shown}$"):
        reconstruct_view(views, frozenset({1, 2, 3}))


def test_reconstruct_negative_letter_does_not_alias_byte_255():
    # -1 would index a 256-byte table at its last entry, the code of 255, and
    # these views would pass for the projections of (-1, 2, 3)
    views = {frozenset({-1, 2}): (255, 2), frozenset({-1, 3}): (-1, 3),
             frozenset({2, 3}): (2, 3)}
    with pytest.raises(ReconstructionError,
                       match=r"view for pair \(-1, 2\) contains foreign symbol 255$"):
        reconstruct_view(views, frozenset({-1, 2, 3}))


def test_reconstruct_codes_a_symbol_equal_to_a_letter_but_unhashable():
    class One:
        __hash__ = None

        def __eq__(self, other):
            return other == 1

    views = {frozenset({1, 2}): (One(), 2, 2, One()), frozenset({1, 3}): (1, 3, 1),
             frozenset({2, 3}): (2, 3, 2)}
    assert reconstruct_view(views, frozenset({1, 2, 3})) == (1, 2, 3, 2, 1)

