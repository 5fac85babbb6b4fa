"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines for
passing criteria too; without -s they surface only on failure.
"""

import itertools
import math
import random
import time

from colorcap import (
    ChannelSystem,
    apply_channel,
    bounds_cycle,
    bounds_general,
    capacity,
    capacity_path,
    capacity_sunflower,
    capacity_two_sets,
    count_outputs,
    path_profile,
    reconstruct_view,
    separable_split,
)
from colorcap.cli import TABLE_SYSTEMS
from helpers import (
    chebyshev_U,
    chebyshev_W,
    composition_count_path,
    composition_count_sunflower,
    compositions,
    edge_system,
    irreducible_families,
    visible_letters,
    reference_count,
    restrict_alphabet,
)


def _report(num, name, failures, elapsed, budget):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    detail = f"{elapsed:.2f}s/{budget:.0f}s"
    if failures:
        detail += "; " + failures[0]
        if len(failures) > 1:
            detail += f"; +{len(failures) - 1} more"
    print(f"\n[criterion {num}] {name}: {status} ({detail})")
    assert not failures, failures
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_table_reproduction():
    targets = {
        "q3": [1.0, 0.87604],
        "q4": [
            1.0,
            0.94998,
            (0.79248, 0.94998),
            0.88578,
            # The paper's table prints 0.82720. The true value is
            # log_4(1/rho) with (1 - rho)^3 = rho, i.e. 0.8271946346...;
            # 0.82720 is that value rounded twice (to 0.827195, then 0.82720).
            0.82719,
            0.79248,
        ],
    }
    tol = 5e-6
    failures = []
    start = time.perf_counter()
    for which, expected in targets.items():
        for (q, channels), target in zip(TABLE_SYSTEMS[which], expected):
            result = capacity(ChannelSystem(q, channels))
            if isinstance(target, tuple):
                got = (result.lower, result.upper)
                bad = any(abs(g - t) > tol for g, t in zip(got, target))
            else:
                got = result.value
                bad = abs(got - target) > tol
            if bad:
                failures.append(
                    f"{which} {channels}: computed {got} vs stated {target}"
                )
    elapsed = time.perf_counter() - start
    _report(1, "table reproduction", failures, elapsed, 1.0)


def test_criterion_2_pairs_graph_equality():
    # the theorem by brute force on both sides: the system and its edge
    # system, each counted word by word, agree, and count_outputs, which
    # reads only the pairs graph, gives the same count.  Many systems share
    # one edge system, so its counts are cached
    failures = []
    counts = {}

    def counted(system, n):
        key = (system.q, tuple(sorted(tuple(sorted(c)) for c in system.channels)), n)
        if key not in counts:
            counts[key] = reference_count(system, n)
        return counts[key]

    start = time.perf_counter()
    families = 0
    for q in (2, 3, 4):
        for system in irreducible_families(q):
            families += 1
            edges = edge_system(system)
            for n in range(1, 7):
                if not (reference_count(system, n) == counted(edges, n)
                        == count_outputs(system, n).count):
                    failures.append(
                        f"q={q} {sorted(map(sorted, system.channels))} n={n}"
                    )
    elapsed = time.perf_counter() - start
    assert families > 100  # exhaustiveness sanity: 4 at q=3, 99 at q=4
    _report(2, f"pairs-graph equality ({families} systems)", failures,
            elapsed, 600.0)


def test_criterion_3_composition_sums():
    cases = [
        ("sunflower(1,1,2)", ChannelSystem(3, [[1, 2], [1, 3]]),
         lambda n: sum(
             composition_count_sunflower(1, 1, 2, i, j1)
             for j1 in range(n + 1) for i in compositions(n - j1, 2)
         )),
        ("sunflower(2,1,2)", ChannelSystem(4, [[1, 2, 3], [1, 2, 4]]),
         lambda n: sum(
             composition_count_sunflower(2, 1, 2, i, j1)
             for j1 in range(n + 1) for i in compositions(n - j1, 2)
         )),
        ("path(3)", ChannelSystem(4, [[1, 2], [2, 3], [3, 4]]),
         lambda n: sum(
             composition_count_path(a) for a in compositions(n, 4)
         )),
    ]
    failures = []
    start = time.perf_counter()
    for name, system, formula in cases:
        for n in range(9):
            expected = formula(n)
            got = count_outputs(system, n).count
            if expected != got:
                failures.append(f"{name} n={n}: formula {expected}, oracle {got}")
    elapsed = time.perf_counter() - start
    _report(3, "composition sums vs oracle", failures, elapsed, 120.0)


def test_criterion_4_stationarity():
    failures = []
    start = time.perf_counter()
    for k in range(1, 7):
        for p in range(1, 7):
            for t in range(2, 7):
                if k + t * p > 16:
                    continue
                q = k + t * p
                y = capacity_sunflower(k, p, t, q).witness["y_star"]
                slope = (
                    math.log(p * t) + t * math.log1p(-y) - math.log(k)
                    - math.log(y) - (t - 1) * math.log1p(-(t - 1) * y / t)
                )
                if abs(slope / math.log(q)) > 1e-9:
                    failures.append(f"sunflower k={k} p={p} t={t}: {slope:.2e}")
    for k in range(1, 7):
        for p1 in range(1, 7):
            for p2 in range(1, 7):
                q = k + p1 + p2
                w = capacity_two_sets(k, p1, p2, q).witness
                x1, x2 = w["x1_star"], w["x2_star"]
                for xi, pi in ((x1, p1), (x2, p2)):
                    grad = (
                        math.log((1 - x1 - x2) ** 2 / (xi * (1 - xi)))
                        - math.log(k) + math.log(pi)
                    ) / math.log(q)
                    if abs(grad) > 1e-9:
                        failures.append(
                            f"two-sets k={k} p1={p1} p2={p2}: {grad:.2e}"
                        )
    for t in range(2, 31):
        m, r, _ = path_profile(t)
        if abs(r[-1] * (m - 1) - 1) > 1e-9:
            failures.append(f"path t={t}: endpoint {r[-1] * (m - 1) - 1:.2e}")
    elapsed = time.perf_counter() - start
    _report(4, "stationarity suite", failures, elapsed, 1.0)


def test_criterion_5_chebyshev_suite():
    failures = []
    start = time.perf_counter()
    for i in range(21):
        u, w = chebyshev_U(i, 1), chebyshev_W(i, 1)
        if not (isinstance(u, int) and u == i + 1):
            failures.append(f"U_{i}(1) = {u!r}")
        if not (isinstance(w, int) and w == 2 * i + 1):
            failures.append(f"W_{i}(1) = {w!r}")
    rng = random.Random(97)
    samples = 0
    while samples < 50:
        m = rng.uniform(0.05, 3.95)
        u = (m - 2) / 2
        r = [m - 1]
        for _ in range(8):
            r.append(((m - 1) * r[-1] - 1) / (r[-1] + 1))
        if any(abs(v) > 50 or abs(v + 1) < 1e-2 for v in r):
            continue  # float orbit ill-conditioned at the recursion's poles
        samples += 1
        for i in range(1, 5):
            expected = chebyshev_U(i, u) / chebyshev_U(i - 1, u)
            if not math.isclose(r[2 * i - 1], expected, rel_tol=1e-9, abs_tol=1e-9):
                failures.append(f"U ratio m={m:.6f} i={i}")
            expected = chebyshev_W(i + 1, u) / chebyshev_W(i, u)
            if not math.isclose(r[2 * i], expected, rel_tol=1e-9, abs_tol=1e-9):
                failures.append(f"W ratio m={m:.6f} i={i}")
    for i in range(1, 13):
        for k in range(1, i + 2):
            if i % 3 == 0 and 3 * k == 2 * i + 3:
                continue
            x = 2 + 2 * math.cos(2 * math.pi * k / (2 * i + 3))
            u = (x - 2) / 2
            if abs((x - 1) * chebyshev_U(i, u) - chebyshev_U(i - 1, u)) > 1e-9:
                failures.append(f"U root i={i} k={k}")
        for k in range(1, i + 1):
            if (i + 1) % 3 == 0 and 3 * k == 2 * (i + 1):
                continue
            x = 2 + 2 * math.cos(2 * math.pi * k / (2 * i + 2))
            u = (x - 2) / 2
            if abs((x - 1) * chebyshev_W(i, u) - chebyshev_W(i - 1, u)) > 1e-9:
                failures.append(f"W root i={i} k={k}")
    elapsed = time.perf_counter() - start
    _report(5, "Chebyshev identity suite", failures, elapsed, 1.0)


def test_criterion_6_consistency_cross_checks():
    failures = []
    start = time.perf_counter()
    for k in range(1, 7):
        for p in range(1, 7):
            if k + 2 * p > 16:
                continue
            q = k + 2 * p
            a = capacity_two_sets(k, p, p, q).value
            b = capacity_sunflower(k, p, 2, q).value
            if abs(a - b) > 1e-10:
                failures.append(f"two-sets vs sunflower k={k} p={p}: {a - b:.2e}")
    for q in range(4, 9):
        a = bounds_cycle(4, q).upper
        b = capacity_sunflower(2, 1, 2, q).value
        if abs(a - b) > 1e-9:
            failures.append(f"cycle-4 upper q={q}: {a - b:.2e}")
    exact_systems = [
        ChannelSystem(3, [[1, 3], [2, 3]]),
        ChannelSystem(4, [[1, 2, 3], [1, 3, 4]]),
        ChannelSystem(4, [[1, 2], [1, 3, 4]]),
        ChannelSystem(4, [[1, 2], [1, 3], [1, 4]]),
        ChannelSystem(4, [[1, 2], [2, 3], [3, 4]]),
        ChannelSystem(5, [[1, 2], [2, 3], [3, 4], [4, 5]]),
        ChannelSystem(7, [[1, 2, 3], [1, 4, 5], [1, 6, 7]]),
        ChannelSystem(3, [[1, 2], [2, 3], [1, 3]]),
    ]
    for system in exact_systems:
        result = capacity(system)
        if result.kind != "exact":
            failures.append(f"{sorted(map(sorted, system.channels))}: not exact")
            continue
        sandwich = bounds_general(system)
        if not (
            sandwich.lower - 1e-12 <= result.value <= sandwich.upper + 1e-12
        ):
            failures.append(
                f"{sorted(map(sorted, system.channels))}: {result.value} "
                f"outside [{sandwich.lower}, {sandwich.upper}]"
            )
    elapsed = time.perf_counter() - start
    _report(6, "consistency cross-checks", failures, elapsed, 60.0)


def test_criterion_7_reconstruction_round_trip():
    rng = random.Random(20250819)
    channels = [
        frozenset(c)
        for size in (2, 3, 4)
        for c in itertools.combinations(range(1, 5), size)
    ]
    failures = []
    start = time.perf_counter()
    for trial in range(1000):
        x = tuple(rng.randint(1, 4) for _ in range(50))
        for channel in channels:
            views = {
                frozenset(p): apply_channel(x, frozenset(p))
                for p in itertools.combinations(sorted(channel), 2)
            }
            if reconstruct_view(views, channel) != apply_channel(x, channel):
                failures.append(f"trial {trial} channel {sorted(channel)}")
    elapsed = time.perf_counter() - start
    _report(7, "reconstruction round-trip", failures, elapsed, 5.0)


def test_criterion_8_separability_convolution():
    rng = random.Random(11)
    failures = []
    start = time.perf_counter()
    for trial in range(20):
        q = rng.randint(3, 6)
        letters = list(range(1, q + 1))
        rng.shuffle(letters)
        cut = rng.randint(1, q - 1)
        channels = []
        for group in (letters[:cut], letters[cut:]):
            if len(group) == 1:
                channels.append(group)
                continue
            for i in range(len(group) - 1):
                channels.append(group[i : i + 2])
            for _ in range(rng.randint(0, 2)):
                channels.append(rng.sample(group, rng.randint(1, len(group))))
        rng.shuffle(channels)
        system = ChannelSystem(q, channels)
        parts = separable_split(system)
        if len(parts) != 2:
            failures.append(f"trial {trial}: generator made {len(parts)} parts")
            continue
        n = rng.randint(1, 7)

        def t_counts(component):
            if len(visible_letters(component)) < 2:
                return [1] * (n + 1)
            small = restrict_alphabet(component)
            return [count_outputs(small, i).count for i in range(n + 1)]

        t1, t2 = t_counts(parts[0]), t_counts(parts[1])
        expected = sum(t1[i] * t2[n - i] for i in range(n + 1))
        got = count_outputs(system, n).count
        if expected != got:
            failures.append(
                f"trial {trial} q={q} n={n}: convolution {expected}, oracle {got}"
            )
    elapsed = time.perf_counter() - start
    _report(8, "separability convolution", failures, elapsed, 60.0)
