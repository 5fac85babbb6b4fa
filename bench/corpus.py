"""Seeded input generation for the benchmark workloads.

Everything here produces plain data (integers, lists, dicts) from a seed and
never imports colorcap: the program under test receives only these inputs.
Each generator draws from its own `random.Random`, so the same seed gives the
same inputs on every machine and Python version that keeps `random`'s
algorithm.
"""

from __future__ import annotations

import itertools
import random

# ---------------------------------------------------------------------------
# catalog: one system per operation, every structural class represented


def _shuffled(rng: random.Random, channels: list[list[int]]) -> list[list[int]]:
    out = [rng.sample(ch, len(ch)) for ch in channels]
    rng.shuffle(out)
    return out


# Shape generators draw their parameters from `shape` and their letters from
# `rng`.  Only `rng` follows the seed, so every seed gets the same multiset
# of shapes (and so the same mix of costs) on different letters.


def _single(shape, rng, letters):
    size = shape.randint(1, min(len(letters), 6))
    return [rng.sample(letters, size)], {"size": size}


def _two_sets(shape, rng, letters):
    k, p1, p2 = shape.randint(1, 3), shape.randint(1, 3), shape.randint(1, 3)
    s = rng.sample(letters, k + p1 + p2)
    core, a, b = s[:k], s[k:k + p1], s[k + p1:]
    return [core + a, core + b], {"k": k, "p1": p1, "p2": p2}


def _sunflower(shape, rng, letters):
    k, p, t = shape.randint(1, 3), shape.randint(1, 2), shape.randint(3, 5)
    s = rng.sample(letters, k + t * p)
    core = s[:k]
    return [core + s[k + i * p:k + (i + 1) * p] for i in range(t)], {"k": k, "p": p, "t": t}


def _path(shape, rng, letters):
    t = shape.randint(3, 8)
    s = rng.sample(letters, t + 1)
    return [[s[i], s[i + 1]] for i in range(t)], {"t": t}


def _cycle(shape, rng, letters):
    t = shape.randint(4, 10)
    s = rng.sample(letters, t)
    return [[s[i], s[(i + 1) % t]] for i in range(t)], {"t": t}


# letters each shape needs at most, so an alphabet can be sized up front
_NEEDS = {_single: 6, _two_sets: 9, _sunflower: 13, _path: 9, _cycle: 10}


def _structured(shape, rng, gen, extra_max):
    q = _NEEDS[gen] + shape.randint(0, extra_max)
    channels, params = gen(shape, rng, list(range(1, q + 1)))
    return q, channels, params


def _full_clique(shape, rng):
    q = shape.randint(3, 7)
    return q, [list(p) for p in itertools.combinations(range(1, q + 1), 2)], {}


def _separable(shape, rng):
    gens = [shape.choice([_single, _two_sets, _path, _cycle]) for _ in range(shape.randint(2, 3))]
    q = sum(_NEEDS[g] for g in gens) + shape.randint(0, 3)
    free = list(range(1, q + 1))
    rng.shuffle(free)
    channels = []
    for gen in gens:
        own, free = free[:_NEEDS[gen]], free[_NEEDS[gen]:]
        channels += gen(shape, rng, own)[0]
    return q, channels, {"components": len(gens)}


def _reducible(shape, rng):
    q, channels, _ = _structured(shape, rng, shape.choice([_two_sets, _sunflower, _path]), 3)
    host = channels[shape.randrange(len(channels))]
    dominated = rng.sample(host, shape.randint(1, len(host)))  # a subset or a duplicate
    channels.insert(rng.randrange(len(channels) + 1), dominated)
    return q, channels, {}


def _general(shape, rng, q_lo, q_hi, t_lo, t_hi, s_lo, s_hi):
    """Random equal-size channels over [q], each overlapping the one before.

    The structure comes from `shape` and the seed only relabels it: clique
    search cost depends on the structure, and it should not move with the
    seed.  The class is left to the program (it is usually General,
    sometimes reducible or separable); the checks that apply to every class
    still run.
    """
    q = shape.randint(q_lo, q_hi)
    size = shape.randint(s_lo, s_hi)
    channels = [shape.sample(range(1, q + 1), size)]
    for _ in range(shape.randint(t_lo, t_hi) - 1):
        anchor = shape.choice(channels[-1])
        rest = shape.sample([a for a in range(1, q + 1) if a != anchor], size - 1)
        channels.append([anchor] + rest)
    return q, relabel(rng, q, channels), {}


# (expected class type or None, weight, generator); the weights are per
# 100 systems and are what keeps the corpus mix, and so the timing mix, the
# same from seed to seed
_CATALOG_MIX = [
    ("single_channel", 8, lambda s, r: _structured(s, r, _single, 4)),
    ("full_clique", 8, _full_clique),
    ("two_sets", 10, lambda s, r: _structured(s, r, _two_sets, 3)),
    ("sunflower", 10, lambda s, r: _structured(s, r, _sunflower, 3)),
    ("path", 10, lambda s, r: _structured(s, r, _path, 3)),
    ("cycle", 10, lambda s, r: _structured(s, r, _cycle, 3)),
    ("separable", 10, _separable),
    ("reducible", 10, _reducible),
    (None, 9, lambda s, r: _general(s, r, 6, 12, 3, 6, 3, 5)),
    # the slowest systems (Bron-Kerbosch on q=24..40); more than 10 per 100,
    # so that p90 falls inside them and sees a change to clique search
    (None, 15, lambda s, r: _general(s, r, 24, 40, 10, 16, 5, 8)),
]

# the criterion-1 catalog, checked against committed display strings
TABLE_ROWS = {
    "q3": [(3, [[1, 2, 3]]), (3, [[1, 3], [2, 3]])],
    "q4": [
        (4, [[1, 2, 3, 4]]),
        (4, [[1, 2, 3], [1, 3, 4]]),
        (4, [[1, 2], [2, 3], [3, 4], [4, 1]]),
        (4, [[1, 2], [1, 3, 4]]),
        (4, [[1, 2], [1, 3], [1, 4]]),
        (4, [[1, 2], [2, 3], [3, 4]]),
    ],
}


def catalog_corpus(seed: int, hundreds: int = 4) -> list[dict]:
    """`hundreds` x 100 seeded systems in the fixed class mix, plus the table rows.

    Each entry: {"q", "channels", "expect" (class type or None),
    "params" (shape parameters), "table" ((which, row) or None)}.
    """
    shape, rng = random.Random("catalog-shapes"), random.Random(f"catalog:{seed}")
    out = []
    for expect, weight, gen in _CATALOG_MIX:
        for _ in range(weight * hundreds):
            q, channels, params = gen(shape, rng)
            out.append({"q": q, "channels": _shuffled(rng, channels),
                        "expect": expect, "params": params, "table": None})
    for which, rows in TABLE_ROWS.items():
        for i, (q, channels) in enumerate(rows):
            out.append({"q": q, "channels": channels, "expect": None,
                        "params": {}, "table": (which, i)})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# count: the enumeration ladder, relabeled per seed

# name -> (q, channels, largest n).  q^n of the largest step is at most
# about 2 * 10^4, so that the sets of outputs stay a few megabytes.  Larger
# sets make a sweep's time follow the load that other processes put on the
# machine's memory more than the code: five runs spread by 0.29 with sweeps
# to 10^6, and ten runs by 0.26 in p50_ms with sweeps to 6 * 10^4.
COUNT_SYSTEMS = {
    "lossless4": (4, [[1, 2, 3, 4]], 7),
    "cycle4": (4, [[1, 2], [2, 3], [3, 4], [4, 1]], 7),
    "cycle5": (5, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]], 6),
    "path2": (3, [[1, 2], [2, 3]], 9),
    "sunflower": (4, [[1, 2], [1, 3], [1, 4]], 7),
    "separable": (6, [[1, 2], [3, 4]], 5),
}

# name -> n for `enumerate --n N --verify-pairs` (irreducible systems only)
VERIFY_N = {"cycle4": 6, "cycle5": 5, "path2": 8, "sunflower": 6}

# a sweep that the budget cuts short: 4^7 fits, 4^8 is refused
REFUSAL = ("sunflower", 10, 20_000)


def relabel(rng: random.Random, q: int, channels: list[list[int]]) -> list[list[int]]:
    """Apply a random permutation of [q] and shuffle channel and letter order.

    Output counts are invariant under relabeling, so golden counts keyed by
    system name hold for every seed.
    """
    perm = list(range(1, q + 1))
    rng.shuffle(perm)
    return _shuffled(rng, [[perm[a - 1] for a in ch] for ch in channels])


def count_corpus(seed: int, scale: int = 0) -> list[dict]:
    """Operations of the count workload, each one `colorcap enumerate` call.

    `scale` lowers every largest n by that much (the smoke mode uses it).
    Entry: {"name", "system", "q", "channels", "argv" (without --input/--output),
    "n_max", "sweep", "verify", "budget"}.
    """
    rng = random.Random(f"count:{seed}")
    ops = []
    for name, (q, channels, n_max) in COUNT_SYSTEMS.items():
        n = n_max - scale
        ops.append({"name": f"sweep:{name}", "system": name, "q": q,
                    "channels": relabel(rng, q, channels), "n_max": n,
                    "argv": ["enumerate", "--sweep", "--n", str(n)],
                    "sweep": True, "verify": False, "budget": None})
    for name, n in VERIFY_N.items():
        q, channels, _ = COUNT_SYSTEMS[name]
        n -= scale
        ops.append({"name": f"verify:{name}", "system": name, "q": q,
                    "channels": relabel(rng, q, channels), "n_max": n,
                    "argv": ["enumerate", "--n", str(n), "--verify-pairs"],
                    "sweep": False, "verify": True, "budget": None})
    name, n, budget = REFUSAL
    q, channels, _ = COUNT_SYSTEMS[name]
    ops.append({"name": f"refusal:{name}", "system": name, "q": q,
                "channels": relabel(rng, q, channels), "n_max": n,
                "argv": ["enumerate", "--sweep", "--n", str(n), "--budget",
                         str(budget >> (2 * scale))],
                "sweep": True, "verify": False, "budget": budget >> (2 * scale)})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# reconstruct: random words and their pairwise views

RECONSTRUCT_LENGTHS = (1_000, 10_000, 100_000)
# runs per pass by length: the 10^3 and 10^4 words, where p50 and p90 fall,
# get many runs, and a pass stays short enough for several passes in a run
RECONSTRUCT_REPEAT = {1_000: 10, 10_000: 4}
RECONSTRUCT_LETTERS = (3, 4, 5, 6, 7, 8)
# channel sizes that run at the largest length; the rest stop at 10^4
LONGEST_LETTERS = (6,)


def pair_views(word: list[int], letters: list[int]) -> dict:
    """The projection of `word` onto every 2-subset of `letters`."""
    return {frozenset(pair): tuple(a for a in word if a in pair)
            for pair in itertools.combinations(letters, 2)}


def reconstruct_corpus(seed: int, lengths=RECONSTRUCT_LENGTHS) -> list[dict]:
    """Entry: {"name", "length", "letters" (the channel), "word", "views", "repeat"}.

    The word is over the channel's letters inside a larger alphabet; the
    channel's letters are drawn per seed.
    """
    rng = random.Random(f"reconstruct:{seed}")
    ops = []
    for length in lengths:
        for m in RECONSTRUCT_LETTERS:
            if length == lengths[-1] and len(lengths) > 1 and m not in LONGEST_LETTERS:
                continue
            letters = sorted(rng.sample(range(1, 13), m))
            word = rng.choices(letters, k=length)
            ops.append({"name": f"{length}x{m}", "length": length,
                        "letters": letters, "word": tuple(word),
                        "views": pair_views(word, letters),
                        "repeat": RECONSTRUCT_REPEAT.get(length, 1)})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: one `python -m colorcap` process per case


def _views_doc(views: dict) -> dict:
    return {"views": [{"pair": sorted(pair), "word": list(word)}
                      for pair, word in sorted(views.items(), key=lambda kv: sorted(kv[0]))]}


def cli_corpus(seed: int) -> list[dict]:
    """Cases of the cli workload: every command and every documented exit
    code, in few cases.  A case costs about a process start whatever it
    does, so few cases give each one many runs in a run of the benchmark,
    and its fastest run is then a steady estimate.

    Entry: {"name", "argv" (after `python -m colorcap`), "files" (name ->
    JSON-able document or raw text, written next to each other),
    "code" (documented exit code), "expect" (what the check compares)}.
    File names in argv are resolved against the case's directory.
    """
    shape, rng = random.Random("cli-shapes"), random.Random(f"cli:{seed}")
    generators = {expect: gen for expect, _, gen in _CATALOG_MIX}
    cases = []
    for command, expects in (("classify", ("single_channel", "separable")),
                             ("capacity", ("sunflower", "cycle")),
                             ("bounds", ("path", "cycle"))):
        for expect in expects:
            q, channels, params = generators[expect](shape, rng)
            doc = {"q": q, "channels": _shuffled(rng, channels), "label": f"{command}-{expect}"}
            cases.append({"name": f"{command}:{expect}", "argv": [command, "--input", "system.json"],
                          "files": {"system.json": doc}, "code": 0,
                          "expect": {"type": expect, "params": params}})
    for name, n, sweep in (("cycle4", 6, False), ("path2", 7, True)):
        q, channels, _ = COUNT_SYSTEMS[name]
        argv = ["enumerate", "--input", "system.json", "--n", str(n)] + (["--sweep"] if sweep else [])
        cases.append({"name": f"enumerate:{name}", "argv": argv,
                      "files": {"system.json": {"q": q, "channels": relabel(rng, q, channels)}},
                      "code": 0, "expect": {"system": name, "n": n, "sweep": sweep}})
    letters = sorted(rng.sample(range(1, 9), 5))
    word = rng.choices(letters, k=200)
    cases.append({"name": "reconstruct:5", "argv": [
        "reconstruct", "--input", "system.json", "--channel", "1", "--views", "views.json"],
        "files": {"system.json": {"q": 8, "channels": [letters]},
                  "views.json": _views_doc(pair_views(word, letters))},
        "code": 0, "expect": {"word": word}})
    cases.append({"name": "table:q4", "argv": ["table", "--which", "q4"],
                  "files": {}, "code": 0, "expect": {"table": "q4"}})

    # rejected inputs, with the exit codes the CLI documents
    cases.append({"name": "reject:malformed-json", "argv": ["classify", "--input", "bad.json"],
                  "files": {"bad.json": '{"q": 4, "channels": [[1, 2]'}, "code": 2, "expect": {}})
    cases.append({"name": "reject:verify-single", "argv": [
        "enumerate", "--input", "system.json", "--n", "3", "--verify-pairs"],
        "files": {"system.json": {"q": 3, "channels": [[1, 2, 3]]}}, "code": 2, "expect": {}})
    cases.append({"name": "reject:budget", "argv": [
        "enumerate", "--input", "system.json", "--n", "30", "--budget", "1000"],
        "files": {"system.json": {"q": 4, "channels": [[1, 2], [2, 3]]}}, "code": 3, "expect": {}})
    letters = sorted(rng.sample(range(1, 9), 3))
    views = pair_views(rng.choices(letters, k=20), letters)
    first = min(views, key=sorted)
    views[first] = views[first][1:]  # one letter now occurs fewer times in one view
    cases.append({"name": "reject:inconsistent-views", "argv": [
        "reconstruct", "--input", "system.json", "--channel", "1", "--views", "views.json"],
        "files": {"system.json": {"q": 8, "channels": [letters]}, "views.json": _views_doc(views)},
        "code": 4, "expect": {}})
    rng.shuffle(cases)
    return cases


# Inputs whose documented exit code the CLI does not give yet.  They are run
# and reported by the cli workload on every run, apart from the scored cases.
KNOWN_DEFECTS = [
    {"name": "defect:negative-n", "argv": ["enumerate", "--input", "system.json", "--n", "-1"],
     "files": {"system.json": {"q": 3, "channels": [[1, 2], [2, 3]]}}, "code": 2, "expect": {}},
    {"name": "defect:negative-budget", "argv": [
        "enumerate", "--input", "system.json", "--n", "3", "--budget", "-5"],
     "files": {"system.json": {"q": 3, "channels": [[1, 2], [2, 3]]}}, "code": 2, "expect": {}},
    {"name": "defect:huge-n", "argv": ["enumerate", "--input", "system.json", "--n", "100000"],
     "files": {"system.json": {"q": 3, "channels": [[1, 2], [2, 3]]}}, "code": 3, "expect": {}},
]
