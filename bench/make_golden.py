"""Regenerate golden.json: exact counts by brute force and table display strings.

Usage (from the repository root): python3 bench/make_golden.py

Counts come from `count_outputs` and are cross-checked before they are
written: a full channel gives q^n, the q=4 3-path gives 1093 at n=6, every
irreducible system's count equals its pairs-graph edge system's
(`verify_pairs_equality`), and a relabeled copy of each system counts the
same.  Table strings are the CLI's display of each criterion-1 row.
"""

import json
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import corpus  # noqa: E402
from colorcap import ChannelSystem, capacity, count_outputs, verify_pairs_equality  # noqa: E402
from colorcap.cli import TABLE_SYSTEMS, capacity_dict  # noqa: E402


def main() -> None:
    assert count_outputs(ChannelSystem(4, [[1, 2], [2, 3], [3, 4]]), 6).count == 1093
    rng = random.Random(0)
    counts = {}
    for name, (q, channels, n_max) in corpus.COUNT_SYSTEMS.items():
        system = ChannelSystem(q, channels)
        column = [count_outputs(system, n).count for n in range(1, n_max + 1)]
        if name == "lossless4":
            assert column == [q ** n for n in range(1, n_max + 1)]
        if name in corpus.VERIFY_N:
            assert verify_pairs_equality(system, corpus.VERIFY_N[name])
        small = min(n_max, 6)
        relabeled = ChannelSystem(q, corpus.relabel(rng, q, channels))
        assert count_outputs(relabeled, small).count == column[small - 1]
        counts[name] = [str(c) for c in column]
        print(name, counts[name][-1], flush=True)
    assert {k: [(q, ch) for q, ch in v] for k, v in corpus.TABLE_ROWS.items()} == TABLE_SYSTEMS
    table = {which: [capacity_dict(capacity(ChannelSystem(q, ch)))["display"] for q, ch in rows]
             for which, rows in corpus.TABLE_ROWS.items()}
    with open(os.path.join(BENCH_DIR, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump({"counts": counts, "table": table}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
