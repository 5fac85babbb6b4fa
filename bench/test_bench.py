"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_self_us, self_times  # noqa: E402


def test_benchmark_json_declares_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "failed=0" in proc.stdout and "failed=1" not in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed():
    assert corpus.catalog_corpus(3) == corpus.catalog_corpus(3)
    assert corpus.catalog_corpus(3) != corpus.catalog_corpus(4)
    assert corpus.count_corpus(3) == corpus.count_corpus(3)
    assert corpus.cli_corpus(3) == corpus.cli_corpus(3)
    small = corpus.reconstruct_corpus(3, (50, 100))
    assert small == corpus.reconstruct_corpus(3, (50, 100))
    assert small != corpus.reconstruct_corpus(4, (50, 100))


def test_catalog_mix_is_the_same_for_every_seed():
    def mix(seed):
        return sorted((e["expect"] or "", bool(e["table"])) for e in corpus.catalog_corpus(seed, 1))
    assert mix(1) == mix(2)


def _ops(workload, tmp_path, seed=5):
    return workloads.make(workload, ROOT).setup(seed, True, str(tmp_path))


def test_catalog_check_rejects_a_wrong_answer(tmp_path):
    ops = _ops("catalog", tmp_path)
    outs = [op.run() for op in ops]
    assert all(op.check(out) is None for op, out in zip(ops, outs))
    # answers handed to the wrong system must be caught
    shifted = outs[1:] + outs[:1]
    assert sum(op.check(out) is not None for op, out in zip(ops, shifted)) > len(ops) // 2


def test_count_check_rejects_a_wrong_count():
    entry = {"n_max": 3, "sweep": True, "verify": False, "budget": None, "q": 4}
    golden = ["4", "14", "48"]
    doc = {"enumeration": [{"n": n, "count": c} for n, c in zip((1, 2, 3), golden)]}
    assert workloads.check_enumeration(doc, entry, golden) is None
    doc["enumeration"][2]["count"] = "47"
    assert workloads.check_enumeration(doc, entry, golden) is not None
    doc["enumeration"].pop()
    assert workloads.check_enumeration(doc, entry, golden) is not None


def test_reconstruct_check_rejects_a_wrong_word(tmp_path):
    op = _ops("reconstruct", tmp_path)[0]
    word = op.run()
    assert op.check(word) is None
    assert op.check(word[::-1]) is not None


def test_cli_check_holds_rejections_to_their_documented_code():
    case = {"argv": ["enumerate"], "code": 3, "expect": {}}
    assert workloads.check_cli_case(case, 3, "", "error: over budget", {}) is None
    assert workloads.check_cli_case(case, 1, "", "Traceback ...", {}) is not None
    assert workloads.check_cli_case(case, 3, "", "Traceback ...", {}) is not None


def test_known_defects_are_reported(tmp_path):
    found = dict(workloads.Cli(ROOT).known_defects(str(tmp_path)))
    # each defect listed is either still present or fixed; the probe never crashes
    assert set(found) <= {case["name"] for case in corpus.KNOWN_DEFECTS}


def test_end_to_end_takes_fastest_runs_by_nearest_rank_scaled_by_the_reference():
    samples = [[3e-3, 1e-3], [2e-3], [4e-3, 5e-3]]
    values, measured = metrics.end_to_end(samples, 0.1, 20.0, 2 * metrics.REFERENCE_S)
    assert measured == pytest.approx({"setup_s": 0.1, "corpus_s": 7e-3,
                                      "p50_ms": 2.0, "p90_ms": 4.0})
    assert values["corpus_s"]["value"] == pytest.approx(3.5e-3)  # machine at half speed
    assert values["p50_ms"]["value"] == pytest.approx(1.0)
    assert values["peak_rss_mb"]["value"] == 20.0  # memory is not scaled


def test_self_time_subtracts_direct_children():
    spans = [
        (0, 0, -1, "capacity.capacity", 0.0, 10.0, None),
        (0, 1, 0, "systems.classify", 1.0, 3.0, None),
        (0, 2, 0, "bounds.bounds_general", 4.0, 8.0, None),
        (0, 3, 2, "systems.max_clique", 5.0, 6.0, None),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    per_op = layer_self_us(spans, n_ops=2)
    assert per_op["capacity"] == pytest.approx(2e6)
    assert per_op["systems"] == pytest.approx(1.5e6)
    assert per_op["bounds"] == pytest.approx(1.5e6)


def test_tracer_nests_spans_and_restores_the_package():
    import colorcap
    import colorcap.cli

    originals = (colorcap.capacity, colorcap.cli.COMMANDS["capacity"],
                 colorcap.ChannelSystem.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 7
        colorcap.capacity(colorcap.ChannelSystem(4, [[1, 2], [2, 3], [3, 4], [4, 1]]))
    finally:
        tracer.uninstall()
    assert (colorcap.capacity, colorcap.cli.COMMANDS["capacity"],
            colorcap.ChannelSystem.__init__) == originals
    names = {s[3]: s for s in tracer.spans}
    top = names["capacity.capacity"]
    assert top[2] == -1 and top[6] == {"method": "cycle"}
    assert names["systems.classify"][2] >= 0  # called from inside capacity
    assert all(s[0] == 7 for s in tracer.spans)
