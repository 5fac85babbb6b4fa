"""The four benchmark workloads: their operations and the checks on every answer.

A workload's `setup()` turns the seed into inputs (via `corpus`) and returns
a list of `Op`.  Running an op is what gets timed; checking its output is
not.  `check` returns None when the answer is right and a message otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import corpus

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

# capacity of the sunflower ({1,2},{1,3},{1,4}) at q=4, from an independent
# 40-digit computation; the package's own test pins 0.82720 instead
SUNFLOWER_Q4 = 0.827194634618393
EPS = 1e-9

CLASS_TYPES = {
    "SingleChannel": "single_channel", "FullClique": "full_clique",
    "Sunflower": "sunflower", "TwoSets": "two_sets", "Path": "path",
    "Cycle": "cycle", "Separable": "separable", "Reducible": "reducible",
    "General": "general",
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    repeat: int = 1  # runs per pass, so that short operations get enough samples


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _logq(x: int, q: int) -> float:
    return math.log(x) / math.log(q)


def check_class(type_name: str, params: dict, expect: "str | None", expect_params: dict) -> "str | None":
    """Class type and shape parameters against what the generator built."""
    if expect is None:
        return None
    if type_name != expect:
        return f"class {type_name}, expected {expect}"
    if expect == "two_sets":
        got = (params["k"], sorted((params["p1"], params["p2"])))
        want = (expect_params["k"], sorted((expect_params["p1"], expect_params["p2"])))
    elif expect == "separable":
        got, want = len(params["components"]), expect_params["components"]
    else:
        got = {k: params[k] for k in expect_params}
        want = expect_params
    if got != want:
        return f"{expect} parameters {got}, expected {want}"
    return None


def check_interval(lower: float, upper: float, q: int, channels: list) -> "str | None":
    """Every capacity lies in [log_q(largest channel), 1]."""
    floor = _logq(max(len(ch) for ch in channels), q)
    if not (floor - EPS <= lower <= upper + EPS and upper <= 1 + EPS):
        return f"interval [{lower}, {upper}] outside [{floor}, 1]"
    return None


# ---------------------------------------------------------------------------
# catalog


class Catalog:
    def setup(self, seed: int, smoke: bool, tmpdir: str) -> list[Op]:
        import colorcap
        import colorcap.cli

        golden = load_golden()["table"]
        # bound before any tracer is installed, so checks stay untraced
        capacity_dict = colorcap.cli.capacity_dict
        entries = corpus.catalog_corpus(seed, hundreds=1 if smoke else 4)
        if smoke:
            entries = entries[::4] + [e for e in entries if e["table"]]

        def make(entry):
            q, channels = entry["q"], entry["channels"]

            def run():
                system = colorcap.ChannelSystem(q, channels)
                return colorcap.classify(system), colorcap.capacity(system), colorcap.bounds(system)

            def check(out):
                cls, cap, bnd = out
                type_name = CLASS_TYPES[type(cls).__name__]
                params = dict(vars(cls)) if type_name != "separable" else {
                    "components": cls.components}
                problem = check_class(type_name, params, entry["expect"], entry["params"])
                lower, upper = cap.interval()
                problem = problem or check_interval(lower, upper, q, channels)
                b_lower, b_upper = bnd.interval()
                if problem is None and not (b_lower - EPS <= lower and upper <= b_upper + EPS):
                    problem = f"capacity [{lower}, {upper}] not inside bounds [{b_lower}, {b_upper}]"
                if problem is None and type_name == "single_channel":
                    if abs(cap.value - _logq(cls.size, q)) > EPS:
                        problem = f"single channel {cap.value} != log_q({cls.size})"
                if problem is None and type_name == "full_clique" and cap.value != 1.0:
                    problem = f"full clique {cap.value} != 1"
                if problem is None and entry["table"]:
                    which, row = entry["table"]
                    display = capacity_dict(cap)["display"]
                    if display != golden[which][row]:
                        problem = f"table {which} row {row}: {display} != {golden[which][row]}"
                    elif (which, row) == ("q4", 4) and abs(cap.value - SUNFLOWER_Q4) > EPS:
                        problem = f"sunflower q=4: {cap.value} != {SUNFLOWER_Q4}"
                return problem

            return Op(f"{q}:{channels}", run, check)

        return [make(e) for e in entries]


# ---------------------------------------------------------------------------
# count


class Count:
    def setup(self, seed: int, smoke: bool, tmpdir: str) -> list[Op]:
        import colorcap.cli

        golden = load_golden()["counts"]
        ops = []
        for i, entry in enumerate(corpus.count_corpus(seed, scale=3 if smoke else 0)):
            src = os.path.join(tmpdir, f"count-{i}-in.json")
            dst = os.path.join(tmpdir, f"count-{i}-out.json")
            with open(src, "w", encoding="utf-8") as handle:
                json.dump({"q": entry["q"], "channels": entry["channels"]}, handle)
            argv = entry["argv"] + ["--input", src, "--output", dst]
            ops.append(Op(entry["name"], self._runner(colorcap.cli, argv, dst),
                          self._checker(entry, golden[entry["system"]])))
        return ops

    @staticmethod
    def _runner(cli_module, argv: list[str], dst: str):
        def run():
            # looked up per call so that a tracer's wrapper is the one called
            return cli_module.main(argv), dst
        return run

    @staticmethod
    def _checker(entry: dict, golden: list[str]):
        def check(out):
            code, dst = out
            if code != 0:
                return f"exit code {code}"
            with open(dst, encoding="utf-8") as handle:
                doc = json.load(handle)
            return check_enumeration(doc, entry, golden)
        return check


def check_enumeration(doc: dict, entry: dict, golden: list[str]) -> "str | None":
    """An `enumerate` document against the golden counts of its system."""
    n_max, budget = entry["n_max"], entry["budget"]
    if entry["sweep"]:
        want_ns = [n for n in range(1, n_max + 1) if budget is None or entry["q"] ** n <= budget]
    else:
        want_ns = [n_max]
    got = [(r["n"], r["count"]) for r in doc["enumeration"]]
    want = [(n, golden[n - 1]) for n in want_ns]
    if got != want:
        return f"counts {got} != golden {want}"
    if doc.get("truncated", False) != (len(want_ns) < n_max and entry["sweep"]):
        return f"truncated flag {doc.get('truncated')} wrong"
    if entry["verify"] and doc.get("pairs_equal") is not True:
        return f"pairs_equal {doc.get('pairs_equal')}"
    return None


# ---------------------------------------------------------------------------
# reconstruct


class Reconstruct:
    def setup(self, seed: int, smoke: bool, tmpdir: str) -> list[Op]:
        import colorcap

        lengths = (100, 1_000) if smoke else corpus.RECONSTRUCT_LENGTHS
        ops = []
        for entry in corpus.reconstruct_corpus(seed, lengths):
            views, letters, word = entry["views"], entry["letters"], entry["word"]
            ops.append(Op(
                entry["name"],
                lambda views=views, letters=letters: colorcap.reconstruct_view(views, letters),
                lambda out, word=word: None if out == word else "reconstructed word differs",
                entry["repeat"]))
        return ops


# ---------------------------------------------------------------------------
# cli


def _write_case(case: dict, case_dir: str) -> None:
    os.makedirs(case_dir, exist_ok=True)
    for fname, content in case["files"].items():
        with open(os.path.join(case_dir, fname), "w", encoding="utf-8") as handle:
            handle.write(content if isinstance(content, str) else json.dumps(content))


def check_cli_case(case: dict, code: int, stdout: str, stderr: str, golden: dict) -> "str | None":
    if code != case["code"]:
        return f"exit code {code}, documented {case['code']}"
    if code != 0:
        if stdout or not stderr.startswith("error:") or "Traceback" in stderr:
            return "rejection is not a one-line error on stderr"
        return None
    doc = json.loads(stdout)
    command, expect = case["argv"][0], case["expect"]
    if command in ("classify", "capacity", "bounds"):
        cls = doc["class"]
        params = {k: v for k, v in cls.items() if k != "type"}
        problem = check_class(cls["type"], params, expect["type"], expect["params"])
        if problem or command == "classify":
            return problem
        cap, system = doc["capacity"], doc["input"]
        lower, upper = (cap["value"],) * 2 if cap["kind"] == "exact" else (cap["lower"], cap["upper"])
        if command == "bounds" and cap["kind"] == "exact" and cls["type"] not in (
                "single_channel", "full_clique"):
            return f"bounds returned an exact value for {cls['type']}"
        return check_interval(lower, upper, system["q"], system["channels"])
    if command == "enumerate":
        entry = {"n_max": expect["n"], "verify": False, "sweep": expect["sweep"],
                 "budget": None, "q": doc["input"]["q"]}
        return check_enumeration(doc, entry, golden["counts"][expect["system"]])
    if command == "reconstruct":
        return None if doc["word"] == expect["word"] else "reconstructed word differs"
    if command == "table":
        got = [row["capacity"]["display"] for row in doc["rows"]]
        want = golden["table"][expect["table"]]
        return None if got == want else f"table {got} != {want}"
    raise AssertionError(f"no check for {command}")


class Cli:
    def __init__(self, root: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.traced = False  # set by the runner for traced passes

    def setup(self, seed: int, smoke: bool, tmpdir: str) -> list[Op]:
        golden = load_golden()
        cases = corpus.cli_corpus(seed)
        if smoke:
            cases = cases[::3]
        return [self.op(case, os.path.join(tmpdir, f"cli-{i}"), golden)
                for i, case in enumerate(cases)]

    def op(self, case: dict, case_dir: str, golden: dict) -> Op:
        _write_case(case, case_dir)
        spans_out = os.path.join(case_dir, "spans.jsonl")

        def run():
            if self.traced:
                cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), spans_out,
                       *case["argv"]]
            else:
                cmd = [sys.executable, "-m", "colorcap", *case["argv"]]
            proc = subprocess.run(cmd, cwd=case_dir, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr, spans_out

        def check(out):
            return check_cli_case(case, out[0], out[1], out[2], golden)

        return Op(case["name"], run, check)

    def known_defects(self, tmpdir: str) -> list[tuple[str, str]]:
        """Run the inputs the CLI still mishandles; (name, problem) for each
        one that does not yet end with its documented exit code."""
        golden = load_golden()
        out = []
        for i, case in enumerate(corpus.KNOWN_DEFECTS):
            op = self.op(case, os.path.join(tmpdir, f"defect-{i}"), golden)
            problem = op.check(op.run())
            if problem:
                out.append((case["name"], problem))
        return out


WORKLOADS = ("catalog", "count", "cli", "reconstruct")


def make(name: str, root: str):
    if name == "cli":
        return Cli(root)
    return {"catalog": Catalog, "count": Count, "reconstruct": Reconstruct}[name]()
