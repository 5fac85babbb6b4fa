"""colorcap benchmark: one workload per run, every answer checked.

Usage (from the repository root):

    python3 bench/run.py --workload catalog --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

A run generates the workload's inputs, then runs whole passes over its
operations, one at a time, until `--seconds` have passed.  Set-up (import
plus input generation) is timed in fresh processes started between passes.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics from
the spans, with the tracing overhead.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  The full result, with
provenance, goes to .bench_out/, and the spans of a traced run to a .jsonl
file beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 20
# seconds between runs of the reference work (metrics.reference_work)
REFERENCE_EVERY_S = 0.25

sys.path.insert(0, BENCH_DIR)

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def provenance(args) -> dict:
    """Machine, revision, workload and seed of a run.

    An exported source tree (`git archive`, a release tarball) has no git
    revision; the hash of the package sources then still names the code.
    """
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "colorcap")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as handle:
                digest.update(fname.encode() + b"\0" + handle.read())
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(), "git_revision": revision,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# set-up


def setup_child(name: str, seed: int) -> None:
    """Import the package and generate the inputs once; print the two times."""
    start = perf_counter()
    import colorcap  # noqa: F401
    import colorcap.cli  # noqa: F401
    imported = perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        workloads.make(name, ROOT).setup(seed, False, tmpdir)
        generated = perf_counter()
    print(json.dumps({"import_s": imported - start, "generate_s": generated - imported}))


class Setup:
    """Set-up times of fresh processes, taken at points spread over the run.

    The reported set-up time is the fastest import plus the fastest input
    generation, as each operation's time is its fastest run (see
    `metrics.end_to_end`).  A set-up takes tens of milliseconds, and the
    machine's speed moves by a third from second to second under other
    processes' load: the fastest of fifteen set-ups in a row moved by a
    third from run to run.  Spread over the run, set-ups see its faster
    moments too.
    """

    def __init__(self, name: str, seed: int, seconds: float):
        start = perf_counter()
        self.name, self.seed = name, seed
        self.due = [start + seconds * i / SETUP_REPEATS for i in range(SETUP_REPEATS)]
        self.imports: list[float] = []
        self.generates: list[float] = []

    def catch_up(self, now: "float | None" = None) -> None:
        """Run every set-up due by `now`; all that are left when `now` is None."""
        while self.due and (now is None or self.due[0] <= now):
            self.due.pop(0)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-child",
                 "--workload", self.name, "--seed", str(self.seed)],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                fail(f"set-up failed:\n{proc.stderr}")
            times = json.loads(proc.stdout.splitlines()[-1])
            self.imports.append(times["import_s"])
            self.generates.append(times["generate_s"])

    def fastest(self) -> tuple[float, float]:
        """Set-up time (s) and fastest import (ms)."""
        self.catch_up()
        return min(self.imports) + min(self.generates), min(self.imports) * 1e3


# ---------------------------------------------------------------------------
# measurement


class Run:
    """Whole passes over the ops; samples, failures and spans."""

    def __init__(self, workload, ops, tracer: "Tracer | None"):
        self.workload, self.ops, self.tracer = workload, ops, tracer
        self.samples: list[list[float]] = [[] for _ in ops]
        self.pass_times: dict[bool, list[float]] = {False: [], True: []}
        self.op_names: dict[int, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference: list[float] = []
        self.next_reference = 0.0

    def one_pass(self, traced: bool) -> None:
        tracer = self.tracer if traced else None
        child_spans = isinstance(self.workload, workloads.Cli)
        if tracer and child_spans:
            self.workload.traced = True
        elif tracer:
            tracer.install()
        busy = 0.0
        try:
            for op, samples in ((op, s) for op, s in zip(self.ops, self.samples)
                                for _ in range(op.repeat)):
                op_id = self.attempted
                if tracer:
                    tracer.op = op_id
                    self.op_names[op_id] = op.name
                start = perf_counter()
                try:
                    out, problem = op.run(), None
                except Exception as exc:  # an unexpected failure of the program
                    out, problem = None, f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - start
                if tracer:
                    tracer.op = -1
                    if child_spans and out is not None:
                        self._ingest(out[3], op_id)
                self.attempted += 1
                busy += elapsed
                if problem is None:
                    try:
                        problem = op.check(out)
                    except Exception as exc:
                        problem = f"check raised {type(exc).__name__}: {exc}"
                if problem is not None:
                    self.failed += 1
                    if len(self.problems) < 20:
                        self.problems.append(f"{op.name}: {problem}")
                elif not traced:
                    samples.append(elapsed)
                if perf_counter() >= self.next_reference:
                    self.time_reference()
        finally:
            if tracer and child_spans:
                self.workload.traced = False
            elif tracer:
                tracer.uninstall()
        self.pass_times[traced].append(busy)

    def time_reference(self) -> None:
        start = perf_counter()
        metrics.reference_work()
        self.reference.append(perf_counter() - start)
        self.next_reference = perf_counter() + REFERENCE_EVERY_S

    def _ingest(self, path: str, op_id: int) -> None:
        if not os.path.exists(path):  # the child died before writing its spans
            return
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                s = json.loads(line)
                self.tracer.spans.append((op_id, s["id"], s["parent"], s["name"],
                                          s["start"], s["end"], s["attrs"]))
        os.remove(path)

    def run(self, seconds: float, setup: "Setup | None") -> None:
        deadline = perf_counter() + seconds
        traced = False
        while True:
            if setup:
                setup.catch_up(perf_counter())
            self.one_pass(traced)
            traced = self.tracer is not None and not traced and not self.tracer.full
            done = not self.tracer or all(self.pass_times.values())
            if perf_counter() >= deadline and done:
                break

    def overhead_pct(self) -> float:
        plain, traced = self.pass_times[False], self.pass_times[True]
        return (statistics.median(traced) / statistics.median(plain) - 1) * 100


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 info: dict) -> dict:
    setup = None if smoke else Setup(name, seed, seconds)
    workload = workloads.make(name, ROOT)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        ops = workload.setup(seed, smoke, tmpdir)
        if name in ("catalog", "cli"):  # cheap enough to warm up on
            for op in ops[:5]:
                op.run()
        run = Run(workload, ops, tracer)
        run.run(0 if smoke else seconds, setup)
        defects = workload.known_defects(tmpdir) if name == "cli" else []
    if not any(run.samples):
        fail("no operation gave a correct answer; first: " + run.problems[0])
    setup_s, import_ms = setup.fastest() if setup else (0.0, 0.0)
    if trace:
        tracer.spans[:] = [s for s in tracer.spans if s[0] >= 0]  # drop spans of checks
        values = metrics.per_layer(tracer.spans, run.op_names, len(run.pass_times[True]),
                                   import_ms, run.overhead_pct())
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.dump(spans_path)
        info["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        values, measured = metrics.end_to_end(run.samples, setup_s, peak_rss_mb(),
                                              min(run.reference))
        info["measured"] = measured
    info.update({
        "operations": len(run.samples),
        "timed_samples": sum(len(s) for s in run.samples),
        "reference_ms": {"runs": len(run.reference), "fastest": min(run.reference) * 1e3},
        "passes": {"untraced": len(run.pass_times[False]), "traced": len(run.pass_times[True])},
        "op_times_ms": {op.name: {"runs": len(s), "fastest": min(s) * 1e3,
                                  "median": statistics.median(s) * 1e3}
                        for op, s in zip(ops, run.samples) if s},
        "problems": run.problems,
        "known_defects": [f"{n}: {p}" for n, p in defects],
    })
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": values}


def report(result: dict, info: dict) -> None:
    print(f"# colorcap benchmark: workload={info['workload']} seed={info['seed']} "
          f"seconds={info['seconds']} trace={info['trace']}")
    print(f"# machine: nproc={info['nproc']} "
          f"{info['python']} {info['platform']}")
    print(f"# revision: git={info['git_revision']} source_sha256={info['source_sha256'][:16]}")
    print(f"# {info['operations']} operations, {info['timed_samples']} timed samples, "
          f"passes {info['passes']}")
    reference = info["reference_ms"]
    print(f"# reference work: fastest {reference['fastest']:.4f} ms of {reference['runs']} runs")
    if "measured" in info:
        print("# times as measured, before scaling by the reference: " + ", ".join(
            f"{name} {value:.6g}" for name, value in info["measured"].items()))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:16.6f} {metric['unit']}")
    print(f"# correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for line in info["problems"]:
        print(f"# FAILED {line}")
    for line in info["known_defects"]:
        print(f"# known defect, not scored: {line}", file=sys.stderr)


def smoke(seed: int) -> int:
    """Each workload once, small, untraced then traced; 1 on any wrong answer."""
    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            info: dict = {}
            result = run_workload(name, seed, 0, trace, True, info)
            print(f"smoke {name} trace={int(trace)}: attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for line in info["problems"]:
                print(f"  FAILED {line}")
            for line in info["known_defects"]:
                print(f"  known defect, not scored: {line}")
            bad += result["failed"]
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on small inputs and exit")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "colorcap", "__init__.py")):
        fail(f"no colorcap package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    info = provenance(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False, info)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**result, "provenance": info}, handle, indent=2)
    report(result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
