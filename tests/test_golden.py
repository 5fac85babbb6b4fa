"""Golden CLI outputs: stdout must stay byte-identical on a fixed corpus.

`golden/systems.json` holds the input documents.  For each command,
`golden/<command>.out` is the concatenated stdout of that command over the
corpus, in corpus order.  `enumerate` outputs drop their `elapsed` timings,
the one field that varies between runs.  After a deliberate change to the
output, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import pytest

from helpers import run_cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "systems.json"), encoding="utf-8") as _handle:
    SYSTEMS = json.load(_handle)
DOCS = {entry["name"]: entry["doc"] for entry in SYSTEMS}

# (system name, flags) for each enumerate run; both sunflower-star sweeps are
# cut by their budgets, the second before n = 1; sunflower-k2 checks the pairs
# equality on 3-letter channels with letters in no channel
ENUMERATE = [
    ("path-3", ["--n", "4", "--sweep", "--verify-pairs"]),
    ("cycle-4", ["--n", "5"]),
    ("separable-singles", ["--n", "3", "--sweep"]),
    ("single-full", ["--n", "0"]),
    ("reducible-separable", ["--n", "2"]),
    ("sunflower-star", ["--n", "8", "--sweep", "--budget", "500"]),
    ("cycle-4", ["--n", "4", "--verify-pairs"]),
    ("sunflower-star", ["--n", "3", "--sweep", "--budget", "0"]),
    ("sunflower-k2", ["--n", "4", "--verify-pairs"]),
]


def _stdout(argv, doc=None) -> str:
    code, out, _ = run_cli(argv, doc)
    assert code == 0, f"{argv} exited {code}"
    return out


def _without_elapsed(text: str) -> str:
    doc = json.loads(text)
    for entry in doc["enumeration"]:
        del entry["elapsed"]
    return json.dumps(doc, indent=2) + "\n"


def _runs(command):
    """(case name, stdout) for every run of the command over the corpus."""
    if command == "table":
        return [(which, _stdout(["table", "--which", which])) for which in ("q3", "q4")]
    if command == "enumerate":
        return [(f"{name} {' '.join(flags)}",
                 _without_elapsed(_stdout(["enumerate", *flags], DOCS[name])))
                for name, flags in ENUMERATE]
    return [(entry["name"], _stdout([command], entry["doc"])) for entry in SYSTEMS]


COMMANDS = ("classify", "capacity", "bounds", "table", "enumerate")


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_stdout(command):
    with open(os.path.join(GOLDEN, f"{command}.out"), encoding="utf-8", newline="") as handle:
        expected = handle.read()
    pos = 0
    for name, got in _runs(command):
        assert got == expected[pos:pos + len(got)], f"{command} {name}: stdout differs"
        pos += len(got)
    assert pos == len(expected), f"{command}: expected output has extra cases"


if __name__ == "__main__":
    for command in COMMANDS:
        with open(os.path.join(GOLDEN, f"{command}.out"), "w", encoding="utf-8",
                  newline="") as handle:
            handle.write("".join(got for _, got in _runs(command)))
