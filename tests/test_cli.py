import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colorcap
import colorcap.channels
import colorcap.cli
import colorcap.oracle
import colorcap.systems
from colorcap import ChannelSystem
from colorcap.cli import (
    COMMANDS, SchemaError, format_sig, main, parse_system_document, system_dict,
)
from colorcap.oracle import BudgetExceededError, ReconstructionError
from helpers import run_cli

PKG = "colorcap"


def _run(*args, stdin="", env=None):
    return subprocess.run(
        [sys.executable, "-m", PKG, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def _doc(q, channels, **extra):
    return json.dumps({"q": q, "channels": channels, **extra})


def test_format_sig():
    assert format_sig(1.0) == "1"
    assert format_sig(0.0) == "0"
    assert format_sig(0.5) == "0.50000"
    assert format_sig(0.8760357589718848) == "0.87604"
    assert format_sig(0.949984313476496) == "0.94998"
    assert format_sig(0.8271946346183933) == "0.82719"
    assert format_sig(0.7924812503605781) == "0.79248"
    assert format_sig(0.9999999) == "1.0000"
    assert format_sig(2**-8) == "0.0039062"  # a binary tie, rounded half-even
    assert format_sig(0.0999995) == "0.10000"  # rounding crosses a decade
    assert format_sig(9.99995e-05) == "0.000099999"
    assert format_sig(5.1889e-05) == "0.000051889"
    assert format_sig(2.3504e-07) == "2.3504E-7"


def test_import_starts_no_process_machinery():
    src = os.path.dirname(os.path.dirname(colorcap.cli.__file__))
    probe = ("import sys, colorcap.cli; "
             "print(sorted({'multiprocessing', 'socket', 'pickle'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _fresh(statement: str, modules: set, stdin: str = "") -> list:
    """A fresh interpreter's output lines after statement, the last naming
    which of modules it then holds.  -S: no site module, which may preload
    typing on its own."""
    parent = os.path.dirname(os.path.dirname(colorcap.cli.__file__))
    probe = (f"import os, sys; sys.path.insert(0, {parent!r})\n{statement}\n"
             f"print(sorted({modules!r} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], input=stdin,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_stays_lean():
    assert _fresh("import colorcap.cli", {"dataclasses", "inspect", "typing"}) == ["[]"]


LAZY = {"colorcap.oracle", "decimal"}


@pytest.mark.parametrize("statement", ["import colorcap", "import colorcap.cli"])
def test_import_loads_neither_the_oracle_nor_decimal(statement):
    assert _fresh(statement, LAZY) == ["[]"]


CYCLE4 = _doc(4, [[1, 2], [2, 3], [3, 4], [4, 1]])


@pytest.mark.parametrize("argv, stdin, code, loaded", [
    (["classify"], CYCLE4, 0, []),
    (["capacity"], CYCLE4, 0, ["decimal"]),
    (["capacity"], _doc(3, [[1, 2, 3]]), 0, []),  # a capacity of 1 needs no decimal
    (["bounds"], CYCLE4, 0, ["decimal"]),
    (["table", "--which", "q4"], "", 0, ["decimal"]),
    (["enumerate", "--n", "3", "--verify-pairs"], CYCLE4, 0, ["colorcap.oracle"]),
    (["enumerate", "--n", "30"], CYCLE4, 3, ["colorcap.oracle"]),
], ids=["classify", "capacity", "capacity-1", "bounds", "table", "enumerate",
        "enumerate-refused"])
def test_each_command_loads_what_it_uses(argv, stdin, code, loaded):
    # each command writes its document to the null device
    call = f"colorcap.cli.main({argv + ['--output', os.devnull]!r})"
    assert _fresh(f"import colorcap.cli; assert {call} == {code}", LAZY, stdin) == [str(loaded)]


def test_reconstruct_loads_the_oracle(tmp_path):
    views = tmp_path / "views.json"
    views.write_text(json.dumps({"views": [{"pair": [1, 2], "word": [2, 1]}]}))
    call = (f"colorcap.cli.main(['reconstruct', '--channel', '1', '--views', {str(views)!r}, "
            "'--output', os.devnull])")
    assert _fresh(f"import colorcap.cli; assert {call} == 0", LAZY,
                  _doc(2, [[1, 2]])) == ["['colorcap.oracle']"]


def test_enumerate_help_names_the_budget_without_the_oracle():
    *lines, loaded = _fresh("import colorcap.cli, contextlib\n"
                            "with contextlib.suppress(SystemExit):\n"
                            "    colorcap.cli.main(['enumerate', '--help'])", LAZY)
    assert loaded == "[]"
    assert (f"--budget B cap on q^N, the number of words a count covers "
            f"(default {colorcap.oracle.DEFAULT_BUDGET})") in " ".join(" ".join(lines).split())


def test_oracle_names_read_the_oracle_module(monkeypatch):
    # the package keeps no copy, so a name rebound in the oracle (as a tracer
    # or a test does) shows through the package until it is restored
    real = colorcap.count_outputs
    monkeypatch.setattr(colorcap.oracle, "count_outputs", "rebound")
    assert colorcap.count_outputs == "rebound"
    monkeypatch.undo()
    assert colorcap.count_outputs is real
    names = {}
    exec("from colorcap import *", names)
    assert set(colorcap.__all__) <= names.keys()
    assert set(colorcap.__all__) <= set(dir(colorcap))
    for name in ("count_outputs", "reconstruct_view", "verify_pairs_equality",
                 "EnumerationReport"):
        assert getattr(colorcap, name) is getattr(colorcap.oracle, name) is names[name]
    with pytest.raises(AttributeError, match="has no attribute 'count_levels'"):
        colorcap.count_levels
    assert not hasattr(colorcap, "_levels")


def test_refusals_are_one_class_across_modules():
    for name in ("BudgetExceededError", "ReconstructionError", "DEFAULT_BUDGET"):
        value = getattr(colorcap.channels, name)
        assert getattr(colorcap.oracle, name) is value
        assert getattr(colorcap.cli, name) is value
        if name != "DEFAULT_BUDGET":
            assert getattr(colorcap, name) is value
    assert colorcap.cli.EXIT_CODES[colorcap.oracle.BudgetExceededError] == 3
    assert colorcap.cli.EXIT_CODES[colorcap.oracle.ReconstructionError] == 4


def test_export_list_names_exist():
    for name in colorcap.__all__:
        assert hasattr(colorcap, name), name


def test_failed_stdout_write_exits_2():
    read_end, write_end = os.pipe()
    os.close(read_end)
    targets = [write_end]
    if os.path.exists("/dev/full"):
        targets.append(os.open("/dev/full", os.O_WRONLY))
    try:
        for fd in targets:
            proc = subprocess.run([sys.executable, "-m", PKG, "table", "--which", "q4"],
                                  stdin=subprocess.DEVNULL, stdout=fd,
                                  stderr=subprocess.PIPE, text=True)
            assert proc.returncode == 2, proc.stderr
            assert len(proc.stderr.splitlines()) == 1
            assert proc.stderr.startswith("error: cannot write -: ")
    finally:
        for fd in targets:
            os.close(fd)


def test_parse_rejects_bad_documents():
    with pytest.raises(ValueError, match="top-level"):
        parse_system_document([1, 2])
    with pytest.raises(ValueError, match='"q"'):
        parse_system_document({"channels": [[1]]})
    with pytest.raises(ValueError, match="channels\\[0\\]\\[1\\]"):
        parse_system_document({"q": 4, "channels": [[1, 5]]})
    with pytest.raises(ValueError, match="duplicate"):
        parse_system_document({"q": 4, "channels": [[1, 1]]})
    with pytest.raises(ValueError, match="unknown"):
        parse_system_document({"q": 4, "channels": [[1]], "extra": 1})
    with pytest.raises(ValueError, match="label"):
        parse_system_document({"q": 4, "channels": [[1]], "label": 7})


def _refuses(build, error) -> bool:
    try:
        build()
    except error:
        return True
    return False


@pytest.mark.parametrize("value, q_ok, letter_ok", [
    (True, False, False), (False, False, False), (2.5, False, False),
    ("4", False, False), (None, False, False), (1, False, True), (4, True, True)])
def test_cli_and_library_refuse_the_same_alphabet_sizes_and_letters(
        value, q_ok, letter_ok):
    # one integer rule serves both: SchemaError in the document, ValueError
    # in the constructor, for exactly the same values
    assert (_refuses(lambda: ChannelSystem(value, [[1]]), ValueError)
            == _refuses(lambda: parse_system_document({"q": value, "channels": [[1]]}),
                        SchemaError)
            == (not q_ok))
    assert (_refuses(lambda: ChannelSystem(4, [[value]]), ValueError)
            == _refuses(lambda: parse_system_document({"q": 4, "channels": [[value]]}),
                        SchemaError)
            == (not letter_ok))


def test_classify_round_trip():
    proc = _run("classify", stdin=_doc(4, [[1, 2], [2, 3], [3, 4]], label="p3"))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["input"]["label"] == "p3"
    assert payload["class"] == {"type": "path", "t": 3}


def test_capacity_exact_payload():
    proc = _run("capacity", stdin=_doc(3, [[1, 3], [2, 3]]))
    payload = json.loads(proc.stdout)
    assert payload["capacity"]["kind"] == "exact"
    assert payload["capacity"]["display"] == "0.87604"
    assert payload["class"]["sunflower_equivalent"] == {"k": 1, "p": 1, "t": 2}


def test_bounds_payload():
    proc = _run("bounds", stdin=_doc(4, [[1, 2], [2, 3], [3, 4], [4, 1]]))
    payload = json.loads(proc.stdout)
    assert payload["capacity"]["kind"] == "bounds"
    assert payload["capacity"]["display"] == "[0.79248, 0.94998]"


def test_enumerate_counts_are_strings():
    proc = _run(
        "enumerate", "--n", "4", "--sweep", "--verify-pairs",
        stdin=_doc(3, [[1, 3], [2, 3]]),
    )
    payload = json.loads(proc.stdout)
    assert [row["count"] for row in payload["enumeration"]] == [
        "3", "8", "21", "55"
    ]
    assert payload["pairs_equal"] is True


def test_enumerate_verify_pairs_rejects_separable():
    proc = _run(
        "enumerate", "--n", "3", "--verify-pairs", stdin=_doc(4, [[1, 2], [3, 4]])
    )
    assert proc.returncode == 2
    assert "verify-pairs" in proc.stderr


def test_schema_error_exit_2():
    proc = _run("classify", stdin='{"q": 4, "channels": [[1, 5]]}')
    assert proc.returncode == 2
    assert "channels[0][1]" in proc.stderr
    proc = _run("classify", stdin="not json")
    assert proc.returncode == 2


def test_budget_exit_3():
    proc = _run(
        "enumerate", "--n", "40", "--budget", "1000", stdin=_doc(2, [[1], [2]])
    )
    assert proc.returncode == 3
    assert "budget" in proc.stderr


def test_enumerate_reads_no_environment():
    # enumerate is a function of argv and its input files alone
    def run(env):
        proc = _run("enumerate", "--n", "10", stdin=_doc(2, [[1], [2]]), env=env)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        for report in doc["enumeration"]:
            del report["elapsed"]
        return doc

    unset = {k: v for k, v in os.environ.items() if k != "COLORCAP_BUDGET"}
    expected = run(unset)
    assert run(dict(unset, COLORCAP_BUDGET="100")) == expected
    assert run(dict(unset, COLORCAP_BUDGET="many")) == expected


def test_reconstruct_round_trip(tmp_path):
    from colorcap import apply_channel

    x = (3, 1, 2, 2, 1, 2, 3)
    views = [
        {"pair": [a, b], "word": list(apply_channel(x, frozenset({a, b})))}
        for a, b in [(1, 2), (1, 3), (2, 3)]
    ]
    views_file = tmp_path / "views.json"
    views_file.write_text(json.dumps({"views": views}))
    proc = _run(
        "reconstruct", "--channel", "1", "--views", str(views_file),
        stdin=_doc(4, [[1, 2, 3], [1, 4]]),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["word"] == list(x)
    assert payload["letters"] == [1, 2, 3]


def test_reconstruct_inconsistent_exit_4(tmp_path):
    views = {
        "views": [
            {"pair": [1, 2], "word": [1, 2]},
            {"pair": [2, 3], "word": [2, 3]},
            {"pair": [1, 3], "word": [3, 1]},
        ]
    }
    views_file = tmp_path / "views.json"
    views_file.write_text(json.dumps(views))
    proc = _run(
        "reconstruct", "--channel", "1", "--views", str(views_file),
        stdin=_doc(3, [[1, 2, 3]]),
    )
    assert proc.returncode == 4


def test_reconstruct_bad_views_schema_exit_2(tmp_path):
    views_file = tmp_path / "views.json"
    views_file.write_text(json.dumps({"views": [{"pair": [1, 2, 3], "word": []}]}))
    proc = _run(
        "reconstruct", "--channel", "1", "--views", str(views_file),
        stdin=_doc(3, [[1, 2, 3]]),
    )
    assert proc.returncode == 2
    proc = _run(
        "reconstruct", "--channel", "9", "--views", str(views_file),
        stdin=_doc(3, [[1, 2, 3]]),
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: --channel 9 out of range 1..1\n"
    # unknown fields are refused and named, at the top and in a view entry
    good = {"pair": [1, 2], "word": [1, 2]}
    for views, field in [
        ({"views": [good], "extra": 1}, "extra"),
        ({"views": [{**good, "wrod": [2, 1]}]}, "wrod"),
        ({"views": [{"pair": [1, 2], "wrod": [1, 2]}]}, "wrod"),
    ]:
        views_file.write_text(json.dumps(views))
        proc = _run(
            "reconstruct", "--channel", "1", "--views", str(views_file),
            stdin=_doc(2, [[1, 2]]),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        assert repr(field) in proc.stderr


def test_output_file(tmp_path):
    out = tmp_path / "result.json"
    proc = _run(
        "classify", "--output", str(out), stdin=_doc(4, [[1, 2, 3, 4]])
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["class"]["type"] == "single_channel"


def test_input_file(tmp_path):
    src = tmp_path / "system.json"
    src.write_text(_doc(4, [[1, 2], [1, 3], [1, 4]]))
    proc = _run("capacity", "--input", str(src))
    payload = json.loads(proc.stdout)
    assert payload["class"] == {"type": "sunflower", "k": 1, "p": 1, "t": 3}
    assert payload["capacity"]["display"] == "0.82719"


def test_table_q3():
    proc = _run("table", "--which", "q3")
    payload = json.loads(proc.stdout)
    displays = [row["capacity"]["display"] for row in payload["rows"]]
    assert displays == ["1", "0.87604"]


def test_table_q4():
    proc = _run("table", "--which", "q4")
    payload = json.loads(proc.stdout)
    displays = [row["capacity"]["display"] for row in payload["rows"]]
    assert displays == [
        "1",
        "0.94998",
        "[0.79248, 0.94998]",
        "0.88578",
        "0.82719",
        "0.79248",
    ]
    # the 3-petal row rounds to ...19, not ...20: the value is
    # 0.82719463..., a hair under the half-way point
    assert payload["rows"][4]["class"] == {
        "type": "sunflower", "k": 1, "p": 1, "t": 3
    }


def test_main_returns_int():
    assert main(["table", "--which", "q3", "--output", "/dev/null"]) == 0


def _assert_rejected(code, stdout, stderr, expected):
    assert code == expected, stderr
    assert stdout == ""
    assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr


PATH2 = {"q": 3, "channels": [[1, 2], [2, 3]]}


@pytest.mark.parametrize("flags, content, code", [
    pytest.param(["enumerate", "--n", "-1"], PATH2, 2, id="negative-n"),
    pytest.param(["enumerate", "--sweep", "--n", "0"], PATH2, 2, id="sweep-n-0"),
    pytest.param(["enumerate", "--n", "3", "--budget", "-5"], PATH2, 2, id="negative-budget"),
    pytest.param(["enumerate"], PATH2, 2, id="missing-n"),
    pytest.param(["enumerate", "--n", "abc"], PATH2, 2, id="n-not-an-int"),
    pytest.param(["classify", "--workers", "2"], PATH2, 2, id="removed-workers-flag"),
    pytest.param([], PATH2, 2, id="no-command"),
    pytest.param(["table", "--which", "q3"], PATH2, 2, id="table-reads-no-input"),
    pytest.param(["enumerate", "--n", "100000"], PATH2, 3, id="huge-n"),
    pytest.param(["enumerate", "--n", "100000", "--verify-pairs"], PATH2, 3,
                 id="huge-n-verify-pairs"),
    pytest.param(["classify"], b"\xff\xfe", 2, id="not-utf-8"),
    pytest.param(["classify"], b"[" * 100_000, 2, id="deep-nesting"),
    pytest.param(["classify"], b'{"q": ' + b"1" * 5000 + b', "channels": [[1]]}', 2,
                 id="5000-digit-q"),
])
def test_rejections_exit_with_one_line_error(tmp_path, flags, content, code):
    src = tmp_path / "system.json"
    src.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    _assert_rejected(*run_cli([*flags, "--input", str(src)]), code)


@pytest.mark.parametrize("flags, text", [
    pytest.param(["--n", "-1"], "block length must be >= 0, got -1", id="negative-n"),
    pytest.param(["--n", "3", "--budget", "-5"],
                 "budget must be None or an integer >= 0, got -5", id="negative-budget"),
])
def test_length_and_budget_refusals_read_the_library_text(tmp_path, flags, text):
    # the CLI passes --n and --budget on unchecked; the library's refusal is the line
    src = tmp_path / "system.json"
    src.write_text(json.dumps(PATH2))
    code, stdout, stderr = run_cli(["enumerate", *flags, "--input", str(src)])
    _assert_rejected(code, stdout, stderr, 2)
    assert stderr == f"error: {text}\n"


def test_reconstruct_one_letter_channel_exit_2(tmp_path):
    src, views = tmp_path / "system.json", tmp_path / "views.json"
    src.write_text(_doc(3, [[1], [2, 3]]))
    views.write_text(json.dumps({"views": []}))
    _assert_rejected(*run_cli(["reconstruct", "--input", str(src), "--channel", "1",
                               "--views", str(views)]), 2)


def test_reconstruct_repeated_pair_exit_2(tmp_path):
    src, views = tmp_path / "system.json", tmp_path / "views.json"
    src.write_text(_doc(3, [[1, 2, 3]]))
    views.write_text(json.dumps({"views": [
        {"pair": [1, 2], "word": [2, 1]},
        {"pair": [2, 1], "word": [1, 2]},
        {"pair": [1, 3], "word": [1, 3]},
        {"pair": [2, 3], "word": [2, 3]},
    ]}))
    code, stdout, stderr = run_cli(["reconstruct", "--input", str(src), "--channel", "1",
                                    "--views", str(views)])
    _assert_rejected(code, stdout, stderr, 2)
    assert stderr.startswith("error: views[1]")


def test_repeated_key_exit_2(tmp_path):
    # json.loads alone would keep the last value: classify at q=9, word [2, 1]
    src, views = tmp_path / "system.json", tmp_path / "views.json"
    src.write_text('{"q": 4, "channels": [[1, 2], [2, 3]], "q": 9}')
    code, stdout, stderr = run_cli(["classify", "--input", str(src)])
    _assert_rejected(code, stdout, stderr, 2)
    assert stderr == f"error: repeated key 'q' in {src}\n"
    src.write_text(_doc(2, [[1, 2]]))
    views.write_text('{"views": [{"pair": [1, 2], "word": [1, 2], "word": [2, 1]}]}')
    code, stdout, stderr = run_cli(["reconstruct", "--input", str(src), "--channel", "1",
                                    "--views", str(views)])
    _assert_rejected(code, stdout, stderr, 2)
    assert stderr == f"error: repeated key 'word' in {views}\n"


def test_unwritable_output_exit_2(tmp_path):
    out = tmp_path / "missing" / "result.json"
    _assert_rejected(*run_cli(["table", "--which", "q3", "--output", str(out)]), 2)


@pytest.mark.parametrize("refusal, given, code", [
    (SchemaError, ("refused",), 2), (BudgetExceededError, (4, 9, 10), 3),
    (ReconstructionError, ("refused",), 4),
])
def test_a_refusal_subclass_exits_with_its_base_code(monkeypatch, refusal, given, code):
    exc = type("Narrower", (refusal,), {})(*given)

    def refuse(args):
        raise exc
    monkeypatch.setitem(COMMANDS, "table", refuse)
    assert run_cli(["table", "--which", "q3"]) == (code, "", f"error: {exc}\n")


ONE_CHANNEL = {"q": 3, "channels": [[1, 2, 3]]}


@pytest.mark.parametrize("system, views, stem", [
    pytest.param({"q": 3}, None, 'missing field "channels"', id="no-channels"),
    pytest.param({"q": 3, "channels": []}, None, '"channels" must be a non-empty list',
                 id="empty-channels"),
    pytest.param({"q": 3, "channels": {"1": [1]}}, None,
                 '"channels" must be a non-empty list', id="channels-not-a-list"),
    pytest.param({"q": 3, "channels": [[1], []]}, None, "channels[1] must be a non-empty list",
                 id="empty-channel"),
    pytest.param({"q": 3, "channels": [[1], 5]}, None, "channels[1] must be a non-empty list",
                 id="channel-not-a-list"),
    pytest.param(ONE_CHANNEL, [], 'views document must be an object with a "views" list',
                 id="views-not-an-object"),
    pytest.param(ONE_CHANNEL, {}, 'views document must be an object with a "views" list',
                 id="no-views"),
    pytest.param(ONE_CHANNEL, {"views": {}}, '"views" must be a list',
                 id="views-not-a-list"),
    pytest.param(ONE_CHANNEL, {"views": [{"pair": [1, 2]}]},
                 'views[0] must be an object with "pair" and "word"', id="entry-no-word"),
    pytest.param(ONE_CHANNEL, {"views": [{"word": [1, 2]}]},
                 'views[0] must be an object with "pair" and "word"', id="entry-no-pair"),
    pytest.param(ONE_CHANNEL, {"views": [[1, 2]]},
                 'views[0] must be an object with "pair" and "word"',
                 id="entry-not-an-object"),
    pytest.param(ONE_CHANNEL, {"views": [{"pair": [1, 1], "word": [1]}]},
                 "views[0].pair must be two distinct letters in 1..3", id="pair-repeats-a-letter"),
    pytest.param(ONE_CHANNEL, {"views": [{"pair": [1, 4], "word": [1]}]},
                 "views[0].pair must be two distinct letters in 1..3", id="pair-off-the-alphabet"),
    pytest.param(ONE_CHANNEL, {"views": [{"pair": [1], "word": [1]}]},
                 "views[0].pair must be two distinct letters in 1..3", id="pair-of-one-letter"),
    pytest.param(ONE_CHANNEL, {"views": [{"pair": [1, 2], "word": "12"}]},
                 "views[0].word must be a list of integers", id="word-not-a-list"),
    pytest.param(ONE_CHANNEL, {"views": [{"pair": [1, 2], "word": [1, True]}]},
                 "views[0].word must be a list of integers", id="word-holds-a-bool"),
])
def test_document_shape_refusals(tmp_path, system, views, stem):
    src, views_file = tmp_path / "system.json", tmp_path / "views.json"
    src.write_text(json.dumps(system))
    if views is None:
        argv = ["classify", "--input", str(src)]
    else:
        views_file.write_text(json.dumps(views))
        argv = ["reconstruct", "--input", str(src), "--channel", "1",
                "--views", str(views_file)]
    code, stdout, stderr = run_cli(argv)
    _assert_rejected(code, stdout, stderr, 2)
    assert stderr.startswith(f"error: {stem}"), stderr


CHORDED = {"q": 5, "channels": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3]]}
# the channel [1] is dominated; what is left splits into a General and a path
SPLIT = {"q": 9, "channels": CHORDED["channels"] + [[1], [6, 7], [7, 8], [8, 9]]}


@pytest.mark.parametrize("flags, content", [
    pytest.param(["capacity"], CHORDED, id="capacity"),
    pytest.param(["capacity"], SPLIT, id="capacity-reducible"),
    pytest.param(["bounds"], CHORDED, id="bounds"),
    pytest.param(["bounds"], SPLIT, id="bounds-reducible"),
    pytest.param(["enumerate", "--n", "3", "--verify-pairs"], CHORDED,
                 id="enumerate-verify-pairs"),
    pytest.param(["table", "--which", "q3"], None, id="table-q3"),
    pytest.param(["table", "--which", "q4"], None, id="table-q4"),
])
def test_each_command_classifies_a_system_once(tmp_path, monkeypatch, flags, content):
    # the class field and the dispatch read one memo per system instance
    calls, worker = [], colorcap.systems._classify
    monkeypatch.setattr(colorcap.systems, "_classify",
                        lambda system: calls.append(system) or worker(system))
    if content is not None:
        src = tmp_path / "system.json"
        src.write_text(json.dumps(content))
        flags = [*flags, "--input", str(src)]
    code, stdout, stderr = run_cli(flags)
    assert code == 0, stderr
    given = [content] if content else [row["system"] for row in json.loads(stdout)["rows"]]
    classified = [system_dict(system) for system in calls]
    assert all(system_dict(ChannelSystem(**d)) in classified for d in given)
    assert len({id(s) for s in calls}) == len(calls)  # no instance twice


def test_main_calls_in_one_process_carry_no_state(tmp_path):
    src = tmp_path / "system.json"
    src.write_text(json.dumps(PATH2))

    def run(*flags):
        code, stdout, stderr = run_cli([*flags, "--input", str(src)])
        return code, json.loads(stdout) if code == 0 else None, stderr

    classify = run("classify")
    assert classify[0] == 0
    code, doc, _ = run("enumerate", "--sweep", "--verify-pairs", "--budget", "500",
                       "--n", "5")
    assert code == 0 and doc["pairs_equal"] is True
    code, doc, _ = run("enumerate", "--sweep", "--budget", "500", "--n", "8")
    assert code == 0 and doc["truncated"] is True
    code, doc, _ = run("enumerate", "--n", "3")
    assert code == 0
    assert "pairs_equal" not in doc and "truncated" not in doc
    assert [(r["n"], r["count"]) for r in doc["enumeration"]] == [(3, "21")]
    # the budget of 500 stays with the calls that gave it: 3^6 = 729 counts
    assert run("enumerate", "--n", "6")[0] == 0

    _assert_rejected(*run_cli(["enumerate", "--n", "abc", "--input", str(src)]), 2)
    assert run("classify") == classify
    code, stdout, _ = run_cli(["--help"])
    assert code == 0 and stdout.startswith("usage: colorcap")
    assert run("classify") == classify


def test_parser_is_built_once_per_process_and_not_at_import():
    # counts every ArgumentParser made in a fresh process: none at import,
    # and three main calls make as many as one build_parser call
    parent = os.path.dirname(os.path.dirname(colorcap.cli.__file__))
    probe = (
        f"import sys, os, argparse; sys.path.insert(0, {parent!r})\n"
        "made, init = [], argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = "
        "lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
        "import colorcap.cli\n"
        "counts = [len(made)]\n"
        "for _ in range(3):\n"
        "    assert colorcap.cli.main(['table', '--which', 'q3', '--output', os.devnull]) == 0\n"
        "counts.append(len(made))\n"
        "colorcap.cli.build_parser()\n"
        "print(counts + [len(made)])\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    at_import, after_main, after_build = json.loads(proc.stdout)
    assert at_import == 0
    assert after_main > 0 and after_build - after_main == after_main


_letters = st.integers(-1, 7)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["q", "channels", "label", "views", "x"]),
                      inner, max_size=3),
    max_leaves=10)
_systems = st.fixed_dictionaries(
    {"q": st.integers(-1, 6), "channels": st.lists(st.lists(_letters, max_size=4), max_size=4)},
    optional={"label": st.text(max_size=4) | st.integers()})
_views = st.fixed_dictionaries({"views": st.lists(st.fixed_dictionaries(
    {"pair": st.lists(_letters, max_size=3), "word": st.lists(_letters, max_size=8)}),
    max_size=4)})


def _file(documents):
    return documents.map(lambda d: json.dumps(d).encode()) | st.binary(max_size=12)


@st.composite
def _invocations(draw):
    """(argv with {dir} for the scratch directory, input bytes, views bytes)."""
    command = draw(st.sampled_from(["classify", "capacity", "bounds", "enumerate",
                                    "reconstruct", "table"]))
    # table reads no input and refuses --input
    argv = [command] if command == "table" else [command, "--input", "{dir}/system.json"]
    if draw(st.booleans()):
        argv += ["--output", draw(st.sampled_from(["{dir}/out.json", "{dir}/no/out.json"]))]
    if command == "enumerate":
        # every draw passes a budget of at most 10^4 words per count
        argv += ["--n", str(draw(st.integers(-2, 20))),
                 "--budget", str(draw(st.integers(-5, 10_000)))]
        argv += draw(st.sets(st.sampled_from(["--sweep", "--verify-pairs"])))
    elif command == "reconstruct":
        argv += ["--channel", str(draw(st.integers(-1, 5))), "--views", "{dir}/views.json"]
    elif command == "table":
        argv += ["--which", draw(st.sampled_from(["q3", "q4"]))]
    return argv, draw(_file(_systems | _json)), draw(_file(_views | _json))


@settings(max_examples=150, deadline=None)
@given(_invocations())
def test_every_invocation_ends_with_a_documented_exit_code(invocation):
    argv, system_bytes, views_bytes = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in (("system.json", system_bytes), ("views.json", views_bytes)):
            with open(os.path.join(tmp, name), "wb") as handle:
                handle.write(content)
        code, stdout, stderr = run_cli([a.replace("{dir}", tmp) for a in argv])
    assert code in (0, 2, 3, 4)
    if code:
        _assert_rejected(code, stdout, stderr, code)
