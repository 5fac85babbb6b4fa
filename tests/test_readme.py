"""The README's examples, run against the package that is imported."""

import contextlib
import io
import pathlib
import re
import subprocess
import sys

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    """The first fenced block of the language after the heading."""
    after = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def test_quick_start_prints_its_comments():
    code = _block("## Library quick start", "python")
    expected = [line.split("# ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def test_cli_example_lines_appear_in_the_output():
    example = _block("## Command line", "sh")
    document = re.search(r"echo '(.*)' \| colorcap capacity\n", example).group(1)
    proc = subprocess.run([sys.executable, "-m", "colorcap", "capacity"], input=document,
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    for key in ("lower", "upper", "display"):
        [line] = [line for line in example.splitlines() if line.lstrip().startswith(f'"{key}"')]
        assert line in lines
