"""`python -m colorcap` with span recording, for traced passes of the cli workload.

Usage: python3 cli_child.py SPANS_OUT COLORCAP_ARGS...

Behaves like `python -m colorcap COLORCAP_ARGS...` (same exit code, same
output, a traceback on an uncaught exception) and writes the spans of the
call, plus one `cli.import` span for importing `colorcap.cli`, to SPANS_OUT.
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

start = perf_counter()
import colorcap.cli  # noqa: E402
imported = perf_counter()

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.spans.append((0, 0, -1, "cli.import", start, imported, None))
tracer.op = 0
tracer.install()
try:
    sys.exit(colorcap.cli.main(sys.argv[2:]))
finally:
    tracer.uninstall()
    tracer.dump(sys.argv[1])
