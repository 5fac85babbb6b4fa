"""JSON-in, JSON-out command line for channel system analysis.

Input documents look like {"q": 4, "channels": [[1,2],[2,3]], "label": "x"};
results echo the input and add the requested analysis.  Exit codes: 0 on
success (exact or bounds alike), 2 on malformed input, 3 on an enumeration
budget refusal, 4 on inconsistent reconstruction views.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import stat
import sys

from .bounds import bounds
from .capacity import CapacityResult, capacity
from .channels import (
    DEFAULT_BUDGET, BudgetExceededError, ChannelSystem, ReconstructionError, _is_int,
)
from .systems import SystemClass, TwoSets, classify

# colorcap.oracle and decimal are imported where they are used: enumerate and
# reconstruct load the oracle, format_sig loads decimal, so a command that
# needs neither does not pay for them


class SchemaError(ValueError):
    """The input document does not match the expected shape."""


# ---------------------------------------------------------------------------
# document parsing and serialization


def _refuse_unknown(obj: dict, fields: set, where: str = "") -> None:
    unknown = sorted(set(obj) - fields)
    if unknown:
        raise SchemaError(f"{where}unknown field {unknown[0]!r}")


def parse_system_document(obj) -> tuple[ChannelSystem, dict]:
    """Validate a {"q", "channels", "label"?} document; errors name the spot."""
    if not isinstance(obj, dict):
        raise SchemaError("top-level document must be a JSON object")
    _refuse_unknown(obj, {"q", "channels", "label"})
    if "q" not in obj:
        raise SchemaError('missing field "q"')
    q = obj["q"]
    if not _is_int(q) or q < 2:
        raise SchemaError(f'"q" must be an integer >= 2, got {q!r}')
    if "channels" not in obj:
        raise SchemaError('missing field "channels"')
    channels = obj["channels"]
    if not isinstance(channels, list) or not channels:
        raise SchemaError('"channels" must be a non-empty list')
    for i, ch in enumerate(channels):
        if not isinstance(ch, list) or not ch:
            raise SchemaError(f"channels[{i}] must be a non-empty list")
        seen = set()
        for j, a in enumerate(ch):
            if not _is_int(a) or not 1 <= a <= q:
                raise SchemaError(f"channels[{i}][{j}]: letter {a!r} outside 1..{q}")
            if a in seen:
                raise SchemaError(f"channels[{i}]: duplicate letter {a}")
            seen.add(a)
    echo = {"q": q, "channels": channels}
    if "label" in obj:
        if not isinstance(obj["label"], str):
            raise SchemaError(f'"label" must be a string, got {obj["label"]!r}')
        echo["label"] = obj["label"]
    return ChannelSystem(q, channels), echo


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def read_json(path: str):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw, object_pairs_hook=_unique_keys)
    except SchemaError as exc:
        raise SchemaError(f"{exc} in {path}") from None
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _open_in_place(path: str, flags: int) -> int:
    # open(path, "w") without O_TRUNC, in the built-in open's mode: emptying a
    # file that holds data costs more than overwriting it (ext4 flushes it)
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_json(doc: dict, path: str) -> None:
    """Write doc to stdout ("-") or over the file at path, cutting any old tail.

    The file is overwritten in place, not emptied first, so the write is no
    more atomic than open(path, "w"): a crash mid-write leaves the old tail.
    """
    text = json.dumps(doc, indent=2) + "\n"
    try:
        if path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", opener=_open_in_place) as handle:
                handle.write(text)
                handle.flush()
                # only a regular file has an old tail to cut: a FIFO's size
                # counts unread bytes, and /dev/null refuses truncate
                st = os.fstat(handle.fileno())
                if stat.S_ISREG(st.st_mode) and st.st_size > handle.buffer.tell():
                    handle.truncate()
    except OSError as exc:
        if path == "-":
            # Bytes left in stdout's buffer would fail again at the flush on
            # interpreter exit; send them to the null device instead.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def system_dict(system: ChannelSystem) -> dict:
    return {"q": system.q, "channels": [sorted(c) for c in system.channels]}


def class_dict(cls: SystemClass) -> dict:
    """{"type": snake_case class name, **fields}, systems as system_dict."""
    out = {"type": re.sub(r"(?<!^)(?=[A-Z])", "_", type(cls).__name__).lower()}
    for name, value in vars(cls).items():
        if isinstance(value, ChannelSystem):
            value = system_dict(value)
        elif isinstance(value, tuple):
            value = [system_dict(c) for c in value]
        out[name] = value
    if isinstance(cls, TwoSets) and cls.p1 == cls.p2:
        out["sunflower_equivalent"] = {"k": cls.k, "p": cls.p1, "t": 2}
    return out


def format_sig(value: float) -> str:
    """Round to 5 significant digits (half-even), keeping zeros."""
    if value == int(value):
        return str(int(value))
    from decimal import Decimal  # loaded by the first non-integer value

    # g rounds the exact binary value; Decimal keeps the notation (E below 1e-6)
    return str(Decimal(f"{value:#.5g}"))


def capacity_dict(result: CapacityResult) -> dict:
    out = result.as_dict()
    if result.kind == "exact":
        out["display"] = format_sig(result.value)
    else:
        out["display"] = f"[{format_sig(result.lower)}, {format_sig(result.upper)}]"
    return out


# ---------------------------------------------------------------------------
# commands

# catalog systems: every irreducible structure on a full q=3 or q=4 alphabet,
# one representative per pairs graph, in fixed row order
TABLE_SYSTEMS = {
    "q3": [
        (3, [[1, 2, 3]]),
        (3, [[1, 3], [2, 3]]),
    ],
    "q4": [
        (4, [[1, 2, 3, 4]]),
        (4, [[1, 2, 3], [1, 3, 4]]),
        (4, [[1, 2], [2, 3], [3, 4], [4, 1]]),
        (4, [[1, 2], [1, 3, 4]]),
        (4, [[1, 2], [1, 3], [1, 4]]),
        (4, [[1, 2], [2, 3], [3, 4]]),
    ],
}


def _load_system(args) -> tuple[ChannelSystem, dict]:
    return parse_system_document(read_json(args.input))


def cmd_classify(args) -> dict:
    system, echo = _load_system(args)
    return {"input": echo, "class": class_dict(classify(system))}


def cmd_capacity(args) -> dict:
    system, echo = _load_system(args)
    return {"input": echo, "class": class_dict(classify(system)),
            "capacity": capacity_dict(capacity(system))}


def cmd_bounds(args) -> dict:
    system, echo = _load_system(args)
    return {"input": echo, "class": class_dict(classify(system)),
            "capacity": capacity_dict(bounds(system))}


def cmd_enumerate(args) -> dict:
    from .oracle import count_outputs, count_sweep, verify_pairs_equality

    system, echo = _load_system(args)
    if args.sweep and args.n < 1:
        raise SchemaError(f"--n must be >= 1, got {args.n}")
    doc = {"input": echo, "class": class_dict(classify(system))}
    reports = []
    try:  # the library refuses a negative --n or --budget with ValueError
        if args.sweep:
            try:
                for report in count_sweep(system, args.n, budget=args.budget):
                    reports.append(report)
            except BudgetExceededError:
                doc["truncated"] = True
        else:
            reports.append(count_outputs(system, args.n, budget=args.budget))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    doc["enumeration"] = [
        {"n": r.n, "count": str(r.count), "rate": r.rate, "elapsed": r.elapsed}
        for r in reports
    ]
    if args.verify_pairs:
        # the report already holds the count at N, unless the sweep stopped short
        count = reports[-1].count if "truncated" not in doc else None
        try:
            doc["pairs_equal"] = verify_pairs_equality(system, args.n, budget=args.budget,
                                                       count=count)
        except ValueError as exc:
            raise SchemaError(f"--verify-pairs: {exc}") from exc
    return doc


def cmd_reconstruct(args) -> dict:
    from .oracle import reconstruct_view

    system, echo = _load_system(args)
    if not 1 <= args.channel <= system.t:
        raise SchemaError(f"--channel {args.channel} out of range 1..{system.t}")
    channel = system.channels[args.channel - 1]
    if len(channel) < 2:
        raise SchemaError(f"--channel {args.channel} has one letter; "
                          "reconstruction needs at least 2")
    views_doc = read_json(args.views)
    if isinstance(views_doc, dict):
        _refuse_unknown(views_doc, {"views"}, "views document: ")
    if not isinstance(views_doc, dict) or "views" not in views_doc:
        raise SchemaError('views document must be an object with a "views" list')
    entries = views_doc["views"]
    if not isinstance(entries, list):
        raise SchemaError('"views" must be a list')
    pair_views = {}
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            _refuse_unknown(entry, {"pair", "word"}, f"views[{i}]: ")
        if not isinstance(entry, dict) or "pair" not in entry or "word" not in entry:
            raise SchemaError(f'views[{i}] must be an object with "pair" and "word"')
        pair = entry["pair"]
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(_is_int(a) and 1 <= a <= system.q for a in pair)
                or pair[0] == pair[1]):
            raise SchemaError(f"views[{i}].pair must be two distinct letters "
                              f"in 1..{system.q}")
        word = entry["word"]
        if not isinstance(word, list) or not all(map(_is_int, word)):
            raise SchemaError(f"views[{i}].word must be a list of integers")
        key = frozenset(pair)
        if key in pair_views:
            raise SchemaError(f"views[{i}].pair {pair} repeats an earlier pair")
        pair_views[key] = tuple(word)
    word = reconstruct_view(pair_views, channel)
    return {"input": echo, "channel": args.channel,
            "letters": sorted(channel), "word": list(word)}


def cmd_table(args) -> dict:
    rows = []
    for q, channels in TABLE_SYSTEMS[args.which]:
        system = ChannelSystem(q, channels)
        result = capacity(system)
        rows.append({"system": system_dict(system),
                     "class": class_dict(classify(system)),
                     "capacity": capacity_dict(result)})
    return {"table": args.which, "rows": rows}


COMMANDS = {
    "classify": cmd_classify,
    "capacity": cmd_capacity,
    "bounds": cmd_bounds,
    "enumerate": cmd_enumerate,
    "reconstruct": cmd_reconstruct,
    "table": cmd_table,
}

# main's exit code for each refusal; a subclass takes its nearest base's code
EXIT_CODES = {SchemaError: 2, BudgetExceededError: 3, ReconstructionError: 4}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="colorcap",
        description="capacities, bounds, and exhaustive checks for systems "
                    "of coloring channels")
    in_parent = argparse.ArgumentParser(add_help=False)
    in_parent.add_argument("--input", default="-", metavar="FILE",
                           help="system document (JSON); '-' reads stdin")
    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--output", default="-", metavar="FILE",
                            help="result document (JSON); '-' writes stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", parents=[in_parent, out_parent],
                   help="structural class of the system")
    sub.add_parser("capacity", parents=[in_parent, out_parent],
                   help="capacity, exact where a formula applies")
    sub.add_parser("bounds", parents=[in_parent, out_parent],
                   help="clique sandwich, ignoring exact formulas")
    enum = sub.add_parser("enumerate", parents=[in_parent, out_parent],
                          help="exact output counting over trace normal forms")
    enum.add_argument("--n", type=int, required=True, metavar="N",
                      help="block length")
    enum.add_argument("--sweep", action="store_true",
                      help="report every length 1..N")
    enum.add_argument("--verify-pairs", action="store_true", dest="verify_pairs",
                      help="also count the system exhaustively and compare "
                           "with the pairs-graph count")
    enum.add_argument("--budget", type=int, default=None, metavar="B",
                      help=f"cap on q^N, the number of words a count covers "
                           f"(default {DEFAULT_BUDGET})")
    rec = sub.add_parser("reconstruct", parents=[in_parent, out_parent],
                         help="rebuild one channel's view from pairwise views")
    rec.add_argument("--channel", type=int, required=True, metavar="IDX",
                     help="1-based channel index")
    rec.add_argument("--views", required=True, metavar="FILE",
                     help='JSON file: {"views": [{"pair": [a,b], "word": [...]}]}')
    tab = sub.add_parser("table", parents=[out_parent],
                         help="built-in capacity catalog (reads no input)")
    tab.add_argument("--which", required=True, choices=sorted(TABLE_SYSTEMS),
                     help="catalog to print")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import, and shared by later calls
    return build_parser()


def main(argv=None) -> int:
    """Run one command on argv (default sys.argv[1:]) and return its exit code.

    main may be called any number of times in one process.  The calls share
    one parser, built on the first call; each call reads stdin and stdout
    afresh and keeps no state for the next.
    """
    try:
        args = _parser().parse_args(argv)
        write_json(COMMANDS[args.command](args), args.output)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[k] for k in type(exc).__mro__ if k in EXIT_CODES)
    return 0
