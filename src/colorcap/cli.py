"""JSON-in, JSON-out command line for channel system analysis.

Input documents look like {"q": 4, "channels": [[1,2],[2,3]], "label": "x"};
results echo the input and add the requested analysis.  Exit codes: 0 on
success (exact or bounds alike), 2 on malformed input, 3 on an enumeration
budget refusal, 4 on inconsistent reconstruction views.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from types import SimpleNamespace

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
    """Write doc as indented JSON to stdout ("-") or over the file at path."""
    _write(json.dumps(doc, indent=2) + "\n", path)


def _write(text: str, path: str) -> None:
    """Write text to stdout ("-") or over the file at path, cutting any old tail.

    The file is overwritten in place, not emptied first, so the write is no
    more atomic than open(path, "w"): a crash mid-write leaves the old tail.
    """
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


# ---------------------------------------------------------------------------
# argv

_INPUT = ("--input", "FILE", str, False, "-", "system document (JSON); '-' reads stdin")
_OUTPUT = ("--output", "FILE", str, False, "-", "result document (JSON); '-' writes stdout")
_HELP = ("--help", None, None, False, False, "show this help message and exit")

# Each command's help line and options, read by parse_args and by the help
# text.  An option is (flag, metavar or None for an on/off flag, type: int,
# str or the strings allowed, required, default, help); its attribute is the
# flag less "--", with "_" for "-".
OPTIONS = {
    "classify": ("structural class of the system", (_INPUT, _OUTPUT)),
    "capacity": ("capacity, exact where a formula applies", (_INPUT, _OUTPUT)),
    "bounds": ("clique sandwich, ignoring exact formulas", (_INPUT, _OUTPUT)),
    "enumerate": ("exact output counting over trace normal forms", (
        _INPUT, _OUTPUT,
        ("--n", "N", int, True, None, "block length"),
        ("--sweep", None, None, False, False, "report every length 1..N"),
        ("--verify-pairs", None, None, False, False,
         "also count the system exhaustively and compare with the pairs-graph count"),
        ("--budget", "B", int, False, None,
         f"cap on q^N, the number of words a count covers (default {DEFAULT_BUDGET})"),
    )),
    "reconstruct": ("rebuild one channel's view from pairwise views", (
        _INPUT, _OUTPUT,
        ("--channel", "IDX", int, True, None, "1-based channel index"),
        ("--views", "FILE", str, True, None,
         'JSON file: {"views": [{"pair": [a,b], "word": [...]}]}'),
    )),
    "table": ("built-in capacity catalog (reads no input)", (
        _OUTPUT,
        ("--which", "{" + ",".join(sorted(TABLE_SYSTEMS)) + "}", tuple(sorted(TABLE_SYSTEMS)),
         True, None, "catalog to print"),
    )),
}


def _option(token: str, flags: dict):
    """None when token is a value; for an option, (the row of flags it names,
    or None when it names none, and the value given after "=", or None)."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] != "-":
        if token[:2] == "-h":  # anything after -h is a value given to it
            return _HELP, token[2:] or None
        # a negative number, or any text with a space, is a value
        if re.fullmatch(r"-\d+|-\d*\.\d+", token) or " " in token:
            return None
        return None, None
    name, eq, value = token.partition("=")
    row = flags.get(name)
    if row is None and len(name) > 2:
        rows = [row for flag, row in flags.items() if flag.startswith(name)]
        row = rows[0] if len(rows) == 1 else None
    if row is None and " " in token:
        return None
    return row, value if eq else None


def _value(row, value: str):
    flag, _, kind = row[:3]
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise SchemaError(f"argument {flag}: invalid int value: {value!r}") from None
    if kind is not str and value not in kind:
        raise SchemaError(f"argument {flag}: invalid choice: {value!r} "
                          f"(choose from {', '.join(map(repr, kind))})")
    return value


def parse_args(argv=None):
    """argv (default sys.argv[1:]) as a namespace of its command and that
    command's options, or the help text when argv asks for help.

    An option is read from "--opt VALUE" or "--opt=VALUE", and its name may
    be cut to a prefix that no other option of the command shares; the last
    value given wins.  A token that starts with "-" is an option, except "-"
    itself and a negative number, so "--n -1" gives -1.  Refusals raise
    SchemaError.
    """
    argv = sys.argv[1:] if argv is None else argv
    unknown = []
    for i, token in enumerate(argv):
        found = _option(token, {"--help": _HELP})
        if found is None:
            break
        if found[0] is None:
            unknown.append(token)
        elif found[1] is not None:
            raise SchemaError(f"argument -h/--help: ignored explicit argument {found[1]!r}")
        else:
            return _help(None)
    else:
        raise SchemaError("the following arguments are required: command")
    command = argv[i]
    if command not in OPTIONS:
        raise SchemaError(f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, OPTIONS))})")
    rows = OPTIONS[command][1]
    flags = {row[0]: row for row in (_HELP, *rows)}
    tokens = [(token, _option(token, flags)) for token in argv[i + 1:]]
    values = {row[0]: row[4] for row in rows}
    j = 0
    while j < len(tokens):
        token, found = tokens[j]
        j += 1
        if found is None or found[0] is None:
            unknown.append(token)
            continue
        row, value = found
        flag = row[0]
        if row[1] is None:
            if value is not None:
                raise SchemaError(f"argument {flag}: ignored explicit argument {value!r}")
            if row is _HELP:
                return _help(command)
            values[flag] = True
            continue
        if value is None:
            if j == len(tokens) or tokens[j][1] is not None:
                raise SchemaError(f"argument {flag}: expected one argument")
            value = tokens[j][0]
            j += 1
        values[flag] = _value(row, value)
    missing = [row[0] for row in rows if row[3] and values[row[0]] is None]
    if missing:
        raise SchemaError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise SchemaError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def _wrap(lead: str, words, indent: int) -> list:
    """lead, padded to indent - 1 columns, then words one space apart; a word
    that would pass column 79 starts a new line, indented by indent."""
    lines = [lead.ljust(indent - 1)]
    for word in words:
        if len(lines[-1]) >= indent and len(lines[-1]) + 1 + len(word) > 79:
            lines.append(" " * (indent - 1))
        lines[-1] += " " + word
    return lines


def _help(command) -> str:
    """The help text of colorcap (command None) or of one command."""
    usage, options = ["[-h]"], [("-h, --help", _HELP[-1])]
    if command is None:
        prog, text = "colorcap", ("capacities, bounds, and exhaustive checks for "
                                  "systems of coloring channels")
        usage += ["{" + ",".join(OPTIONS) + "}", "..."]
        sections = {"commands": [(name, line) for name, (line, _) in OPTIONS.items()],
                    "options": options}
    else:
        prog, (text, rows) = f"colorcap {command}", OPTIONS[command]
        for flag, metavar, _, required, _, line in rows:
            name = flag if metavar is None else f"{flag} {metavar}"
            usage.append(name if required else f"[{name}]")
            options.append((name, line))
        sections = {"options": options}
    column = 4 + max(len(name) for rows in sections.values() for name, _ in rows)
    lines = _wrap(f"usage: {prog}", usage, len(prog) + 8) + ["", text]
    for title, rows in sections.items():
        lines += ["", f"{title}:"]
        for name, line in rows:
            lines += _wrap(f"  {name}", line.split(), column)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    """Run one command on argv (default sys.argv[1:]) and return its exit code.

    main may be called any number of times in one process; each call reads
    stdin and stdout afresh and keeps no state for the next.  A call that
    asks for help writes it to stdout and returns 0.
    """
    try:
        args = parse_args(argv)
        if isinstance(args, str):
            _write(args, "-")
        else:
            write_json(COMMANDS[args.command](args), args.output)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[k] for k in type(exc).__mro__ if k in EXIT_CODES)
    return 0
