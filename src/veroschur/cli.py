"""Command line interface: decompose (plethysm characters), syzygy (Koszul
cohomology), cones (lattice counts with cross-checks and leading-coefficient
fits) and verify (named check suites).  Output is deterministic: JSON keys
are sorted, counts are decimal strings, and no timestamps are emitted.
Exit codes: 0 success, 1 check failure, 2 invalid arguments, 3 resource cap
exceeded, 4 internal error.

Each run is a fresh process, so start-up counts: without a bytecode cache
a process compiles every module it imports from source, so each compiles
only its command's route.  `parse_args` reads the command line from one
table, `COMMANDS`, and imports no parser module, and `_json` writes the
JSON, so no run imports `json`.  Of veroschur this module imports only
`config` and `characters` (with `partitions`), the layer under every
subcommand.  Each `cmd_*` imports the layer that builds its payload when
it runs: `syzygy` (which imports the basis search of `koszul` only for a
spec off Green's rules), `cones` or `verify`.  `_emit` imports `csv` only
for csv output.
"""

from __future__ import annotations

import io
import sys
from types import SimpleNamespace

from veroschur.characters import (SchurExpansion, complexity, sym_power_sym,
                                  tensor_power_sym, tensor_with_sym,
                                  total_multiplicity, wedge_power_sym)
from veroschur.config import DEFAULT_CONFIG, FORMATS, CapExceeded, RunConfig

EXIT_OK, EXIT_CHECK, EXIT_USAGE, EXIT_CAP, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _config_line(cfg: RunConfig, key: str, value: str) -> RunConfig:
    """cfg with one `key=value` line of a config file applied."""
    if key == "format":
        return cfg.replace(fmt=value)
    if key not in ("max_table_entries", "max_matrix_dim", "max_enum_nodes",
                   "seed"):
        raise ValueError(f"unknown config key {key!r}")
    return cfg.replace(**{key: _value(key, int, value)})


def _value(name: str, kind: type | tuple[str, ...], text: str) -> object:
    try:
        value = int(text) if kind is int else text
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if isinstance(kind, tuple) and value not in kind:
        raise ValueError(f"{name} must be one of {', '.join(kind)}, got {text!r}")
    return value


def _build_config(args: SimpleNamespace) -> RunConfig:
    """Defaults, then config-file keys, then the flags the user gave.

    Each file line is validated as it is applied, so its error names the
    file, the line number and the key."""
    cfg = DEFAULT_CONFIG
    if args.config:
        with open(args.config) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                try:
                    cfg = _config_line(cfg, key.strip().replace("-", "_"),
                                       value.strip())
                except ValueError as exc:
                    raise ValueError(f"{args.config}:{number}: {exc}") from None
    flags = {"max_table_entries": args.max_entries,
             "max_matrix_dim": args.max_dim,
             "max_enum_nodes": args.max_nodes,
             "seed": args.seed, "fmt": args.format}
    return cfg.replace(**{k: v for k, v in flags.items() if v is not None})


def _expansion_payload(e: SchurExpansion) -> dict:
    return {
        "n": e.n,
        "degree": e.degree,
        "terms": [{"lambda": list(lam), "mult": str(c)}
                  for lam, c in e.terms.items()],
        "total_multiplicity": str(total_multiplicity(e)),
        "complexity": str(complexity(e)),
    }


# what json.dumps(ensure_ascii=True) writes for the characters it escapes
# by name; every other one outside ' '..'~' is written \uXXXX
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}


def _quote(text: str) -> str:
    """text as a JSON string literal with ASCII escapes."""
    if text.isascii() and text.isprintable() and '"' not in text \
            and "\\" not in text:
        return f'"{text}"'
    out = []
    for ch in text:
        code = ord(ch)
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif " " <= ch <= "~":
            out.append(ch)
        elif code < 0x10000:
            out.append(f"\\u{code:04x}")
        else:  # a surrogate pair
            code -= 0x10000
            out.append(f"\\u{0xd800 | code >> 10:04x}"
                       f"\\u{0xdc00 | code & 0x3ff:04x}")
    return '"' + "".join(out) + '"'


def _json(value: object, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a dict with str
    keys, list, tuple, str, int, bool or None, nested at the given indent;
    any other type raises TypeError.  It recurses as deep as the value
    nests, which each command's payload fixes (p and d do not reach it)."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = [f"{inner}{_quote(key)}: {_json(item, inner)}"
                 for key, item in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [inner + _json(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"


def _emit(payload: dict, fmt: str, out_path: str | None,
          csv_rows: list[list[str]] | None = None) -> None:
    if fmt == "json":
        text = _json(payload) + "\n"
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows or _payload_as_rows(payload):
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = _pretty(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _payload_as_rows(payload: dict) -> list[list[str]]:
    if "terms" in payload:
        rows = [["lambda", "mult"]]
        rows += [[" ".join(map(str, t["lambda"])), t["mult"]]
                 for t in payload["terms"]]
        rows.append(["total_multiplicity", payload["total_multiplicity"]])
        rows.append(["complexity", payload["complexity"]])
        return rows
    if "checks" in payload:
        rows = [["check", "passed", "detail"]]
        rows += [[c["name"], str(c["passed"]).lower(), c["detail"]]
                 for c in payload["checks"]]
        return rows
    raise ValueError("no CSV rendering for this payload")


def _pretty(payload: dict) -> str:
    lines = []
    if "terms" in payload:
        header = payload.get("command", "decomposition")
        lines.append(f"# {header}  n={payload['n']}  degree={payload['degree']}")
        if payload.get("truncation"):
            lines.append("# result is the length <= n truncation")
        for t in payload["terms"]:
            lam = "(" + ",".join(map(str, t["lambda"])) + ")"
            lines.append(f"{lam:<30} {t['mult']}")
        lines.append(f"N = {payload['total_multiplicity']}   "
                     f"c = {payload['complexity']}")
    elif "checks" in payload:
        lines.append(f"# suite {payload['suite']}")
        for c in payload["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['name']}: {c['detail']}")
        lines.append("PASSED" if payload["passed"] else "FAILED")
    else:
        lines.append(_json(payload))
    return "\n".join(lines) + "\n"


def cmd_decompose(args: SimpleNamespace, cfg: RunConfig) -> int:
    # a given -n is at least 1, the table's minimum
    n = args.n or args.p + (1 if args.tensor_sym else 0)
    powers = {"tensor": tensor_power_sym, "sym": sym_power_sym,
              "wedge": wedge_power_sym}
    e = powers[args.kind](args.p, args.d, n, cfg)
    if args.tensor_sym:
        e = tensor_with_sym(e, args.tensor_sym, cfg)
    payload = {"command": "decompose", "kind": args.kind,
               "parameters": {"p": args.p, "d": args.d, "n": n,
                              "tensor_sym": args.tensor_sym},
               **_expansion_payload(e)}
    _emit(payload, cfg.fmt, args.out)
    return EXIT_OK


def cmd_syzygy(args: SimpleNamespace, cfg: RunConfig) -> int:
    from veroschur.syzygy import KoszulSpec, syzygy_decompose

    # n = 0 lets KoszulSpec pick its default p + q + 1
    spec = KoszulSpec(args.p, args.q, args.b, args.d, args.n or 0)
    e = syzygy_decompose(spec, cfg)
    payload = {"command": "syzygy",
               "parameters": {"p": spec.p, "q": spec.q, "b": spec.b,
                              "d": spec.d, "n": spec.n},
               "truncation": not spec.is_faithful(),
               **_expansion_payload(e)}
    _emit(payload, cfg.fmt, args.out)
    return EXIT_OK


def cmd_cones(args: SimpleNamespace, cfg: RunConfig) -> int:
    from veroschur.cones import cones_payload

    payload, csv_rows = cones_payload(
        args.p, range(args.d_min, args.d_max + 1, args.d_step), cfg)
    _emit(payload, cfg.fmt, args.out, csv_rows=csv_rows)
    return EXIT_OK if payload["consistent"] else EXIT_CHECK


def cmd_verify(args: SimpleNamespace, cfg: RunConfig) -> int:
    from veroschur.verify import run_suite

    payload = run_suite(args.suite, cfg, args.theorem, args.p, args.b,
                        args.mu, args.d_max)
    _emit(payload, cfg.fmt, args.out)
    return EXIT_OK if payload["passed"] else EXIT_CHECK


def _arg(kind: type | tuple[str, ...], text: str, default: object = None,
         required: bool = False, minimum: int | None = None) -> tuple:
    return kind, text, default, required, minimum


# The command line: per subcommand its handler, help and arguments, of
# which the one without a dash is the positional, plus the COMMON options.
# An argument: kind (int, str or choices), help, default, required, minimum.
COMMON = {
    "--format": _arg(FORMATS, "output format (default: pretty)"),
    "--seed": _arg(int, "seed of the draws (only verify staircase draws)"),
    "--max-entries": _arg(int, "cap on Schur terms, basis size, layer states"),
    "--max-dim": _arg(int, "cap on matrix dimension"),
    "--max-nodes": _arg(int, "cap on enumeration nodes or DP states"),
    "--config": _arg(str, "key=value config file overriding defaults"),
    "--out": _arg(str, "write output to a file"),
}
COMMANDS = {
    "decompose": (cmd_decompose, "decompose a plethysm character", {
        "kind": _arg(("tensor", "sym", "wedge"), "the power", required=True),
        "-p": _arg(int, "outer power", required=True),
        "-d": _arg(int, "inner degree", required=True),
        "-n": _arg(int, "variables (default: faithful)", minimum=1),
        "--tensor-sym": _arg(int, "tensor the result with Sym^B", 0)}),
    "syzygy": (cmd_syzygy, "decompose a syzygy functor", {
        "-p": _arg(int, "homological degree", required=True),
        "-q": _arg(int, "row of the Betti table", required=True),
        "-b": _arg(int, "twist degree", 0),
        "-d": _arg(int, "Veronese degree", required=True),
        "-n": _arg(int, "variables (default: p+q+1)", minimum=1)}),
    "cones": (cmd_cones, "lattice counts with cross-checks", {
        "-p": _arg(int, "outer power", required=True),
        "--d-min": _arg(int, "first level", required=True, minimum=0),
        "--d-max": _arg(int, "last level", required=True),
        "--d-step": _arg(int, "step between levels", 1, minimum=1)}),
    "verify": (cmd_verify, "run a named check suite", {
        # sorted(verify.SUITES), spelled out to import no layer (tested)
        "suite": _arg(("doubling", "green", "kostka-cone", "newell",
                       "patterns", "raicu", "ratios", "staircase"),
                      "the check suite", required=True),
        "--theorem": _arg(str, "ratios suite: run one named experiment"),
        "-p": _arg(int, "outer power for --theorem"),
        "-b": _arg(int, "twist degree for --theorem"),
        "--mu": _arg(str, "partition for --theorem, e.g. 2,1"),
        "--d-max": _arg(int, "level of --theorem's check (default 20)")}),
}
HELP = ["-h", "--help"]


def _option(token: str, names: list[str]) -> tuple[str, str | None] | None:
    """The option a token names, with its attached value (`--opt=v`, `-pV`);
    None for a value, such as a negative number, as in the stdlib parser."""
    name, eq, value = token.partition("=")
    if token in names or eq and name in names:
        return (token, None) if token in names else (name, value)
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[1] == "-":
        hits = [(n, value if eq else None) for n in names
                if n.startswith(name)]
    else:
        hits = [(token[:2], token[2:])] if token[:2] in names else []
    if len(hits) > 1:
        raise ValueError(f"ambiguous option {token}: could be "
                         f"{', '.join(n for n, _ in hits)}")
    whole, dot, frac = token[1:].partition(".")
    if hits or " " in token or ((whole.isdecimal() or dot and not whole)
                                and (not dot or frac.isdecimal())):
        return hits[0] if hits else None
    raise ValueError(f"unknown option {token}")


def _help(command: str | None) -> str:
    rows = {name: spec[1] for name, spec in COMMANDS.items()}
    if command:
        rows = {name: "(required) " * arg[3] + arg[1] + (": " + ", ".join(
            arg[0]) if isinstance(arg[0], tuple) else "")
            for name, arg in {**COMMANDS[command][2], **COMMON}.items()}
    return (f"usage: veroschur {command or 'COMMAND'} [ARGS]\n"
            + "".join(f"  {name:<14}{text}\n" for name, text in rows.items()))


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The subcommand's arguments over their defaults, and its handler as
    `fn`; or the help text.  Of a repeated option the last one wins."""
    command = argv[0] if argv else ""
    if _option(command, HELP):
        return _help(None)
    if command not in COMMANDS:
        raise ValueError(f"the command must be one of {', '.join(COMMANDS)}, "
                         f"got {command!r}")
    fn, _, own = COMMANDS[command]
    spec = {**own, **COMMON}
    names = [name for name in spec if name[0] == "-"] + HELP
    free, given = [name for name in own if name[0] != "-"], {}
    tokens = iter(argv[1:])
    for token in tokens:
        hit = _option(token, names)
        if hit is None and not free:
            raise ValueError(f"unexpected argument {token!r}")
        name, value = hit or (free.pop(), token)
        if name in HELP:
            return _help(command)
        if value is None:
            value = next(tokens, None)
            if value is None or _option(value, names):
                raise ValueError(f"{name} needs a value")
        given[name] = _value(name, spec[name][0], value)
    for name, (_, _, _, required, least) in own.items():
        if required and name not in given:
            raise ValueError(f"missing {name}")
        if least is not None and given.get(name, least) < least:
            raise ValueError(f"{name} must be at least {least}, got {given[name]}")
    return SimpleNamespace(command=command, fn=fn, **{
        name.lstrip("-").replace("-", "_"): given.get(name, arg[2])
        for name, arg in spec.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
        return args.fn(args, _build_config(args))
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # exit 1 is reserved for a failed check, so a crash gets its own
        # code and a one-line message
        first = str(exc).splitlines()[0] if str(exc) else ""
        print(f"internal error: {type(exc).__name__}: {first}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
