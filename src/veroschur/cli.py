"""Command line interface.

Subcommands: decompose (plethysm characters), syzygy (Koszul cohomology),
cones (lattice counts with cross-checks and leading-coefficient fits), and
verify (named check suites).  Output is deterministic for a fixed
configuration: JSON keys are sorted, counts are decimal strings, and no
timestamps are emitted.

Exit codes: 0 success, 1 check failure, 2 invalid arguments, 3 resource
cap exceeded, 4 internal error.

Each run is a fresh process, so start-up counts: of veroschur this module
imports only `config` and `characters` (with `partitions`), the layer
under every subcommand; each `cmd_*` imports its own layer (`koszul`,
`cones`, `verify`) when it runs, and `_emit` imports `csv` only for the
csv format.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from math import comb

from veroschur.characters import (SchurExpansion, complexity, sym_power_sym,
                                  tensor_power_sym, tensor_with_sym,
                                  total_multiplicity, wedge_power_sym)
from veroschur.config import DEFAULT_CONFIG, FORMATS, CapExceeded, RunConfig

EXIT_OK, EXIT_CHECK, EXIT_USAGE, EXIT_CAP, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default: pretty)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the draws; only verify staircase draws "
                             "anything, and seed 0 (the default) draws with "
                             "20240, while the JSON reports 0")
    parser.add_argument("--max-entries", type=int, default=None,
                        help="cap on Schur terms, Koszul basis elements, "
                             "lattice layer states and cones levels")
    parser.add_argument("--max-dim", type=int, default=None,
                        help="cap on matrix dimension")
    parser.add_argument("--max-nodes", type=int, default=None,
                        help="cap on enumeration nodes (for cones: lattice "
                             "count DP states expanded, not points)")
    parser.add_argument("--config", default=None,
                        help="key=value config file overriding defaults")
    parser.add_argument("--out", default=None, help="write output to a file")


def _config_line(cfg: RunConfig, key: str, value: str) -> RunConfig:
    """cfg with one `key=value` line of a config file applied."""
    if key == "format":
        return cfg.replace(fmt=value)
    if key not in ("max_table_entries", "max_matrix_dim", "max_enum_nodes",
                   "seed"):
        raise ValueError(f"unknown config key {key!r}")
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None
    return cfg.replace(**{key: number})


def _build_config(args: argparse.Namespace) -> RunConfig:
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


def _emit(payload: dict, fmt: str, out_path: str | None,
          csv_rows: list[list[str]] | None = None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
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
        lines.append(json.dumps(payload, sort_keys=True, indent=2))
    return "\n".join(lines) + "\n"


def _variables(args: argparse.Namespace, default: int) -> int:
    """The -n value if one was given, else the default."""
    if args.n is None:
        return default
    if args.n < 1:
        raise ValueError(f"-n must be at least 1, got {args.n}")
    return args.n


def _parse_partition(text: str) -> tuple[int, ...]:
    """A partition written as comma-separated parts, e.g. '2,1'."""
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--mu must be comma-separated integers, "
                         f"got {text!r}") from None
    if any(v < 1 for v in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"--mu must have positive, weakly decreasing parts, "
                         f"got {text!r}")
    return parts


def cmd_decompose(args: argparse.Namespace, cfg: RunConfig) -> int:
    n = _variables(args, args.p + (1 if args.tensor_sym else 0))
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


def cmd_syzygy(args: argparse.Namespace, cfg: RunConfig) -> int:
    from veroschur.koszul import KoszulSpec, syzygy_decompose

    # n = 0 lets KoszulSpec pick its default p + q + 1
    spec = KoszulSpec(args.p, args.q, args.b, args.d, _variables(args, 0))
    e = syzygy_decompose(spec, cfg)
    payload = {"command": "syzygy",
               "parameters": {"p": spec.p, "q": spec.q, "b": spec.b,
                              "d": spec.d, "n": spec.n},
               "truncation": not spec.is_faithful(),
               **_expansion_payload(e)}
    _emit(payload, cfg.fmt, args.out)
    return EXIT_OK


def cmd_cones(args: argparse.Namespace, cfg: RunConfig) -> int:
    from veroschur.cones import duality_rows, fit_leading_coefficient

    p = args.p
    if args.d_min < 0:
        raise ValueError(f"--d-min must be at least 0, got {args.d_min}")
    if args.d_step < 1:
        raise ValueError(f"--d-step must be at least 1, got {args.d_step}")
    levels = range(args.d_min, args.d_max + 1, args.d_step)
    # one output row per level, so the rows count against the table cap
    cfg.check_table(len(levels), "cones levels")
    ds = list(levels)
    if not ds:
        raise ValueError("empty d range")
    rows = [{"d": r.d, "shape_count": str(r.shape_count),
             "content_count": str(r.content_count),
             "types_check": r.types_ok, "multiplicity_check": r.multiplicity_ok}
            for r in duality_rows(p, ds, cfg)]
    mismatch = not all(r["types_check"] and r["multiplicity_check"]
                       for r in rows)
    fits = {}
    if len(ds) >= 2:
        for label, deg, key in (("types", p - 1, "shape_count"),
                                ("multiplicity", comb(p, 2), "content_count")):
            samples = [(r["d"], int(r[key])) for r in rows]
            if len(samples) >= deg + 2:
                fit = fit_leading_coefficient(samples, deg)
                fits[label] = {"degree": deg, "estimate": str(fit.estimate),
                               "relative_change": str(fit.relative_change)}
    payload = {"command": "cones", "parameters": {"p": p, "d_values": ds},
               "rows": rows, "fits": fits, "consistent": not mismatch}
    csv_rows = [["d", "shape_count", "content_count",
                 "types_check", "multiplicity_check"]]
    csv_rows += [[str(r["d"]), r["shape_count"], r["content_count"],
                  str(r["types_check"]).lower(), str(r["multiplicity_check"]).lower()]
                 for r in rows]
    for label, fit in sorted(fits.items()):
        csv_rows.append([f"fit_{label}_degree_{fit['degree']}",
                         fit["estimate"], fit["relative_change"], "", ""])
    _emit(payload, cfg.fmt, args.out, csv_rows=csv_rows)
    return EXIT_CHECK if mismatch else EXIT_OK


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    from veroschur.verify import run_suite

    if args.theorem is None:
        given = [flag for flag, value in (("-p", args.p), ("-b", args.b),
                                          ("--mu", args.mu),
                                          ("--d-max", args.d_max))
                 if value is not None]
        if given:
            raise ValueError(f"{', '.join(given)}: requires --theorem")
    params = {}
    if args.p is not None:
        params["p"] = args.p
    if args.b is not None:
        params["b"] = args.b
    if args.mu is not None:
        params["mu"] = _parse_partition(args.mu)
    payload = run_suite(args.suite, cfg, theorem=args.theorem,
                        parameters=params or None, d_max=args.d_max)
    _emit(payload, cfg.fmt, args.out)
    return EXIT_OK if payload["passed"] else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veroschur",
        description="Exact Schur decompositions of plethysms and Veronese "
                    "syzygies, cone lattice counts, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose a plethysm character")
    p_dec.add_argument("kind", choices=("tensor", "sym", "wedge"))
    p_dec.add_argument("-p", type=int, required=True, help="outer power")
    p_dec.add_argument("-d", type=int, required=True, help="inner degree")
    p_dec.add_argument("-n", type=int, default=None,
                       help="number of variables (default: faithful)")
    p_dec.add_argument("--tensor-sym", type=int, default=0, metavar="B",
                       help="tensor the result with Sym^B via horizontal strips")
    _add_common(p_dec)
    p_dec.set_defaults(fn=cmd_decompose)

    p_syz = sub.add_parser("syzygy", help="decompose a syzygy functor")
    p_syz.add_argument("-p", type=int, required=True)
    p_syz.add_argument("-q", type=int, required=True)
    p_syz.add_argument("-b", type=int, default=0)
    p_syz.add_argument("-d", type=int, required=True)
    p_syz.add_argument("-n", type=int, default=None,
                       help="number of variables (default: p+q+1)")
    _add_common(p_syz)
    p_syz.set_defaults(fn=cmd_syzygy)

    p_con = sub.add_parser("cones", help="lattice counts with cross-checks")
    p_con.add_argument("-p", type=int, required=True)
    p_con.add_argument("--d-min", type=int, required=True)
    p_con.add_argument("--d-max", type=int, required=True)
    p_con.add_argument("--d-step", type=int, default=1)
    _add_common(p_con)
    p_con.set_defaults(fn=cmd_cones)

    p_ver = sub.add_parser("verify", help="run a named check suite")
    # sorted(verify.SUITES), written out so that building the parser does
    # not import every layer; a test keeps the two equal
    p_ver.add_argument("suite", choices=("doubling", "green", "kostka-cone",
                                         "newell", "patterns", "raicu",
                                         "ratios", "staircase"))
    p_ver.add_argument("--theorem", default=None,
                       help="ratios suite: run a single named experiment")
    p_ver.add_argument("-p", type=int, default=None,
                       help="ratios suite: outer power for --theorem")
    p_ver.add_argument("-b", type=int, default=None,
                       help="ratios suite: twist degree for --theorem")
    p_ver.add_argument("--mu", default=None, metavar="PARTS",
                       help="ratios suite: partition for --theorem "
                            "schur-share, comma-separated (e.g. 2,1)")
    p_ver.add_argument("--d-max", type=int, default=None,
                       help="ratios suite: level d at which --theorem is "
                            "checked (default 20)")
    _add_common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    # the parser is not kept, so it is freed before a subcommand imports
    # its layer; compiling that layer is where a `verify` run's memory peaks
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        return args.fn(args, cfg)
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
