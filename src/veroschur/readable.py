"""The output that people read: the pretty and csv renderings of a
command's payload, and the help text.

`cli` imports this module only for `--format pretty` or `csv` and for
`-h`, so a `--format json` run, the format that scripts and the benchmark
use, compiles none of it.  The JSON writer and the command table stay in
`cli` and are passed in, so that importing this module never compiles
`cli` a second time when `cli` runs as `__main__`.  `csv` is imported
only for csv output.
"""

from __future__ import annotations

import io
from typing import Callable


def render(payload: dict, fmt: str, csv_rows: list[list[str]] | None,
           as_json: Callable[[object], str]) -> str:
    """payload as csv (csv_rows when the command gave them) or as pretty
    text, which falls back to as_json for a payload without terms or
    checks."""
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows or _payload_as_rows(payload):
            writer.writerow(row)
        return buf.getvalue()
    return _pretty(payload, as_json)


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


def _pretty(payload: dict, as_json: Callable[[object], str]) -> str:
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
        lines.append(as_json(payload))
    return "\n".join(lines) + "\n"


def help_text(command: str | None, commands: dict, common: dict) -> str:
    """The usage line and one row per command, or per argument of command
    (its own, then the common options), from cli's table."""
    rows = {name: spec[1] for name, spec in commands.items()}
    if command:
        rows = {name: "(required) " * arg[3] + arg[1] + (": " + ", ".join(
            arg[0]) if isinstance(arg[0], tuple) else "")
            for name, arg in {**commands[command][2], **common}.items()}
    return (f"usage: veroschur {command or 'COMMAND'} [ARGS]\n"
            + "".join(f"  {name:<14}{text}\n" for name, text in rows.items()))
