#!/usr/bin/env python3
"""Write goldens.json: the exit code and stdout SHA-256 of every command in
every workload pool, as the program in ./src produces them now.

Run from the root of a checkout:  python3 perfbench/make_goldens.py

Each command runs twice and must give the same bytes both times.  Regenerate
only when the program's output is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import GOLDENS, all_commands, check_program, child_env, cli_argv, run_child


def main() -> int:
    env = child_env()
    check_program(env)
    goldens = {}
    for command in all_commands():
        runs = [run_child(cli_argv(command, traced=False), env) for _ in range(2)]
        if runs[0].digest != runs[1].digest or runs[0].code != runs[1].code:
            sys.exit(f"output of {command!r} differs between two runs")
        goldens[command] = {"exit": runs[0].code, "sha256": runs[0].digest}
        print(f"{runs[0].wall:7.2f} s  exit {runs[0].code}  {command}", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
