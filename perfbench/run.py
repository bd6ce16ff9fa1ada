#!/usr/bin/env python3
"""Benchmark of the veroschur command line tool.

A closed loop with one client: each workload is a fixed list of CLI
commands, and every command runs as a fresh `python -m veroschur.cli ...
--format json` child, one after another, as a user would run them.  All
figures are taken from outside the program.  See README.md in this
directory for the workloads and metrics.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload plethysm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

--seed orders the commands within each pass.  --workload-seed picks the
command list: 0 gives the reference lists below, any other value draws one
command per slot from the committed same-family pools, so that a claim can
be rechecked on held-out commands.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

The end-to-end times are in reference-speed seconds: each child's raw
times are scaled by how fast a small fixed loop ran on the child's core
while the child ran.  The cores of a shared host run the same work up to
30 % faster or slower, each on its own, in spells from under a second to
minutes, and the scaling cancels those spells.  The raw times are reported
with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
TRACE_CHILD = HERE / "trace_child.py"

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120.0

# A reference-speed second is a second on a core where probe_loop() takes
# PROBE_NOMINAL_S of thread CPU time.  A probe every PROBE_INTERVAL_S takes
# about 4 % of the child's core.
PROBE_NOMINAL_S = 0.002
PROBE_INTERVAL_S = 0.05

# Each workload is a list of slots.  Workload seed 0 runs the first command
# of every slot; other seeds draw one command per slot, so every draw keeps
# the workload's mix of layers.
WORKLOADS = {
    "plethysm": [
        ["decompose sym -p 4 -d 8",
         "decompose sym -p 4 -d 7",
         "decompose wedge -p 4 -d 8"],
        ["verify ratios",
         "verify ratios --theorem wedge-tensor-share -p 3 --d-max 8",
         "verify ratios --theorem sym-vs-wedge -p 3 --d-max 18"],
    ],
    "wide": [
        ["decompose sym -p 4 -d 3 -n 8",
         "decompose sym -p 5 -d 2 -n 10",
         "decompose sym -p 6 -d 2 -n 8"],
        ["decompose wedge -p 5 -d 2 -n 10",
         "decompose wedge -p 6 -d 2 -n 9",
         "decompose wedge -p 5 -d 2 -n 9"],
        ["decompose sym -p 6 -d 2 -n 9",
         "decompose sym -p 7 -d 2 -n 8",
         "decompose sym -p 4 -d 3 -n 9"],
        ["decompose tensor -p 4 -d 3 -n 7",
         "decompose tensor -p 5 -d 2 -n 8",
         "decompose tensor -p 3 -d 3 -n 8"],
    ],
    "syzygy": [
        ["syzygy -p 3 -q 1 -d 3",
         "syzygy -p 2 -q 1 -d 5",
         "syzygy -p 2 -q 1 -d 4"],
        ["syzygy -p 3 -q 1 -d 4 -n 4",
         "syzygy -p 2 -q 1 -d 6 -n 4",
         "syzygy -p 3 -q 1 -d 3 -n 4"],
        ["syzygy -p 2 -q 1 -d 10 -n 3",
         "syzygy -p 2 -q 1 -d 9 -n 3",
         "syzygy -p 2 -q 1 -d 11 -n 3"],
        # vanishing: the output has no terms
        ["syzygy -p 2 -q 2 -d 3",
         "syzygy -p 1 -q 2 -d 6",
         "syzygy -p 1 -q 2 -d 4"],
        # twisted: the output is the length <= n truncation
        ["syzygy -p 2 -q 0 -b 1 -d 6 -n 3",
         "syzygy -p 1 -q 0 -b 2 -d 8 -n 3",
         "syzygy -p 2 -q 1 -b 1 -d 4 -n 3"],
    ],
    "cones": [
        ["cones -p 6 --d-min 1 --d-max 3",
         "cones -p 4 --d-min 1 --d-max 7",
         "cones -p 5 --d-min 1 --d-max 4"],
        # many levels: the fits and the deep lattice levels
        ["cones -p 2 --d-min 1 --d-max 60",
         "cones -p 2 --d-min 10 --d-max 80 --d-step 2",
         "cones -p 3 --d-min 1 --d-max 12"],
    ],
}

# BENCHMARK.json names two combined workloads, so that each run gets about
# twice the measuring time within the same number of runs.  On a shared
# 2-vCPU VM, ten 28 s runs of `cones` alone spread 23 % (quartile distance
# over median); the combined workloads at 55 s spread 17 % and 8 %.  The
# pairing keeps each optimisation's contrast: Kostka and lattice counting
# run only in the first, the many-variable DP and Koszul layer only in the
# second.
COMBINED = {
    "plethysm_cones": ("plethysm", "cones"),
    "wide_syzygy": ("wide", "syzygy"),
}
BASE = tuple(WORKLOADS)
WORKLOADS.update({name: [slot for part in parts for slot in WORKLOADS[part]]
                  for name, parts in COMBINED.items()})


def select_commands(workload: str, workload_seed: int) -> list[str]:
    slots = WORKLOADS[workload]
    if workload_seed == 0:
        return [slot[0] for slot in slots]
    rng = random.Random(f"{workload}/{workload_seed}")
    return [rng.choice(slot) for slot in slots]


def all_commands() -> list[str]:
    return sorted({c for slots in WORKLOADS.values() for s in slots for c in s})


# --------------------------------------------------------------------------
# host speed

def probe_loop() -> None:
    """A fixed workload of the program's kind: tuple keys, dict updates and
    integer arithmetic on a table of 4000 entries."""
    table: dict[tuple[int, ...], int] = {}
    for i in range(4000):
        key = (i % 7, i % 11, i % 13, i // 1001)
        table[key] = table.get(key, 0) + i * 3


def child_core(pid: int) -> int:
    """The core a process last ran on (field 39 of /proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[36])


def follow(pid: int, stop: threading.Event, samples: list[float]) -> None:
    """Time probe_loop() every PROBE_INTERVAL_S on the core the child runs
    on, until `stop` is set.  The cores slow down independently of each
    other, so the probe must share the child's core to see its speed."""
    me = threading.get_native_id()
    while True:
        try:
            os.sched_setaffinity(me, {child_core(pid)})
        except (OSError, IndexError, ValueError):
            if samples:  # the child has been reaped
                return
        start = thread_time()
        probe_loop()
        samples.append(thread_time() - start)
        if stop.wait(PROBE_INTERVAL_S):
            return


# --------------------------------------------------------------------------
# children

@dataclass
class ChildRun:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    digest: str
    probe: float  # mean probe_loop() time on the child's core

    @property
    def scale(self) -> float:
        """Converts this child's seconds to reference-speed seconds."""
        return PROBE_NOMINAL_S / self.probe


def child_env() -> dict[str, str]:
    """Children import the checkout's src/ and size their thread pool to the
    cores this process may run on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["VEROSCHUR_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def run_child(argv: list[str], env: dict[str, str]) -> ChildRun:
    """Run one child to completion; CPU and peak RSS are its own (wait4).
    A thread times probe_loop() on the child's core while it runs."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    stop = threading.Event()
    samples: list[float] = []
    prober = threading.Thread(target=follow, args=(proc.pid, stop, samples))
    prober.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        stop.set()
        prober.join()
        timer.cancel()
        proc.stdout.close()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, proc.returncode,
                    hashlib.sha256(out).hexdigest(), statistics.mean(samples))


def cli_argv(command: str, traced: bool) -> list[str]:
    head = [str(TRACE_CHILD)] if traced else ["-m", "veroschur.cli"]
    return [sys.executable, *head, *command.split(), "--format", "json"]


def check_program(env: dict[str, str]) -> None:
    """Fail unless the children import veroschur from this checkout.

    This also fills the bytecode cache before set-up is timed."""
    probe = subprocess.run(
        [sys.executable, "-c", "import veroschur.cli, veroschur; "
                               "print(veroschur.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    src = ROOT / "src"
    if probe.returncode != 0 or src not in Path(probe.stdout.strip()).parents:
        sys.exit(f"veroschur is not importable from {src}: "
                 f"{probe.stderr.strip() or probe.stdout.strip()}")


# --------------------------------------------------------------------------
# passes

@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    attempted: int
    failed: int
    layers: dict[str, float] | None
    # command -> (wall, cpu) in reference-speed seconds
    scaled: dict[str, tuple[float, float]]
    probes: list[float]


def run_pass(commands: list[str], env: dict[str, str],
             goldens: dict[str, dict], traced: bool) -> Pass:
    """One run of every command; the raw wall and CPU sum the children's."""
    failed = 0
    wall = cpu = rss = 0.0
    scaled = {}
    probes = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        span_files = [Path(tmp) / f"{i}.json" for i in range(len(commands))]
        for command, span_file in zip(commands, span_files):
            run_env = dict(env, PERFBENCH_SPANS=str(span_file)) if traced else env
            run = run_child(cli_argv(command, traced), run_env)
            scaled[command] = (run.wall * run.scale, run.cpu * run.scale)
            probes.append(run.probe)
            wall += run.wall
            cpu += run.cpu
            rss = max(rss, run.rss_mb)
            if goldens.get(command) != {"exit": run.code, "sha256": run.digest}:
                failed += 1
                print(f"MISMATCH {command}: exit {run.code}, "
                      f"sha256 {run.digest}", file=sys.stderr)
        layers = None
        if traced:
            dumps = [json.loads(f.read_text()) for f in span_files if f.exists()]
            layers = layer_metrics(dumps)
    return Pass(traced, wall, cpu, rss, len(commands), failed, layers,
                scaled, probes)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass, from every command's spans.

    A layer's wall and busy time sum its outermost spans: a span nested in
    one of the same name is not counted twice.  Spans on pool threads
    overlap those on the main thread, so layer times can sum to more than
    the command's wall time.
    """
    wall: Counter = Counter()
    busy: Counter = Counter()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    peaks: Counter = Counter()
    for dump in dumps:
        spans = {s[0]: s for s in dump["spans"]}
        child_wall: Counter = Counter()
        for sid, name, parent, thread, t0, t1, cpu in spans.values():
            if parent in spans and spans[parent][3] == thread:
                child_wall[parent] += t1 - t0
        for sid, name, parent, thread, t0, t1, cpu in spans.values():
            ancestor = parent
            while ancestor in spans and spans[ancestor][1] != name:
                ancestor = spans[ancestor][2]
            if ancestor in spans:
                continue
            wall[name] += t1 - t0
            busy[name] += cpu
            calls[name] += 1
            self_s[name] += t1 - t0 - child_wall[sid]
        counts.update(dump["counts"])
        for key, value in dump["peaks"].items():
            peaks[key] = max(peaks[key], value)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "tableaux.kostka.calls": calls["tableaux.kostka"],
        "tableaux.kostka.wall_s": wall["tableaux.kostka"],
        "tableaux.kostka.zero_share": share(counts["tableaux.kostka.zero"],
                                            calls["tableaux.kostka"]),
        "characters.schur_decompose.self_s": self_s["characters.schur_decompose"],
        "characters.schur_decompose.terms": counts["characters.schur_decompose.terms"],
        "characters.tensor_with_sym.wall_s": wall["characters.tensor_with_sym"],
        "characters.weight_table.wall_s": wall["characters.weight_table"],
        "characters.weight_table.entries": counts["characters.weight_table.entries"],
        "characters.weight_table.dominant_share": share(
            counts["characters.weight_table.entries"],
            counts["characters.weight_table.orbits"]),
        "koszul.build_blocks.wall_s": wall["koszul.build_blocks"],
        "koszul.build_blocks.busy_s": busy["koszul.build_blocks"],
        "koszul.blocks": counts["koszul.blocks"],
        "koszul.basis_elements": counts["koszul.basis_elements"],
        "koszul.block_dim_max": peaks["koszul.block_dim_max"],
        "koszul.basis_yield": share(counts["koszul.basis_elements"],
                                    counts["koszul.product_space"]),
        "intrank.rank_sparse.calls": calls["intrank.rank_sparse"],
        "intrank.rank_sparse.nonzeros": counts["intrank.rank_sparse.nonzeros"],
        "intrank.rank_sparse.wall_s": wall["intrank.rank_sparse"],
        "intrank.rank_sparse.busy_s": busy["intrank.rank_sparse"],
        "intrank.rank_sparse.wait_s": (wall["intrank.rank_sparse"]
                                       - busy["intrank.rank_sparse"]),
        "cones.section.wall_s": wall["cones.section"],
        "cones.lattice_count.wall_s": wall["cones.lattice_count"],
        "cones.lattice_count.points": counts["cones.lattice_count.points"],
        "cones.fit.wall_s": wall["cones.fit"],
        "constructions.ratio_experiment.wall_s": wall["constructions.ratio_experiment"],
        "cli.main.wall_s": wall["cli.main"],
    }


# --------------------------------------------------------------------------
# one workload

@dataclass
class Result:
    attempted: int
    failed: int
    values: dict[str, float]
    samples: dict[str, int]
    pass_walls: list[float]


def bench(workload: str, seed: int, seconds: float, trace: bool,
          workload_seed: int, goldens: dict[str, dict]) -> Result:
    commands = select_commands(workload, workload_seed)
    env = child_env()
    check_program(env)
    setup = [run_child([sys.executable, "-c", "import veroschur.cli"], env)
             for _ in range(SETUP_SAMPLES)]

    # A pass starts while at least half of it is expected to fit in the
    # budget, judged by the median pass of its kind so far, so that a run
    # ends within half a pass of the budget.  A traced run alternates plain
    # and traced passes, at least one each.
    rng = random.Random(seed)
    kinds = (False, True) if trace else (False,)
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        if len(passes) >= len(kinds):
            expected = statistics.median(p.wall for p in passes
                                         if p.traced == traced)
            if perf_counter() - start + expected / 2 > seconds:
                break
        order = list(commands)
        rng.shuffle(order)
        passes.append(run_pass(order, env, goldens, traced))

    # A scaled time is the sum over the commands of each one's median over
    # the plain passes: the time of one pass at reference speed.
    plain = [p for p in passes if not p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        "wall_s": sum(statistics.median(p.scaled[c][0] for p in plain)
                      for c in commands),
        "cpu_s": sum(statistics.median(p.scaled[c][1] for p in plain)
                     for c in commands),
        "peak_rss_mb": max(p.rss_mb for p in plain),
        "setup_s": statistics.median(r.wall * r.scale for r in setup),
        "raw.wall_s": statistics.median(p.wall for p in plain),
        "raw.cpu_s": statistics.median(p.cpu for p in plain),
        "raw.setup_s": statistics.median(r.wall for r in setup),
        "host.probe_s": statistics.median(x for p in plain for x in p.probes),
    }
    samples = {"wall_s": len(plain), "cpu_s": len(plain),
               "peak_rss_mb": len(plain) * len(commands),
               "setup_s": SETUP_SAMPLES, "raw.wall_s": len(plain),
               "raw.cpu_s": len(plain), "raw.setup_s": SETUP_SAMPLES,
               "host.probe_s": len(plain) * len(commands)}
    if trace:
        traced_passes = [p for p in passes if p.traced]
        names = traced_passes[0].layers
        for name in names:
            values[name] = statistics.median(p.layers[name] for p in traced_passes)
            samples[name] = len(traced_passes)
        values["trace_overhead"] = (
            statistics.median(p.wall for p in traced_passes)
            - values["raw.wall_s"])
        samples["trace_overhead"] = len(traced_passes)
        values["failed_share"] = failed / attempted
        samples["failed_share"] = attempted
    return Result(attempted, failed, values, samples,
                  [round(p.wall, 3) for p in passes])


def environment() -> str:
    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        sha = probe.stdout.strip() or sha
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"VEROSCHUR_THREADS={child_env()['VEROSCHUR_THREADS']} "
            f"python={platform.python_version()} git={sha}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="all: the four base workloads in turn")
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the commands within each pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced passes and report per-layer metrics")
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="0: reference command lists; other: draw from pools")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "veroschur").is_dir():
        sys.exit(f"no program source at {ROOT / 'src' / 'veroschur'}")
    goldens = json.loads(GOLDENS.read_text())

    names = list(BASE) if args.workload == "all" else [args.workload]
    print(f"# {environment()}")
    attempted = failed = 0
    metrics = {}
    for workload in names:
        commands = select_commands(workload, args.workload_seed)
        print(f"# workload {workload} (workload seed {args.workload_seed}, "
              f"order seed {args.seed}): {'; '.join(commands)}")
        result = bench(workload, args.seed, args.seconds, bool(args.trace),
                       args.workload_seed, goldens)
        attempted += result.attempted
        failed += result.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            value = result.values[name]
            print(f"{prefix}{name:<40} {value:>14.6f} {unit:<6} "
                  f"n={result.samples[name]}")
            metrics[prefix + name] = {"value": value, "unit": unit}
        print(f"# {workload}: pass walls (s) {result.pass_walls}; "
              f"{result.failed} of {result.attempted} command runs differ "
              f"from the goldens")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
