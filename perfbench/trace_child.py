"""Run one veroschur CLI command with spans around the calls into each layer.

Usage: PERFBENCH_SPANS=OUT.json python3 trace_child.py <cli arguments>

The wrappers live here, outside the program: after `veroschur.cli` has
imported every module, each traced function is replaced by a wrapper in
every veroschur module that holds it by name, so calls made through
`from ... import` names are traced too.  stdout stays exactly what the CLI
prints.  At exit the spans and counters are written to $PERFBENCH_SPANS as
JSON: spans are [id, name, parent, thread, start, end, busy] with times in
seconds (perf_counter for start/end, thread_time for busy).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from collections import Counter
from math import comb, factorial
from time import perf_counter, thread_time


class Tracer:
    """Keeps spans and counters in memory until dump().

    Counters are updated from the program's pool threads too, so they go
    through a lock; appending a span to a list needs none.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        # work handed to pool threads hangs off the command's root span
        parent = stack[-1] if stack else self.root
        if self.root is None:
            self.root = sid
        stack.append(sid)
        t0, c0 = perf_counter(), thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            c1, t1 = thread_time(), perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, threading.get_ident(),
                               t0, t1, c1 - c0))

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def peak(self, name: str, value: int) -> None:
        with self._lock:
            if value > self.peaks.get(name, 0):
                self.peaks[name] = value

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "peaks": self.peaks}, fh)


def _orbit_size(w) -> int:
    size = factorial(len(w))
    for c in Counter(w).values():
        size //= factorial(c)
    return size


def _product_space(spec) -> int:
    """Size of the three Koszul terms wedge^k S^d (x) S^e over C^n."""
    n, d = spec.n, spec.d
    monos = comb(d + n - 1, n - 1)
    total = 0
    for k, e in ((spec.p + 1, (spec.q - 1) * d + spec.b),
                 (spec.p, spec.q * d + spec.b),
                 (spec.p - 1, (spec.q + 1) * d + spec.b)):
        if k >= 0 and e >= 0:
            total += comb(monos, k) * comb(e + n - 1, n - 1)
    return total


def _after_kostka(t: Tracer, args, result) -> None:
    t.count("tableaux.kostka.zero", result == 0)


def _after_schur(t: Tracer, args, result) -> None:
    t.count("characters.schur_decompose.terms", len(result.terms))


def _after_weight_table(t: Tracer, args, result) -> None:
    t.count("characters.weight_table.entries", len(result.entries))
    t.count("characters.weight_table.orbits",
            sum(_orbit_size(w) for w in result.entries))


def _before_rank(t: Tracer, args) -> None:
    t.count("intrank.rank_sparse.nonzeros",
            sum(sum(1 for v in col.values() if v) for col in args[0]))


def _after_lattice(t: Tracer, args, result) -> None:
    t.count("cones.lattice_count.points", result)


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before:
            before(tracer, args)
        result = tracer.call(name, fn, args, kwargs)
        if after:
            after(tracer, args, result)
        return result
    return wrapper


def _wrap_build_blocks(tracer: Tracer, name: str, fn):
    """build_blocks is a generator: time each next(), not the call."""
    @functools.wraps(fn)
    def wrapper(spec, *args, **kwargs):
        tracer.count("koszul.product_space", _product_space(spec))
        gen = fn(spec, *args, **kwargs)
        while True:
            try:
                block = tracer.call(name, next, (gen,), {})
            except StopIteration:
                return
            tracer.count("koszul.blocks", 1)
            tracer.count("koszul.basis_elements", sum(block.dims))
            tracer.peak("koszul.block_dim_max", block.dims[1])
            yield block
    return wrapper


# (module, function, span name, before hook, after hook)
TARGETS = (
    ("veroschur.tableaux", "kostka", "tableaux.kostka", None, _after_kostka),
    ("veroschur.characters", "schur_decompose", "characters.schur_decompose",
     None, _after_schur),
    ("veroschur.characters", "tensor_with_sym", "characters.tensor_with_sym",
     None, None),
    ("veroschur.characters", "char_tensor_sym", "characters.weight_table",
     None, _after_weight_table),
    ("veroschur.characters", "char_sym_sym", "characters.weight_table",
     None, _after_weight_table),
    ("veroschur.characters", "char_wedge_sym", "characters.weight_table",
     None, _after_weight_table),
    ("veroschur.koszul", "build_blocks", "koszul.build_blocks", None, None),
    ("veroschur.intrank", "rank_sparse", "intrank.rank_sparse",
     _before_rank, None),
    ("veroschur.cones", "shape_cone_section", "cones.section", None, None),
    ("veroschur.cones", "content_cone_section", "cones.section", None, None),
    ("veroschur.cones", "lattice_count", "cones.lattice_count",
     None, _after_lattice),
    ("veroschur.cones", "fit_leading_coefficient", "cones.fit", None, None),
    ("veroschur.constructions", "ratio_experiment",
     "constructions.ratio_experiment", None, None),
)


def install(tracer: Tracer) -> None:
    """Replace every traced function wherever a veroschur module holds it.

    A target the program no longer defines is skipped, and its metrics
    read 0.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "veroschur" or name.startswith("veroschur.")}
    for modname, attr, span, before, after in TARGETS:
        original = getattr(modules.get(modname), attr, None)
        if original is None:
            continue
        if attr == "build_blocks":
            wrapper = _wrap_build_blocks(tracer, span, original)
        else:
            wrapper = _wrap(tracer, span, original, before, after)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main() -> None:
    out_path = os.environ["PERFBENCH_SPANS"]
    import veroschur.cli as cli
    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.call("cli.main", cli.main, (sys.argv[1:],), {})
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
