"""Named verification suites bundling the library's cross-checks, and the
ratio experiments.

Each suite runs a fixed set of exact identities or tolerance checks at
desk-scale parameters and returns machine-readable verdicts; a verdict
built from a list of failures comes from `_verdict`.  The CLI exposes
them under `verify`; the acceptance tests call them directly.

A ratio experiment divides two exact counts at a level d and compares the
ratio with its theoretical limit: `EXPERIMENTS` names them, `ratio_counts`
runs one, and `ratio_check` builds every ratio verdict, those of the
ratios suite and that of `verify ratios --theorem`.

A suite imports the layers it runs beyond characters and partitions when
it runs, so that a `verify` process loads only what its suite uses: the
ratios suite only the rules of syzygy (each of its specs is on them),
raicu and green also koszul's basis search and intrank, kostka-cone
cones, and the other four constructions.  `run_suite` takes the values of
the `verify` command line and builds its payload.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple, Sequence

from veroschur.characters import (SchurExpansion, complexity, schur_decompose,
                                  sym_power_sym, tensor_power_sym,
                                  tensor_with_sym, total_multiplicity,
                                  wedge_power_sym)
from veroschur.config import DEFAULT_CONFIG, RunConfig
from veroschur.partitions import normalize, partitions_of, sym_group_irrep_dim


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def _verdict(name: str, failures: Sequence[str], ok_detail: str) -> Check:
    """A check that passes when there are no failures; its detail lists
    them, or is ok_detail when there are none."""
    return Check(name, not failures, "; ".join(failures) or ok_detail)


# ---------------------------------------------------------------------------
# ratio experiments: each gives its two exact counts at one level d

def _syzygy_share(params: dict, d: int, config: RunConfig) -> tuple[int, int]:
    from veroschur.syzygy import KoszulSpec, syzygy_decompose

    p = params["p"]
    num = total_multiplicity(syzygy_decompose(KoszulSpec(p, 1, 0, d, p + 1),
                                              config))
    den = total_multiplicity(tensor_power_sym(p + 1, d, p + 1, config))
    return num, den


def _sym_vs_wedge(params: dict, d: int, config: RunConfig) -> tuple[int, int]:
    p = params["p"]
    num = total_multiplicity(sym_power_sym(p, d, p, config))
    den = total_multiplicity(wedge_power_sym(p, d, p, config))
    return num, den


def _twist(params: dict, d: int, config: RunConfig, stat) -> tuple[int, int]:
    p, b = params["p"], params["b"]
    base = tensor_power_sym(p, d, p, config)
    twisted = tensor_with_sym(base.with_n(p + 1), b, config)
    return stat(twisted), stat(base)


def _wedge_tensor_share(params: dict, d: int,
                        config: RunConfig) -> tuple[int, int]:
    p = params["p"]
    w = wedge_power_sym(p, d, p, config).with_n(p + 1)
    num = total_multiplicity(tensor_with_sym(w, d, config))
    den = total_multiplicity(tensor_power_sym(p + 1, d, p + 1, config))
    return num, den


def _schur_share(params: dict, d: int, config: RunConfig) -> tuple[int, int]:
    p, mu = params["p"], normalize(params["mu"])
    if sum(mu) != p:
        raise ValueError("mu must be a partition of p")
    nt = total_multiplicity(tensor_power_sym(p, d, p, config))
    if mu == (p,):
        num = total_multiplicity(sym_power_sym(p, d, p, config))
    elif mu == (1,) * p:
        num = total_multiplicity(wedge_power_sym(p, d, p, config))
    elif mu == (2, 1):
        ns = total_multiplicity(sym_power_sym(3, d, 3, config))
        nw = total_multiplicity(wedge_power_sym(3, d, 3, config))
        rem = nt - ns - nw
        if rem % 2:
            raise AssertionError("mixed component multiplicity not even")
        num = rem // 2
    else:
        raise ValueError(f"unsupported mu {mu}; use (p), (1^p) or (2,1)")
    return num, nt


# name -> (counts at one d, theoretical limit, required parameters); the
# names are in sorted order, the order an unknown name's message lists
EXPERIMENTS = {
    "schur-share": (_schur_share,
                    lambda pr: Fraction(sym_group_irrep_dim(pr["mu"]),
                                        factorial(pr["p"])),
                    ("p", "mu")),
    "sym-vs-wedge": (_sym_vs_wedge, lambda pr: Fraction(1), ("p",)),
    "syzygy-share": (_syzygy_share,
                     lambda pr: Fraction(pr["p"], factorial(pr["p"] + 1)),
                     ("p",)),
    "twist-total": (lambda pr, d, c: _twist(pr, d, c, total_multiplicity),
                    lambda pr: Fraction(comb(pr["b"] + pr["p"], pr["p"])),
                    ("p", "b")),
    "twist-types": (lambda pr, d, c: _twist(pr, d, c, complexity),
                    lambda pr: Fraction(pr["b"] + 1), ("p", "b")),
    "wedge-tensor-share": (_wedge_tensor_share,
                           lambda pr: Fraction(1, factorial(pr["p"])),
                           ("p",)),
}


def ratio_counts(experiment: str, parameters: dict, d_values: Sequence[int],
                 config: RunConfig = DEFAULT_CONFIG
                 ) -> tuple[Fraction, dict[int, tuple[int, int]]]:
    """The theoretical limit of one named experiment and its exact
    (numerator, denominator) at each level d, in increasing d.

    An unknown experiment, a missing parameter and a parameter the
    experiment does not take each raise ValueError.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; "
                         f"choose from {', '.join(EXPERIMENTS)}")
    count, limit, required = EXPERIMENTS[experiment]
    missing = [key for key in required if key not in parameters]
    if missing:
        raise ValueError(f"experiment {experiment!r} needs parameter(s) "
                         f"{', '.join(missing)}")
    extra = [key for key in parameters if key not in required]
    if extra:
        raise ValueError(f"experiment {experiment!r} does not take "
                         f"parameter(s) {', '.join(extra)}")
    pairs = {d: count(parameters, d, config) for d in sorted(set(d_values))}
    return limit(parameters), pairs


def ratio_check(name: str, experiment: str, parameters: dict,
                d_values: Sequence[int], tol: Fraction,
                config: RunConfig = DEFAULT_CONFIG, gap: bool = True) -> Check:
    """Check one experiment's ratio at its largest level d against the
    limit: it passes within tol * |limit|.

    With gap (the ratios suite) the detail reports the relative gap at
    that level, and with several levels the gap must also shrink from the
    smallest d to the largest.  Without it (`--theorem`, whose limit may
    be 0) nothing is divided by the limit and the detail reports tol.
    """
    limit, pairs = ratio_counts(experiment, parameters, d_values, config)
    ratios = [Fraction(num, den) for num, den in pairs.values()]
    ok = abs(ratios[-1] - limit) <= tol * abs(limit)
    detail = f"ratio {ratios[-1]} vs limit {limit}, "
    if not gap:
        return Check(name, ok, detail + f"tolerance {tol}")
    first, last = (abs(r - limit) / limit for r in (ratios[0], ratios[-1]))
    return Check(name, ok and (len(ratios) == 1 or last < first),
                 detail + f"relative gap {float(last):.4f}")


# ---------------------------------------------------------------------------
# suites

def suite_newell(config: RunConfig = DEFAULT_CONFIG) -> list[Check]:
    from veroschur import constructions

    return [_verdict(f"newell p={p} d={d}",
                     constructions.newell_check(p, d, config),
                     "all shifts match")
            for p in (1, 2, 3) for d in (1, 2, 3, 4)]


def suite_doubling(config: RunConfig = DEFAULT_CONFIG) -> list[Check]:
    from veroschur import constructions

    return [_verdict(f"doubling p={p} d={d}",
                     constructions.doubled_plethysm_check(p, d, config),
                     "all doubled types present")
            for p in (1, 2, 3) for d in (1, 2, 3)]


def suite_raicu(config: RunConfig = DEFAULT_CONFIG) -> list[Check]:
    from veroschur.syzygy import (KoszulSpec, raicu_predicted_kp0,
                                  syzygy_decompose)

    out = []
    for p in (0, 1):
        for d in (2, 3, 4):
            for n in (p + 2, p + 3):
                predicted = raicu_predicted_kp0(p, d, n, config)
                direct = syzygy_decompose(KoszulSpec(p + 1, 0, 1, d, n), config)
                ok = predicted.terms == direct.terms
                out.append(Check(f"raicu-shift p={p} d={d} n={n}", ok,
                                 f"{len(direct.terms)} terms"))
    return out


def suite_green(config: RunConfig = DEFAULT_CONFIG) -> list[Check]:
    # every row runs the basis search, not syzygy_decompose, which answers
    # on-rule specs by green_vanishing_predicted and the strand's Euler
    # characteristic: the rows test those rules, so they must not use them
    from veroschur.koszul import cohomology_table
    from veroschur.syzygy import KoszulSpec, green_vanishing_predicted

    def search(spec: KoszulSpec) -> SchurExpansion:
        return schur_decompose(cohomology_table(spec, config), config)

    out = []
    e = search(KoszulSpec(1, 1, 0, 2, 2))
    out.append(Check("first-syzygy of the conic", e.terms == {(2, 2): 1},
                     str(e.terms)))
    for p in (1, 2):
        for d in (2, 3):
            e = search(KoszulSpec(p, 0, 0, d))
            out.append(Check(f"linear strand kernel p={p} d={d} empty",
                             not e.terms, str(e.terms)))
    e = search(KoszulSpec(0, 0, 0, 5, 1))
    out.append(Check("degree-zero syzygy is the unit", e.terms == {(): 1},
                     str(e.terms)))
    for p in (1, 2, 3):
        for d in (p, p + 1):
            predicted = green_vanishing_predicted(p, 2, d)
            for n in (2, 3):
                e = search(KoszulSpec(p, 2, 0, d, n))
                out.append(Check(f"green vanishing p={p} q=2 d={d} n={n}",
                                 predicted and not e.terms, str(e.terms)))
    # kernel support: length-3 types of the twisted strand match the
    # horizontal-strip prediction from the exterior square
    for d in (2, 3, 4, 5, 6):
        direct = search(KoszulSpec(2, 0, 1, d, 3))
        wedge = wedge_power_sym(2, d, 2, config).with_n(3)
        strip = tensor_with_sym(wedge, 1, config)
        want = {lam: c for lam, c in strip.terms.items() if len(lam) == 3}
        got = {lam: c for lam, c in direct.terms.items() if len(lam) == 3}
        ok = want == got and all(
            direct.multiplicity(lam + (1,)) >= c
            for lam, c in wedge.terms.items() if len(lam) == 2)
        out.append(Check(f"twisted kernel support d={d}", ok,
                         f"{len(got)} length-3 types"))
    return out


def suite_staircase(config: RunConfig = DEFAULT_CONFIG) -> list[Check]:
    from veroschur import constructions

    samples = constructions.sample_staircase_inputs(
        100, seed=config.seed or 20240)
    constructed = conditions = 0
    bad: list[str] = []
    for lam, b, p, d, n in samples:
        es = constructions.staircase_exponents(lam, b, p)
        # checked against the inputs: membership peels the split off lam
        # as horizontal strips, which needs p + 1 exponents summing to
        # |lam| - (b + 1)
        if len(es) != p + 1 or sum(es) != sum(lam) - (b + 1) or \
                any(e <= f for e, f in zip(es, es[1:])) or es[-1] < 0:
            bad.append(f"exponent invariants fail for {lam} b={b} p={p}")
            continue
        verdict = constructions.staircase_membership(lam, b, p, d, n).verdict
        if verdict == "constructed":
            constructed += 1
        elif verdict == "conditions-fail":
            conditions += 1
        else:
            bad.append(f"pieri-fail at {lam} b={b} p={p} d={d} n={n}")
    return [_verdict("staircase membership suite", bad,
                     f"{constructed} constructed, {conditions} conditions-fail")]


def suite_kostka_cone(config: RunConfig = DEFAULT_CONFIG) -> list[Check]:
    from veroschur import cones

    out = []
    for p in (1, 2, 3, 4):
        details = []
        for r in cones.duality_rows(p, range(1, 7), config):
            if not r.types_ok:
                details.append(f"d={r.d} type count {r.shape_count}")
            if not r.multiplicity_ok:
                details.append(f"d={r.d} multiplicity {r.content_count}")
        out.append(_verdict(f"cone duality p={p} d<=6", details,
                            "lattice counts match characters"))
    for p in (1, 2, 3):
        contents = cones.content_cone_section(p)
        details = []
        for d in range(1, 6):
            # the Kostka numbers K_{lam,(d^p)}, by the Pieri rule
            kostka = tensor_power_sym(p, d, p, config)
            fibres = cones.moment_fibres(p, d, config)
            for lam in partitions_of(p * d, max_parts=p):
                if fibres.get(lam, 0) != kostka.multiplicity(lam):
                    details.append(f"d={d} fiber at {lam}")
            # every content point lies over some shape
            if sum(fibres.values()) != cones.lattice_count(contents, d, config):
                details.append(f"d={d} image mismatch")
        out.append(_verdict(f"moment fibers p={p} d<=5", details,
                            "fibers are Kostka numbers"))
    return out


def suite_ratios(config: RunConfig = DEFAULT_CONFIG) -> list[Check]:
    # name, experiment, parameters, levels d, relative tolerance at the
    # last level; with two levels the gap must also shrink
    runs = [
        ("syzygy share p=1 within 10% of 1/2 at d=30",
         "syzygy-share", {"p": 1}, (10, 30), Fraction(1, 10)),
        ("syzygy share p=2 within 35% of 1/3 at d=10",
         "syzygy-share", {"p": 2}, (6, 10), Fraction(35, 100)),
        ("sym vs wedge within 5% at d=40",
         "sym-vs-wedge", {"p": 2}, (20, 40), Fraction(5, 100)),
        ("wedge-tensor share within 15% of 1/2 at d=20",
         "wedge-tensor-share", {"p": 2}, (10, 20), Fraction(15, 100)),
    ]
    for b in (1, 2):
        runs += [(f"twist total b={b} within 10% at d=40",
                  "twist-total", {"p": 2, "b": b}, (40,), Fraction(1, 10)),
                 (f"twist types b={b} within 10% at d=40",
                  "twist-types", {"p": 2, "b": b}, (40,), Fraction(1, 10))]
    return [ratio_check(*run, config) for run in runs]


def suite_patterns(config: RunConfig = DEFAULT_CONFIG) -> list[Check]:
    from veroschur import constructions

    out = []
    # p = 3 is the n = 2 count; p = 14 runs the closed form at n = 5
    for p, ds, label in ((3, range(5, 31), "d<=30"),
                         (14, (10, 13, 16), "d in {10,13,16} (n=5)")):
        details = []
        for d in ds:
            closed = constructions.twin_pattern_count_closed(p, 1, d)
            direct = constructions.twin_pattern_enumerate(p, 1, d)
            if closed != direct:
                details.append(f"d={d}: {closed} != {direct}")
        out.append(_verdict(f"twin census closed form vs enumeration p={p} "
                            f"b=1 {label}", details, "all equal"))
    counts = {}
    for n in (7, 10, 13):
        p = n - 1
        d = max(p + 2, 3 * ((p + 1) // (n - 3)) + 3)
        rep = constructions.almost_triplet_census(p, 1, n, d)
        counts[n] = rep.molds
    increasing = counts[7] < counts[10] < counts[13]
    out.append(Check("mold counts strictly increase over n in {7,10,13}",
                     increasing, str(counts)))
    rep = constructions.almost_triplet_census(6, 1, 7, 9)
    out.append(Check("distinct inputs give distinct molds at n-1=6",
                     rep.molds == rep.partitions,
                     f"{rep.partitions} partitions, {rep.molds} molds"))
    return out


SUITES = {
    "newell": suite_newell,
    "doubling": suite_doubling,
    "raicu": suite_raicu,
    "green": suite_green,
    "staircase": suite_staircase,
    "kostka-cone": suite_kostka_cone,
    "ratios": suite_ratios,
    "patterns": suite_patterns,
}


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


def run_suite(name: str, config: RunConfig = DEFAULT_CONFIG,
              theorem: str | None = None, p: int | None = None,
              b: int | None = None, mu: str | None = None,
              d_max: int | None = None) -> dict:
    """The payload of `verify name`, or of one ratio experiment with
    theorem: p, b, mu (its parts written as on the command line, '2,1')
    and d_max are the experiment's, and each needs theorem."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(sorted(SUITES))}")
    if theorem is None:
        given = [flag for flag, value in (("-p", p), ("-b", b), ("--mu", mu),
                                          ("--d-max", d_max))
                 if value is not None]
        if given:
            raise ValueError(f"{', '.join(given)}: requires --theorem")
        checks = SUITES[name](config)
    else:
        values = {"p": p, "b": b,
                  "mu": None if mu is None else _parse_partition(mu)}
        parameters = {key: value for key, value in values.items()
                      if value is not None}
        if name != "ratios":
            raise ValueError("--theorem only applies to the ratios suite")
        if d_max is None:
            d_max = 20
        if d_max < 1:
            raise ValueError(f"--d-max must be at least 1, got {d_max}")
        checks = [ratio_check(f"{theorem} {parameters} at d={d_max}",
                              theorem, parameters, (d_max,), Fraction(1, 10),
                              config, gap=False)]
    return {
        "suite": name,
        "seed": config.seed,
        "checks": [c._asdict() for c in checks],
        "passed": all(c.passed for c in checks),
    }
