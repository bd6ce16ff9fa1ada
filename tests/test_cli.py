import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import veroschur
from veroschur.cli import COMMANDS, COMMON, _json, main, parse_args
from veroschur.verify import EXPERIMENTS, SUITES

from oracles import argparse_args


@pytest.fixture(scope="module")
def schema():
    path = resources.files("veroschur") / "schema" / "output.schema.json"
    return json.loads(path.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_wedge_example(capsys):
    code, out, _ = run_cli(capsys, "decompose", "wedge", "-p", "2", "-d", "2",
                           "-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"lambda": [3, 1], "mult": "1"}]
    assert payload["total_multiplicity"] == "1"
    assert payload["complexity"] == "1"


def test_decompose_tensor_example(capsys):
    code, out, _ = run_cli(capsys, "decompose", "tensor", "-p", "2", "-d", "3",
                           "-n", "2", "--format", "json")
    payload = json.loads(out)
    assert [t["lambda"] for t in payload["terms"]] == \
        [[6], [5, 1], [4, 2], [3, 3]]


def test_decompose_with_strip_twist(capsys):
    code, out, _ = run_cli(capsys, "decompose", "sym", "-p", "2", "-d", "2",
                           "-n", "2", "--tensor-sym", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"]["tensor_sym"] == 1
    assert payload["degree"] == 5


def test_syzygy_examples(capsys):
    code, out, _ = run_cli(capsys, "syzygy", "-p", "1", "-q", "1", "-d", "2",
                           "-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"lambda": [2, 2], "mult": "1"}]
    code, out, _ = run_cli(capsys, "syzygy", "-p", "2", "-q", "2", "-d", "2",
                           "-n", "3", "--format", "json")
    assert json.loads(out)["terms"] == []
    code, out, _ = run_cli(capsys, "syzygy", "-p", "0", "-q", "0", "-d", "5",
                           "--format", "json")
    assert json.loads(out)["terms"] == [{"lambda": [], "mult": "1"}]


def test_syzygy_answers_by_theorem(capsys):
    # (4, 4, 4, 4) folds to (4, 5, 0, 4), empty by Green's theorem: the
    # basis search at n = 9 ran 72 s and tripped the matrix cap
    code, out, err = run_cli(capsys, "syzygy", "-p", "4", "-q", "4", "-b", "4",
                             "-d", "4", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["terms"] == [] and payload["degree"] == 36


def test_folded_spec_is_not_a_truncation(capsys):
    # (1, 0, 2, 2) folds to (1, 1, 0, 2): the same complex, so the same
    # terms, and at n = 2 >= p + 1 neither is a truncation
    payloads = []
    for args in ("-p 1 -q 0 -b 2 -d 2 -n 2", "-p 1 -q 1 -d 2 -n 2"):
        code, out, _ = run_cli(capsys, "syzygy", *args.split(),
                               "--format", "json")
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[0]["terms"] == payloads[1]["terms"] \
        == [{"lambda": [2, 2], "mult": "1"}]
    assert [pl["truncation"] for pl in payloads] == [False, False]


def test_negative_strand_multiplicity_is_an_internal_error(monkeypatch,
                                                           capsys):
    # (-1)^p times the Euler characteristic of strand p + 1 is K_{p,1} on
    # the rule, so a negative multiplicity in it is a fault of the program
    from veroschur import syzygy
    right = syzygy.strand_euler_characteristic
    monkeypatch.setattr(syzygy, "strand_euler_characteristic",
                        lambda *args: {(3, 1): 1, **right(*args)})
    code, out, err = run_cli(capsys, "syzygy", "-p", "1", "-q", "1", "-d", "2",
                             "-n", "2")
    assert code == 4 and out == ""
    assert err == ("internal error: NotACharacter: negative multiplicity -1 "
                   "at (3, 1)\n")


def test_json_outputs_validate_against_schema(capsys, schema):
    cases = [
        ("decompose", "tensor", "-p", "2", "-d", "2", "--format", "json"),
        ("syzygy", "-p", "1", "-q", "1", "-d", "3", "-n", "2",
         "--format", "json"),
        ("cones", "-p", "2", "--d-min", "1", "--d-max", "4",
         "--format", "json"),
        ("verify", "newell", "--format", "json"),
    ]
    for argv in cases:
        _, out, _ = run_cli(capsys, *argv)
        jsonschema.validate(json.loads(out), schema)


def test_decompose_tensor_degree_zero(capsys, schema):
    # Sym^0 is the trivial line: its tensor and symmetric powers are trivial,
    # its exterior powers beyond the first vanish
    trivial = [{"lambda": [], "mult": "1"}]
    for kind, p, terms in [("tensor", 3, trivial), ("sym", 3, trivial),
                           ("wedge", 1, trivial), ("wedge", 3, [])]:
        code, out, _ = run_cli(capsys, "decompose", kind, "-p", str(p),
                               "-d", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["terms"] == terms
        assert payload["degree"] == 0


def test_cones_csv_and_consistency(capsys):
    code, out, _ = run_cli(capsys, "cones", "-p", "2", "--d-min", "1",
                           "--d-max", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,shape_count,content_count,types_check,multiplicity_check"
    assert lines[1] == "1,2,2,true,true"
    assert any(line.startswith("fit_types_degree_1,1,") for line in lines)


def test_cones_level_range_is_capped(capsys):
    # a billion levels would be a billion output rows: the cap trips before
    # any level list is built
    code, out, err = run_cli(capsys, "cones", "-p", "2", "--d-min", "0",
                             "--d-max", "1000000000")
    assert code == 3 and out == ""
    assert err == ("resource cap exceeded: cones levels: needed 1000000001, "
                   "cap 5000000 (max_table_entries)\n")
    code, _, err = run_cli(capsys, "cones", "-p", "2", "--d-min", "1",
                           "--d-max", "9", "--d-step", "2", "--max-entries", "4")
    assert code == 3 and "cones levels: needed 5, cap 4" in err
    # --max-nodes bounds the DP states of the count, not the points, so a
    # count of 44,288 points fits in 20,000 nodes
    code, out, _ = run_cli(capsys, "cones", "-p", "6", "--d-min", "3",
                           "--d-max", "3", "--max-nodes", "20000",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "3,199,44288,true,true"


def test_verify_json_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "doubling", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "doubling", "--format", "json")
    assert first == second


def test_exit_codes(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "decompose", "tensor", "-p", "2", "-d", "4",
                           "--max-entries", "3")
    assert code == 3
    code, _, err = run_cli(capsys, "decompose", "sym", "-p", "6", "-d", "2",
                           "-n", "9", "--max-entries", "10")
    assert code == 3
    assert "Schur terms: needed 14, cap 10" in err
    # a large plethysm stops within one lam's strips past the cap
    code, _, err = run_cli(capsys, "decompose", "wedge", "-p", "10", "-d", "10",
                           "-n", "10", "--max-entries", "20000")
    assert code == 3
    assert "Schur terms: needed 20005, cap 20000" in err
    # no walk is n levels deep, and dimensions take one factor per box, so
    # a thousand-odd variables answer
    for args, first in [(("decompose", "sym", "-p", "2", "-d", "1", "-n",
                          "1200"), "2,1"),
                        (("decompose", "wedge", "-p", "2", "-d", "2", "-n",
                          "1100"), "3 1,1"),
                        (("syzygy", "-p", "1", "-q", "0", "-d", "2", "-n",
                          "1200"), "total_multiplicity,0")]:
        code, out, err = run_cli(capsys, *args, "--format", "csv")
        assert code == 0 and err == "", args
        assert out.splitlines()[1] == first, args
    # Newton's identity lists nothing over the p(80) = 15,796,476 cycle
    # types of S_80, so p = 80 answers under the default caps
    code, out, err = run_cli(capsys, "decompose", "sym", "-p", "80", "-d", "0",
                             "-n", "1", "--format", "csv")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == ",1"  # the empty partition, once
    # a chain of 1,200 Pieri products is a loop, not a recursion
    code, out, _ = run_cli(capsys, "decompose", "tensor", "-p", "1200", "-d",
                           "1", "-n", "1", "--format", "csv")
    assert code == 0 and out.splitlines()[1] == "1200,1"
    code, out, err = run_cli(capsys, "decompose", "bogus", "-p", "1", "-d", "1")
    assert code == 2 and out == ""
    assert err == "error: kind must be one of tensor, sym, wedge, got 'bogus'\n"
    # an invalid cap is a usage error, not a tripped cap
    code, _, err = run_cli(capsys, "decompose", "tensor", "-p", "2", "-d", "4",
                           "--max-entries", "-5")
    assert code == 2
    assert "max_table_entries must be positive" in err
    # the cap bounds the Koszul basis too, counted over the Artinian
    # quotient; the spec is twisted (b = 1), so it runs the basis search
    code, _, err = run_cli(capsys, "syzygy", "-p", "2", "-q", "1", "-b", "1",
                           "-d", "3", "--max-entries", "50")
    assert code == 3
    assert err == ("resource cap exceeded: Koszul basis elements: needed 78, "
                   "cap 50 (max_table_entries)\n")
    # its search nodes count against --max-nodes, summed over the weights
    code, out, err = run_cli(capsys, "syzygy", "-p", "2", "-q", "0", "-b", "1",
                             "-d", "6", "-n", "3", "--max-nodes", "100")
    assert code == 3 and out == ""
    assert err == ("resource cap exceeded: Koszul search nodes: needed 105, "
                   "cap 100 (max_enum_nodes)\n")
    code, _, err = run_cli(capsys, "cones", "-p", "2", "--d-min", "1",
                           "--d-max", "3", "--d-step", "0")
    assert code == 2
    assert err == "error: --d-step must be at least 1, got 0\n"
    # level 0 is a valid slice; a negative level is a usage error
    code, out, _ = run_cli(capsys, "cones", "-p", "2", "--d-min", "0",
                           "--d-max", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "0,1,1,true,true"
    code, out, err = run_cli(capsys, "cones", "-p", "2", "--d-min", "-1",
                             "--d-max", "3")
    assert code == 2 and out == ""
    assert err == "error: --d-min must be at least 0, got -1\n"
    # experiment parameters without --theorem are an error, not ignored
    code, out, err = run_cli(capsys, "verify", "newell", "-p", "7", "-b", "3",
                             "--mu", "5")
    assert code == 2 and out == ""
    assert err == "error: -p, -b, --mu: requires --theorem\n"
    code, _, err = run_cli(capsys, "verify", "ratios", "--d-max", "5")
    assert code == 2
    assert err == "error: --d-max: requires --theorem\n"
    # a process started with stdout closed has sys.stdout None: failing
    # to write the output is an output failure, as a full disk is
    monkeypatch.setattr(sys, "stdout", None)
    for argv in (("decompose", "sym", "-p", "2", "-d", "2", "--format",
                  "json"), ("--help",)):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (2, "error: stdout is closed\n"), argv


def test_zero_variables_rejected(capsys):
    # -n 0 is an invalid count of variables, not a request for the default
    for argv in (("decompose", "sym", "-p", "2", "-d", "2", "-n", "0"),
                 ("decompose", "tensor", "-p", "2", "-d", "2", "-n", "-1"),
                 ("syzygy", "-p", "1", "-q", "1", "-d", "2", "-n", "0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: -n must be at least 1")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "decompose", "wedge", "-p", "2", "-d", "2",
                           "-n", "2", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["complexity"] == "1"


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_table_entries=4\n# comment\n")
    code, _, err = run_cli(capsys, "decompose", "tensor", "-p", "3", "-d", "3",
                           "--config", str(cfg))
    assert code == 3
    assert "cap" in err
    # format and seed from the file apply unless a flag overrides them
    cfg.write_text("format=json\nseed=7\n")
    code, out, _ = run_cli(capsys, "verify", "newell", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["seed"] == 7
    code, out, _ = run_cli(capsys, "verify", "newell", "--config", str(cfg),
                           "--seed", "3")
    assert json.loads(out)["seed"] == 3
    code, out, _ = run_cli(capsys, "verify", "newell", "--config", str(cfg),
                           "--format", "pretty")
    assert out.startswith("# suite newell")
    cfg.write_text("format=xml\n")
    code, _, err = run_cli(capsys, "verify", "newell", "--config", str(cfg))
    assert code == 2
    # a bad line is a usage error that names the file, the line and the key
    for text, where in (("max_table_entries\n",
                         "1: max_table_entries must be an integer, got ''"),
                        ("# caps\nseed = x\n",
                         "2: seed must be an integer, got 'x'")):
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "verify", "newell",
                                 "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: {cfg}:{where}\n"


def test_pretty_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "tensor", "-p", "2", "-d", "2",
                           "-n", "2")
    assert code == 0
    assert "N = 3   c = 3" in out


def test_verify_targeted_ratio(capsys):
    code, out, _ = run_cli(capsys, "verify", "ratios", "--theorem",
                           "syzygy-share", "-p", "1", "--d-max", "30",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert "15/31" in payload["checks"][0]["detail"]
    code, _, err = run_cli(capsys, "verify", "newell", "--theorem",
                           "syzygy-share")
    assert code == 2
    # a missing experiment parameter is a usage error naming the key
    code, _, err = run_cli(capsys, "verify", "ratios", "--theorem",
                           "schur-share", "-p", "4")
    assert code == 2
    assert "mu" in err and "Traceback" not in err
    code, _, err = run_cli(capsys, "verify", "ratios", "--theorem",
                           "twist-total", "-p", "2")
    assert code == 2
    assert "needs parameter(s) b" in err
    # so is a parameter the experiment does not take, instead of being
    # ignored while the check name shows it
    code, out, err = run_cli(capsys, "verify", "ratios", "--theorem",
                             "sym-vs-wedge", "-p", "3", "-b", "2", "--mu",
                             "2,1", "--d-max", "5")
    assert code == 2 and out == ""
    assert err == ("error: experiment 'sym-vs-wedge' does not take "
                   "parameter(s) b, mu\n")


def test_verify_theorem_runs_at_d_max(capsys):
    # the check evaluates d = --d-max only, and reports that level's ratio
    code, out, _ = run_cli(capsys, "verify", "ratios", "--theorem",
                           "sym-vs-wedge", "-p", "2", "--d-max", "1")
    assert code == 0
    assert "sym-vs-wedge {'p': 2} at d=1: ratio 1 vs limit 1" in out
    # a zero limit passes at ratio 0: the check never divides by the limit
    code, out, _ = run_cli(capsys, "verify", "ratios", "--theorem",
                           "syzygy-share", "-p", "0", "--d-max", "3")
    assert code == 0
    assert "ratio 0 vs limit 0, tolerance 1/10" in out
    # only a missing --d-max means 20; a level below 1 is a usage error
    code, out, err = run_cli(capsys, "verify", "ratios", "--theorem",
                             "syzygy-share", "-p", "1", "--d-max", "0")
    assert code == 2 and out == ""
    assert err == "error: --d-max must be at least 1, got 0\n"


def test_verify_schur_share_mu(capsys):
    code, out, _ = run_cli(capsys, "verify", "ratios", "--theorem",
                           "schur-share", "-p", "3", "--mu", "2,1",
                           "--d-max", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert "vs limit 1/3" in payload["checks"][0]["detail"]
    for bad in ("2,x", "", "1,2", "2,0,1", "2,,1"):
        code, out, err = run_cli(capsys, "verify", "ratios", "--theorem",
                                 "schur-share", "-p", "3", "--mu", bad)
        assert code == 2 and out == ""
        assert err.startswith("error: --mu must")
    # a well-formed mu of the wrong size is the experiment's own usage error
    code, _, err = run_cli(capsys, "verify", "ratios", "--theorem",
                           "schur-share", "-p", "4", "--mu", "2,1")
    assert code == 2
    assert "mu must be a partition of p" in err


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(args, cfg):
        raise RuntimeError("lost state\nsecond line")

    monkeypatch.setitem(COMMANDS, "decompose",
                        (broken, *COMMANDS["decompose"][1:]))
    code, out, err = run_cli(capsys, "decompose", "sym", "-p", "1", "-d", "1")
    assert code == 4 and out == ""
    assert err == "internal error: RuntimeError: lost state\n"
    assert "Traceback" not in err


# every kind of value a payload may hold, with text drawn from all of
# Unicode: quotes, backslashes, control characters, astral characters and
# lone surrogates
JSON_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    '"\\\n\r\t\b\f\x00\x1f\x7f\ud800\U0001d11e'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**80, 10**80) | JSON_TEXT,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(JSON_TEXT, inner), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_is_the_stdlib_encoding(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_unencodable_payload_is_an_internal_error(monkeypatch, capsys):
    # payloads hold no floats and only str keys: either is a fault of the
    # program (exit 4) with a one-line message
    from veroschur import cli
    right = cli._expansion_payload
    monkeypatch.setattr(cli, "_expansion_payload",
                        lambda e: {**right(e), "ratio": 0.5})
    code, out, err = run_cli(capsys, "decompose", "sym", "-p", "1", "-d", "1",
                             "--format", "json")
    assert code == 4 and out == ""
    assert err == ("internal error: TypeError: Object of type float is not "
                   "JSON serializable\n")
    with pytest.raises(TypeError):
        _json({1: "one"})


def test_broken_decomposition_is_an_internal_error(monkeypatch, capsys):
    # a Newton term off by one leaves a sum that m does not divide: a fault
    # of the program (exit 4), not a usage error (exit 2)
    from veroschur import characters
    right = characters._power_product

    def off_by_one(*args):
        (lam, c), *rest = right(*args).items()
        return dict([(lam, c + 1), *rest])

    monkeypatch.setattr(characters, "_power_product", off_by_one)
    code, out, err = run_cli(capsys, "decompose", "sym", "-p", "3", "-d", "3")
    assert code == 4 and out == ""
    assert err.startswith("internal error: NotACharacter: Newton sum ")
    assert err.endswith(" is not a nonnegative multiple of 2\n")


def test_malformed_term_is_an_internal_error(monkeypatch, capsys):
    # a product whose first term has one box too many leaves a term of the
    # wrong degree; SchurExpansion holds computed characters only, so that
    # is a fault of the program (exit 4), not a usage error (exit 2)
    from veroschur import characters
    right = characters._power_product

    def one_box_over(*args):
        (lam, c), *rest = right(*args).items()
        return dict([((lam[0] + 1,) + lam[1:], c), *rest])

    monkeypatch.setattr(characters, "_power_product", one_box_over)
    code, out, err = run_cli(capsys, "decompose", "tensor", "-p", "2",
                             "-d", "2")
    assert code == 4 and out == ""
    assert err == ("internal error: NotACharacter: "
                   "bad term (6,) for n=2, degree 4\n")


def test_mold_collision_fails_the_patterns_suite(monkeypatch, capsys):
    # colliding molds are a failed check (exit 1), not an internal error
    from veroschur.verify import run_suite
    monkeypatch.setattr("veroschur.constructions.mold", lambda lam: ())
    report = run_suite("patterns")
    assert not report["passed"]
    verdicts = {c["name"]: c["passed"] for c in report["checks"]}
    assert verdicts["distinct inputs give distinct molds at n-1=6"] is False
    code, _, err = run_cli(capsys, "verify", "patterns")
    assert code == 1 and "internal error" not in err


def test_broken_staircase_split_fails_the_staircase_suite(monkeypatch, capsys):
    # a split that breaks its invariants is a failed check (exit 1 with a
    # FAIL line), not an internal error (exit 4); running the split's loop
    # one step short, through a module-level range, leaves the last
    # exponent as a nonzero final level.  Both modules that hold the split
    # get the broken one
    import veroschur.constructions as constructions
    split = constructions.staircase_exponents

    def short_split(lam, b, p):
        constructions.range = lambda stop: range(stop - 1)
        try:
            return split(lam, b, p)
        finally:
            del constructions.range

    monkeypatch.setattr(constructions, "staircase_exponents", short_split)
    monkeypatch.setattr("veroschur.verify.staircase_exponents", short_split,
                        raising=False)
    code, out, err = run_cli(capsys, "verify", "staircase")
    assert code == 1 and err == ""
    assert "[FAIL] staircase membership suite" in out
    assert "exponent invariants fail" in out


def test_split_at_the_wrong_level_fails_the_staircase_suite(monkeypatch,
                                                            capsys):
    # a split that is consistent with its own levels but taken at
    # |lam| - (b + 2) fails the check against the inputs (exit 1 with a
    # FAIL line), before membership compares shapes of different sizes
    # (which raises ValueError, read as invalid arguments, exit 2)
    import veroschur.constructions as constructions
    split = constructions.staircase_exponents

    def wrong_level(lam, b, p):
        return split(lam, b + 1, p)

    monkeypatch.setattr(constructions, "staircase_exponents", wrong_level)
    monkeypatch.setattr("veroschur.verify.staircase_exponents", wrong_level,
                        raising=False)
    code, out, err = run_cli(capsys, "verify", "staircase")
    assert code == 1 and err == ""
    assert "[FAIL] staircase membership suite" in out
    assert "exponent invariants fail" in out


def test_split_one_exponent_short_fails_the_staircase_suite(monkeypatch,
                                                            capsys):
    # starting the split's loop at i = 1 leaves p exponents that still sum
    # to the level, strictly decreasing (the last step takes e = level):
    # only the count p + 1 of exponents tells it apart
    import veroschur.constructions as constructions
    split = constructions.staircase_exponents

    def no_first_step(lam, b, p):
        constructions.range = lambda stop: range(1, stop)
        try:
            return split(lam, b, p)
        finally:
            del constructions.range

    monkeypatch.setattr(constructions, "staircase_exponents", no_first_step)
    code, out, err = run_cli(capsys, "verify", "staircase")
    assert code == 1 and err == ""
    assert "exponent invariants fail" in out


def test_non_tableau_point_fails_the_kostka_cone_suite(monkeypatch, capsys):
    # a content section that admits points that are not tableaux is a
    # failed check (exit 1 with a FAIL line), not invalid arguments (exit
    # 2); dropping the last tableau inequality admits such points at p = 3,
    # and at d = 1 they lie over no shape, so the fibres no longer cover
    # the section
    import veroschur.cones
    from veroschur.verify import run_suite
    section = veroschur.cones.content_cone_section
    monkeypatch.setattr(
        "veroschur.cones.content_cone_section",
        lambda p: section(p)._replace(
            inequalities=section(p).inequalities[:-1]))
    checks = {c["name"]: c for c in run_suite("kostka-cone")["checks"]}
    fibers = checks["moment fibers p=3 d<=5"]
    assert not fibers["passed"]
    assert "d=1 image mismatch" in fibers["detail"]
    code, out, err = run_cli(capsys, "verify", "kostka-cone")
    assert code == 1 and err == ""
    assert "[FAIL] moment fibers p=3 d<=5" in out


def test_green_prediction_enters_the_verdict(monkeypatch, capsys):
    # a vanishing the classical bound does not predict fails its check
    # (exit 1) instead of tripping an assert
    from veroschur.verify import run_suite
    monkeypatch.setattr("veroschur.syzygy.green_vanishing_predicted",
                        lambda p, q, d: False)
    checks = run_suite("green")["checks"]
    vanishing = [c for c in checks if c["name"].startswith("green vanishing")]
    assert len(vanishing) == 12
    assert not any(c["passed"] for c in vanishing)
    assert all(c["passed"] for c in checks if c not in vanishing)
    code, _, err = run_cli(capsys, "verify", "green")
    assert code == 1 and "internal error" not in err


def test_threads_option_removed(monkeypatch, tmp_path, capsys):
    # the run is single-threaded: no flag, config key or environment
    # variable selects a worker count
    code, out, err = run_cli(capsys, "syzygy", "-p", "1", "-q", "1", "-d", "2",
                             "--threads", "2")
    assert code == 2 and out == ""
    assert err == "error: unknown option --threads\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=2\n")
    code, _, err = run_cli(capsys, "syzygy", "-p", "1", "-q", "1", "-d", "2",
                           "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'threads'" in err
    monkeypatch.setenv("VEROSCHUR_THREADS", "2")
    code, out, _ = run_cli(capsys, "syzygy", "-p", "1", "-q", "1", "-d", "2",
                           "-n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["terms"] == [{"lambda": [2, 2], "mult": "1"}]


def test_verify_choices_are_the_suites():
    # the table spells the suite names out so that parsing need not import
    # verify; they must stay the names that run_suite knows
    assert list(COMMANDS["verify"][2]["suite"][0]) == sorted(SUITES)


def _child(args: list[str], env: dict | None = None, **kwargs):
    """A fresh interpreter run with `args`, the package on its path."""
    env = dict(os.environ if env is None else env)
    src = str(Path(veroschur.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          timeout=120, **kwargs)


# one small command per subcommand, an off-rule syzygy (the twisted bench
# slot), three verify runs, a usage error and a tripped cap, all in json,
# then pretty, csv and help runs; with the veroschur modules beyond
# veroschur, config, characters and partitions that it may load, and its
# compile budget: the syntax-tree nodes of cli.py and of every veroschur
# module it loads, which a child compiles from source when no bytecode
# cache is written.  Each budget is the count when the people formats and
# the weight table left the modules every route loads, plus under 3 %
JSON = ["--format", "json"]
ENTRY_POINT_RUNS = [
    pytest.param(["decompose", "wedge", "-p", "2", "-d", "2", "-n", "2",
                  *JSON], set(), 6_000, id="decompose"),
    pytest.param(["decompose", "bogus", "-p", "1", "-d", "1", *JSON], set(),
                 6_000, id="usage-error"),
    pytest.param(["decompose", "sym", "-p", "6", "-d", "2", "-n", "9",
                  "--max-entries", "10", *JSON], set(), 6_000, id="cap"),
    pytest.param(["syzygy", "-p", "1", "-q", "1", "-d", "2", "-n", "2",
                  *JSON], {"syzygy"}, 7_000, id="syzygy"),
    pytest.param(["syzygy", "-p", "2", "-q", "0", "-b", "1", "-d", "6", "-n",
                  "3", *JSON], {"syzygy", "koszul", "intrank"}, 9_840,
                 id="syzygy-search"),
    pytest.param(["cones", "-p", "2", "--d-min", "1", "--d-max", "4", *JSON],
                 {"cones"}, 9_270, id="cones"),
    pytest.param(["verify", "newell", *JSON], {"constructions", "verify"},
                 13_500, id="verify"),
    pytest.param(["verify", "staircase", *JSON], {"constructions", "verify"},
                 13_500, id="verify-staircase"),
    pytest.param(["verify", "ratios", *JSON], {"syzygy", "verify"}, 10_660,
                 id="verify-ratios"),
    pytest.param(["verify", "ratios", "--theorem", "sym-vs-wedge", "-p", "3",
                  "--d-max", "18", *JSON], {"verify"}, 9_700,
                 id="verify-theorem"),
    pytest.param(["decompose", "wedge", "-p", "2", "-d", "2", "-n", "2"],
                 {"readable"}, 6_750, id="pretty"),
    pytest.param(["syzygy", "-p", "1", "-q", "1", "-d", "2", "-n", "2",
                  "--format", "csv"], {"syzygy", "readable"}, 7_690,
                 id="csv"),
    pytest.param(["-h"], {"readable"}, 6_750, id="help"),
    pytest.param(["syzygy", "-h"], {"readable"}, 6_750, id="command-help"),
]


def _nodes(module: str) -> int:
    """Syntax-tree nodes of a veroschur module's source."""
    package = Path(veroschur.__file__).parent
    name = "__init__" if module == "veroschur" else module.split(".")[1]
    path = package / f"{name}.py"
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(), str(path))))


@pytest.mark.parametrize("argv, layer, budget", ENTRY_POINT_RUNS)
def test_entry_point_loads_only_its_layer(argv, layer, budget, capsys):
    """`python -m veroschur.cli` prints what main() prints, on stdout and
    stderr, and exits with its code, and each command imports only the
    modules its route runs: a syzygy spec on Green's rules loads syzygy
    and no basis search (koszul, intrank), only pretty, csv and help load
    the people formats (readable), and no run loads `json`,
    `dataclasses`, `inspect`, `argparse`, `gettext` or `locale` (each
    costs every fresh process milliseconds), or `csv` unless the format is
    csv.  What it loads stays within its compile budget.

    -X importtime reports every module the child imports on stderr and
    leaves stdout alone; the CLI itself runs as __main__, so it is not
    among them."""
    child = _child(["-X", "importtime", "-m", "veroschur.cli", *argv],
                   capture_output=True)
    code, out, err = run_cli(capsys, *argv)
    lines = child.stderr.splitlines(keepends=True)
    own = "".join(line for line in lines
                  if not line.startswith("import time:"))
    assert (child.returncode, child.stdout, own) == (code, out, err)
    loaded = {line.rsplit("|", 1)[1].strip() for line in lines
              if line.startswith("import time:")}
    ours = {m for m in loaded if m.split(".")[0] == "veroschur"}
    assert ours == {"veroschur", "veroschur.config", "veroschur.characters",
                    "veroschur.partitions"} | {f"veroschur.{m}" for m in layer}
    banned = {"json", "dataclasses", "inspect", "argparse", "gettext",
              "locale"} | ({"csv"} - set(argv))
    assert not loaded & banned
    assert _nodes("veroschur.cli") + sum(map(_nodes, ours)) <= budget


SMALL = ["decompose", "sym", "-p", "2", "-d", "2", "--format", "json"]


def test_profiled_process_prints_its_report(capsys):
    # run() ends with sys.exit under a profiler, so cProfile prints its
    # report after the output; os._exit would end the process first
    _, out, _ = run_cli(capsys, *SMALL)
    child = _child(["-m", "cProfile", "-m", "veroschur.cli", *SMALL],
                   capture_output=True)
    assert child.returncode == 0 and child.stdout.startswith(out)
    assert "function calls" in child.stdout[len(out):]


@pytest.mark.parametrize("flags, inspect", [(["-i"], {}),
                                            ([], {"PYTHONINSPECT": "1"})],
                         ids=["-i", "PYTHONINSPECT"])
def test_inspected_process_opens_the_prompt(flags, inspect, capsys,
                                            tmp_path):
    # with -i or PYTHONINSPECT=1 (sys.flags.inspect) the prompt opens after
    # run(); PYTHONINSPECT opens it only on a terminal, so stdin is one.
    # run() returns to it without a SystemExit, which the interpreter would
    # print as a traceback.  The prompt's readline keeps its history in
    # $HOME, and the prompt itself writes to stderr
    _, out, _ = run_cli(capsys, *SMALL)
    primary, terminal = os.openpty()
    os.write(primary, b'print("after")\n\x04')
    try:
        child = _child([*flags, "-m", "veroschur.cli", *SMALL],
                       env={**os.environ, "HOME": str(tmp_path), **inspect},
                       stdin=terminal, capture_output=True)
    finally:
        os.close(terminal)
        os.close(primary)
    assert child.stdout == out + "after\n"
    assert "Traceback" not in child.stderr
    assert "SystemExit" not in child.stderr


def test_inspected_process_without_a_terminal_exits_with_mains_code(capsys):
    # PYTHONINSPECT opens no prompt when stdin is not a terminal, so the
    # process ends as an uninspected one: main's output and code, and
    # nothing on stderr but main's own message
    for argv in (SMALL, ["decompose", "bogus", "-p", "1", "-d", "1"]):
        code, out, err = run_cli(capsys, *argv)
        child = _child(["-m", "veroschur.cli", *argv],
                       env={**os.environ, "PYTHONINSPECT": "1"},
                       stdin=subprocess.DEVNULL, capture_output=True)
        assert (child.returncode, child.stdout, child.stderr) == \
            (code, out, err), argv


def test_process_runs_the_exit_handlers(capsys):
    # run() runs the handlers registered before it, as the interpreter's
    # own exit would (the host's site, subprocess coverage)
    _, out, _ = run_cli(capsys, *SMALL)
    child = _child(["-c", "import atexit, runpy, sys; "
                    "atexit.register(print, 'handler ran'); "
                    f"sys.argv[1:] = {SMALL!r}; "
                    "runpy.run_module('veroschur.cli', run_name='__main__', "
                    "alter_sys=True)"], capture_output=True)
    assert (child.returncode, child.stdout, child.stderr) == \
        (0, out + "handler ran\n", "")


def test_failed_output_exits_2():
    # a process started with stdout closed fails in main and flushes
    # nothing; a full disk fails in main when stdout is unbuffered and at
    # run()'s flush when it is buffered, where the interpreter's own exit
    # would print an "Exception ignored" report and exit 120
    closed = _child(["-m", "veroschur.cli", *SMALL], stderr=subprocess.PIPE,
                    preexec_fn=lambda: os.close(1))
    assert (closed.returncode, closed.stderr) == \
        (2, "error: stdout is closed\n")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        with open("/dev/full", "w") as full:
            child = _child(["-m", "veroschur.cli", *SMALL],
                           env={**env, **unbuffered}, stdout=full,
                           stderr=subprocess.PIPE)
        assert (child.returncode, child.stderr) == \
            (2, "error: [Errno 28] No space left on device\n"), unbuffered


def _arguments(command: str) -> dict[str, tuple]:
    """The table's arguments of a subcommand: its own, then the common."""
    return {**COMMANDS[command][2], **COMMON}


def _value_strategy(tmp: Path):
    """The strategy for an argument's value: a drawn experiment name,
    partition or file where one is meant, else one of its choices, else
    an integer in -2..4."""
    special = {
        "--theorem": st.sampled_from(tuple(EXPERIMENTS) + ("bogus",)),
        "--mu": st.sampled_from(["2,1", "1", "3", "1,1,1", "1,2", "x", ""]),
        "--config": st.sampled_from([str(tmp / name) for name in
                                     ("good.cfg", "bad.cfg", "missing.cfg")]),
        "--out": st.just(str(tmp / "out.txt")),
    }

    def value(name: str, kind) -> st.SearchStrategy[str]:
        if name in special:
            return special[name]
        if isinstance(kind, tuple):
            return st.sampled_from(sorted(kind))
        return st.integers(-2, 4).map(str)

    return value


def _argv_strategy(tmp: Path) -> st.SearchStrategy[list[str]]:
    """Random argv built from the cli table: a subcommand, a value for its
    positional, its required options and up to four more, in random
    order, with integers in -2..4.  One run in ten loses a token."""
    value = _value_strategy(tmp)

    @st.composite
    def argv(draw) -> list[str]:
        name = draw(st.sampled_from(sorted(COMMANDS)))
        args = _arguments(name)
        out = [name] + [draw(value(a, spec[0])) for a, spec in args.items()
                        if a[0] != "-"]
        options = [a for a in args if a[0] == "-"]
        chosen = [a for a in options if args[a][3]]
        chosen += draw(st.lists(st.sampled_from(
            [a for a in options if not args[a][3]]), unique=True, max_size=4))
        for a in draw(st.permutations(chosen)):
            out += [a, draw(value(a, args[a][0]))]
        if draw(st.integers(0, 9)) == 0:
            del out[draw(st.integers(0, len(out) - 1))]
        return out

    return argv()


def test_argv_fuzz(tmp_path):
    (tmp_path / "good.cfg").write_text("max_enum_nodes=5000\nseed=3\n")
    (tmp_path / "bad.cfg").write_text("threads=2\n")
    # small caps keep every run cheap; drawn caps (at most 4) override them
    caps = ["--max-entries", "2000", "--max-dim", "200", "--max-nodes", "20000"]

    @settings(max_examples=150, deadline=None)
    @given(_argv_strategy(tmp_path))
    def run(argv):
        argv = argv[:1] + caps + argv[1:]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv

    run()


def _oracle_argv_strategy(tmp: Path) -> st.SearchStrategy[list[str]]:
    """The fuzz's shapes, written in every form a user may type: each
    option plain, as `--opt=value`, with its value attached (`-p3`), or
    under a prefix of its name, unique or ambiguous; options may repeat,
    come before or after the positional, and a value may be a negative
    integer or a token that is no value at all."""
    value = _value_strategy(tmp)
    # no `--`: argparse ends the options there (and takes `-d=--` as an
    # empty list), where the table parser reads it as an ordinary value
    odd = st.sampled_from(["x", "", "-x", "-", "1_0", " 3", "-3", "-.5",
                           "2 1", "--d", "-p"])

    @st.composite
    def argv(draw) -> list[str]:
        name = draw(st.sampled_from(sorted(COMMANDS)))
        args = _arguments(name)
        options = [a for a in args if a[0] == "-"]
        chosen = [a for a in options if args[a][3]]
        chosen += draw(st.lists(st.sampled_from(options), max_size=4))
        groups = []
        for a in draw(st.permutations(chosen)):
            text = draw(value(a, args[a][0]) if draw(st.integers(0, 9))
                        else odd)
            form = draw(st.sampled_from(("plain", "eq", "attached",
                                         "prefix", "prefix-eq")))
            flag = a
            if form.startswith("prefix") and a.startswith("--"):
                flag = a[:draw(st.integers(3, len(a)))]
            if form.endswith("eq"):
                groups.append([f"{flag}={text}"])
            elif form == "attached" and not a.startswith("--"):
                groups.append([a + text])
            else:
                groups.append([flag, text])
        positional = [draw(value(a, spec[0])) for a, spec in args.items()
                      if a[0] != "-"]
        groups.insert(draw(st.integers(0, len(groups))), positional)
        out = [name] + [token for group in groups for token in group]
        if draw(st.integers(0, 9)) == 0:
            del out[draw(st.integers(0, len(out) - 1))]
        return out

    return argv()


def _parsed(parse, argv: list[str]) -> dict | None:
    try:
        return vars(parse(argv))
    except ValueError:
        return None


def test_parser_matches_the_argparse_oracle(tmp_path):
    """The table parser and the argparse parser it replaced (with the
    bounds the old commands checked) agree on every field of every drawn
    argv, or both reject it."""

    @settings(max_examples=400, deadline=None)
    @given(_oracle_argv_strategy(tmp_path))
    def run(argv):
        assert _parsed(parse_args, argv) == _parsed(argparse_args, argv), argv

    run()


@pytest.mark.parametrize("argv, fields", [
    (["decompose", "--format=json", "sym", "-p3", "-d", "2"],
     {"kind": "sym", "p": 3, "d": 2, "format": "json"}),
    (["syzygy", "-p", "2", "-q", "0", "-b", "-1", "-d", "6", "-b=1"],
     {"b": 1, "n": None}),
    (["cones", "--d-m=1", "-p", "2", "--d-ma", "4", "--d-s", "2"], None),
    (["cones", "--d-mi=1", "-p", "2", "--d-ma", "4", "--d-s", "2"],
     {"d_min": 1, "d_max": 4, "d_step": 2}),
    (["verify", "--max-e", "-5", "ratios", "--max-n", "9"],
     {"suite": "ratios", "max_entries": -5, "max_nodes": 9}),
])
def test_parser_forms(argv, fields):
    # `=` forms, attached short values, negative values, unique and
    # ambiguous prefixes, repeats (the last wins) and options on either
    # side of the positional, each as argparse took it
    assert _parsed(parse_args, argv) == _parsed(argparse_args, argv)
    if fields is None:
        with pytest.raises(ValueError, match="ambiguous option --d-m"):
            parse_args(argv)
    else:
        args = vars(parse_args(argv))
        assert {k: args[k] for k in fields} == fields


def test_usage_errors_are_one_line(capsys):
    cases = [
        ([], "the command must be one of decompose, syzygy, cones, verify, "
             "got ''"),
        (["sym"], "the command must be one of decompose, syzygy, cones, "
                  "verify, got 'sym'"),
        (["decompose", "sym", "-p", "x", "-d", "1"],
         "-p must be an integer, got 'x'"),
        (["decompose", "sym", "-p", "1", "-d"], "-d needs a value"),
        (["decompose", "sym", "-p", "1", "-d", "--format", "json"],
         "-d needs a value"),
        (["decompose", "sym", "-p", "1"], "missing -d"),
        (["decompose", "-p", "1", "-d", "1"], "missing kind"),
        (["decompose", "sym", "wedge", "-p", "1", "-d", "1"],
         "unexpected argument 'wedge'"),
        # `--` is a value like any other, not the end of the options
        (["decompose", "-p", "1", "-d", "1", "--", "sym"],
         "kind must be one of tensor, sym, wedge, got '--'"),
        (["decompose", "sym", "-p", "1", "-d", "1", "--max", "3"],
         "ambiguous option --max: could be --max-entries, --max-dim, "
         "--max-nodes"),
        (["verify", "newell", "--format", "xml"],
         "--format must be one of json, csv, pretty, got 'xml'"),
        # a repeated bound is checked on the value that wins
        (["cones", "-p", "2", "--d-min", "1", "--d-max", "3", "--d-step",
          "2", "--d-step", "0"], "--d-step must be at least 1, got 0"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    code, out, _ = run_cli(capsys, "cones", "-p", "2", "--d-min", "1",
                           "--d-max", "3", "--d-step", "0", "--d-step", "1",
                           "--format", "csv")
    assert code == 0 and out.splitlines()[-1].startswith("fit_types")


def test_help_is_built_from_the_table(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: veroschur COMMAND")
    assert all(f"  {name} " in out for name in COMMANDS)
    for name in COMMANDS:
        for flag in ("-h", "--help", "--he"):
            code, out, err = run_cli(capsys, name, flag)
            assert (code, err) == (0, ""), (name, flag)
            assert out.startswith(f"usage: veroschur {name} ")
            assert all(f"  {a} " in out for a in _arguments(name))
    _, out, _ = run_cli(capsys, "verify", "-h")
    assert "(required) the check suite: doubling, green" in out
