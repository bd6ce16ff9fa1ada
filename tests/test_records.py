"""The records' contract: every validation message, value equality and
hashing, frozenness, and that RunConfig.replace validates like a new
RunConfig (a config file line or a flag with a bad value exits 2)."""

from fractions import Fraction

import pytest

from veroschur.characters import NotACharacter, SchurExpansion
from veroschur.cli import main
from veroschur.config import DEFAULT_CONFIG, RunConfig
from veroschur.cones import DualityRow, FitResult, shape_cone_section
from veroschur.koszul import KoszulBlock, WeightTable
from veroschur.syzygy import KoszulSpec
from veroschur.verify import Check

from oracles import RowContentMatrix

CAPS = ("max_table_entries", "max_matrix_dim", "max_enum_nodes")
FLAGS = {"max_table_entries": "--max-entries", "max_matrix_dim": "--max-dim",
         "max_enum_nodes": "--max-nodes"}
BAD_FORMAT = "format must be one of json, csv, pretty"


@pytest.mark.parametrize("name", CAPS)
@pytest.mark.parametrize("value", [0, -5])
def test_run_config_rejects_a_cap_below_one(name, value, tmp_path, capsys):
    message = f"{name} must be positive"
    with pytest.raises(ValueError, match=f"^{message}$"):
        RunConfig(**{name: value})
    with pytest.raises(ValueError, match=f"^{message}$"):
        DEFAULT_CONFIG.replace(**{name: value})
    argv = ["decompose", "sym", "-p", "2", "-d", "2"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\n{name}={value}\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {cfg}:2: {message}\n"
    assert main(argv + [FLAGS[name], str(value)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_run_config_rejects_an_unknown_format(tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^{BAD_FORMAT}$"):
        RunConfig(fmt="xml")
    with pytest.raises(ValueError, match=f"^{BAD_FORMAT}$"):
        DEFAULT_CONFIG.replace(fmt="xml")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# formats\nformat=xml\n")
    assert main(["decompose", "sym", "-p", "2", "-d", "2",
                 "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {cfg}:2: {BAD_FORMAT}\n"


def test_run_config_replace_keeps_the_other_fields():
    cfg = RunConfig(max_matrix_dim=7, seed=3)
    assert cfg.replace(fmt="json") == RunConfig(max_matrix_dim=7, seed=3,
                                                fmt="json")
    assert cfg.replace() == cfg and cfg.max_matrix_dim == 7
    with pytest.raises(TypeError):
        cfg.replace(threads=2)


def test_koszul_spec_validation_and_default_n():
    for p, q, b in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="^p, q, b must be nonnegative$"):
            KoszulSpec(p, q, b, 2)
    for d in (0, -1):
        with pytest.raises(ValueError, match="^d must be positive$"):
            KoszulSpec(1, 1, 0, d)
    with pytest.raises(ValueError, match="^n must be positive$"):
        KoszulSpec(1, 1, 0, 2, -1)
    assert KoszulSpec(2, 1, 0, 3).n == 4
    assert KoszulSpec(2, 1, 0, 3, 0) == KoszulSpec(2, 1, 0, 3, 4)


@pytest.mark.parametrize("p, d, t, message", [
    (2, 2, ((2, 0),), "matrix must be p x p"),
    (2, 2, ((2, 0), (1, 1)), r"entry below diagonal at \(1,0\)"),
    (2, 2, ((2, 3), (0, 2)), "diagonal entry 1 inconsistent with level 2"),
    (2, 2, ((2, 3), (0, -1)), r"condition \(1\) fails at diagonal index 1"),
    (3, 2, ((2, 0, 0), (0, 2, 2), (0, 0, 0)),
     r"condition \(2\) fails at \(i=0, j=2\)"),
])
def test_row_content_matrix_messages(p, d, t, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RowContentMatrix(p, d, t)


def test_expansion_and_table_messages():
    # the records hold computed characters, so a bad term or entry is a
    # fault of the program (exit 4), not a usage error
    for terms, message in (({(2, 1, 0): 1}, r"bad term \(2, 1, 0\) for n=2, degree 3"),
                           ({(1, 2): 1}, r"bad term \(1, 2\) for n=2, degree 3"),
                           ({(1, 1, 1): 1}, r"bad term \(1, 1, 1\) for n=2, degree 3"),
                           ({(2,): 1}, r"bad term \(2,\) for n=2, degree 3"),
                           ({(3,): 0}, r"nonpositive multiplicity at \(3,\)")):
        with pytest.raises(NotACharacter, match=f"^{message}$"):
            SchurExpansion(2, 3, terms)
    for entries, message in (({(1, 2): 1}, r"bad dominant weight \(1, 2\) for degree 3"),
                             ({(3,): 1}, r"bad dominant weight \(3,\) for degree 3"),
                             ({(2, 0): 1}, r"bad dominant weight \(2, 0\) for degree 3"),
                             ({(3, 0): -2}, r"nonpositive entry at \(3, 0\)")):
        with pytest.raises(NotACharacter, match=f"^{message}$"):
            WeightTable(2, 3, entries)
    # the terms are stored in decreasing order, in a copy
    terms = {(1, 1): 2, (2,): 1}
    e = SchurExpansion(2, 2, terms)
    assert list(e.terms) == [(2,), (1, 1)] and e.terms is not terms
    assert SchurExpansion(2, 0).terms == {} and WeightTable(1, 0).entries == {}


FROZEN = {
    "RunConfig": lambda: RunConfig(seed=1),
    "KoszulSpec": lambda: KoszulSpec(1, 1, 0, 2),
    "RowContentMatrix": lambda: RowContentMatrix.from_offdiag(2, 2, (1,)),
    "DualityRow": lambda: DualityRow(1, 2, 3, True, True),
    "FitResult": lambda: FitResult(Fraction(1), Fraction(0)),
    "ConeCrossSection": lambda: shape_cone_section(2),
    "Check": lambda: Check("c", True, "ok"),
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=list(FROZEN))
def test_frozen_records_are_values(make):
    record, twin = make(), make()
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert len({twin, record}) == 1
    # a NamedTuple's fields are _fields, a Record's its __slots__
    name = (type(record).__slots__ or record._fields)[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert record == twin


def test_record_equality_is_by_value_and_type():
    assert RunConfig(seed=1) != RunConfig(seed=2)
    assert KoszulSpec(1, 1, 0, 2) != KoszulSpec(1, 1, 0, 3)
    assert KoszulSpec(1, 1, 0, 2, 4) != RunConfig()
    assert repr(KoszulSpec(1, 1, 0, 2)) == "KoszulSpec(p=1, q=1, b=0, d=2, n=3)"
    # the records whose values hold a dict compare by value, reject
    # assignment and are unhashable
    a = SchurExpansion(2, 2, {(2,): 1})
    assert a == SchurExpansion(2, 2, {(2,): 1}) != SchurExpansion(3, 2, {(2,): 1})
    assert KoszulBlock((1,), (0, 0, 0), None, ()) == KoszulBlock((1,), (0, 0, 0), None, ())
    for record in (a, WeightTable(1, 0)):
        with pytest.raises(AttributeError):
            record.n = 3
        with pytest.raises(TypeError):
            hash(record)
    assert a == SchurExpansion(2, 2, {(2,): 1})

