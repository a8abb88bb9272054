"""The contract of the package's twelve record classes: their
constructors, their repr, equality and hashing, and that none of them
changes after construction."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import threshspec.records as records
from threshspec.hypergraph import AdjacencyMatrix, BlockProfile, ThresholdHypergraph
from threshspec.oracle import GeneralHypergraph
from threshspec.quotient import QuotientMatrix
from threshspec.scan import ScanRow
from threshspec.sequences import BinarySequence, ShortSequence
from threshspec.spectrum import BlockEigenvalue, EigenPair, Spectrum
from threshspec.verify import SweepResult

SS = "ShortSequence(k=2, runs=(2, 1), first_run_has_ones=False)"
PAIR = "EigenPair(value=2.0, multiplicity=1, source='quotient')"


def _cases():
    """(class, constructor keywords in parameter order, fields in
    declaration order, repr) for one instance of each record class."""
    ss = ShortSequence(2, (2, 1))
    pair = EigenPair(2.0, 1, "quotient")
    edges = frozenset({frozenset({1, 2})})
    return [
        (
            BinarySequence,
            {"k": 3, "bits": (0, 0, 1, 0, 1)},
            ("k", "bits"),
            "BinarySequence(k=3, bits=(0, 0, 1, 0, 1))",
        ),
        (
            ShortSequence,
            {"k": 2, "runs": (2, 1), "first_run_has_ones": False},
            ("k", "runs", "first_run_has_ones"),
            SS,
        ),
        (
            BlockProfile,
            {"seq": ss, "gamma": (0, 1)},
            ("seq", "gamma", "pair_total", "frobenius_sq"),
            f"BlockProfile(seq={SS}, gamma=(0, 1), pair_total=2, frobenius_sq=4)",
        ),
        (
            AdjacencyMatrix,
            {"entries": ((0, 1), (1, 0))},
            ("entries",),
            "AdjacencyMatrix(entries=((0, 1), (1, 0)))",
        ),
        (
            ThresholdHypergraph,
            {"seq": ss},
            ("runs",),
            f"ThresholdHypergraph(runs={SS})",
        ),
        (
            GeneralHypergraph,
            {"n": 3, "k": 2, "edges": edges},
            ("n", "k", "edges"),
            "GeneralHypergraph(n=3, k=2, edges=frozenset({frozenset({1, 2})}))",
        ),
        (
            BlockEigenvalue,
            {"value": -1, "multiplicity_lower_bound": 1, "block_index": 2},
            ("value", "multiplicity_lower_bound", "block_index"),
            "BlockEigenvalue(value=-1, multiplicity_lower_bound=1, block_index=2)",
        ),
        (
            QuotientMatrix,
            {"entries": ((3, 3), (12, 0)), "block_sizes": (4, 1)},
            ("entries", "block_sizes"),
            "QuotientMatrix(entries=((3, 3), (12, 0)), block_sizes=(4, 1))",
        ),
        (
            EigenPair,
            {"value": 2.0, "multiplicity": 1, "source": "quotient"},
            ("value", "multiplicity", "source"),
            PAIR,
        ),
        (Spectrum, {"pairs": (pair,)}, ("pairs",), f"Spectrum(pairs=({PAIR},))"),
        (
            ScanRow,
            {
                "sequence": "k=2;0,0,1",
                "n": 3,
                "k": 2,
                "r": 2,
                "min_quotient_gap": 1.5,
                "flagged": False,
            },
            ("sequence", "n", "k", "r", "min_quotient_gap", "flagged"),
            "ScanRow(sequence='k=2;0,0,1', n=3, k=2, r=2, "
            "min_quotient_gap=1.5, flagged=False)",
        ),
        (
            SweepResult,
            {"name": "demo", "checked": 2, "failed": 1, "failures": ("x",)},
            ("name", "checked", "failed", "failures"),
            "SweepResult(name='demo', checked=2, failed=1, failures=('x',))",
        ),
    ]


CASES = _cases()
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, kwargs, fields, text", CASES, ids=IDS)
def test_constructor_and_repr(cls, kwargs, fields, text):
    # positional and keyword construction agree, and the repr lists every
    # field in declaration order, derived ones included
    made = cls(*kwargs.values())
    assert made == cls(**kwargs)
    assert repr(made) == text
    assert all(hasattr(made, name) for name in fields)


def test_constructor_defaults():
    assert ShortSequence(2, (2, 1)) == ShortSequence(2, (2, 1), False)


@pytest.mark.parametrize("cls, kwargs, fields, text", CASES, ids=IDS)
def test_equality_holds_only_within_a_class(cls, kwargs, fields, text):
    made = cls(*kwargs.values())
    twin = cls(*kwargs.values())
    assert made == twin and not made != twin
    subclass = type(f"Sub{cls.__name__}", (cls,), {})
    for other in (
        subclass(*kwargs.values()),
        tuple(getattr(made, name) for name in fields),
    ):
        assert made != other and other != made
    for other_cls, other_kwargs, _, _ in CASES:
        if other_cls is not cls:
            assert made != other_cls(*other_kwargs.values())


@pytest.mark.parametrize("cls, kwargs, fields, text", CASES, ids=IDS)
def test_frozen_records_hash_and_refuse_changes(cls, kwargs, fields, text):
    made = cls(*kwargs.values())
    assert hash(made) == hash(cls(*kwargs.values()))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(made, name, getattr(made, name))
        with pytest.raises(AttributeError):
            delattr(made, name)
    assert repr(made) == text


def test_one_base_and_every_record_frozen():
    # records.py defines only the frozen base, which every record extends
    tree = ast.parse(Path(records.__file__).read_text())
    classes = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    assert classes == records.__all__ == ["FrozenRecord"]
    assert all(issubclass(case[0], records.FrozenRecord) for case in CASES)


def test_threshold_hypergraph_caches_its_bit_form():
    h = ThresholdHypergraph(ShortSequence(2, (2, 1)))
    assert h.sequence is h.sequence
    assert "sequence" in vars(h)
    assert h == ThresholdHypergraph(ShortSequence(2, (2, 1)))


#: One constructor call per record that used to truncate a float field
#: to an integer; each must now refuse it.
TRUNCATED = {
    "ShortSequence": lambda: ShortSequence(3, (3.7, 1.2)),
    "BinarySequence": lambda: BinarySequence(3, (0, 0, 0.9, 1)),
    "AdjacencyMatrix": lambda: AdjacencyMatrix(((0, 1.5), (1.5, 0))),
    "QuotientMatrix": lambda: QuotientMatrix(((0, 2.9), (2.9, 0)), (1, 1)),
    "BlockProfile": lambda: BlockProfile(ShortSequence(3, (3, 1)), (0.5, 1.7)),
}


@pytest.mark.parametrize("build", TRUNCATED.values(), ids=TRUNCATED.keys())
def test_integer_fields_refuse_floats(build):
    with pytest.raises(TypeError):
        build()


def test_integer_fields_take_integer_types_as_int():
    ss = ShortSequence(np.int64(3), (np.int64(3), True))
    assert ss == ShortSequence(3, (3, 1))
    assert [type(x) for x in (ss.k, *ss.runs)] == [int, int, int]
    assert BinarySequence(True + True, (False, True)).bits == (0, 1)


PLAIN = (BlockEigenvalue, EigenPair, Spectrum, SweepResult, ScanRow)


def test_only_the_base_writes_fields():
    # no module but records.py calls object.__setattr__ or writes an
    # instance's __dict__, and the plain records keep the base's __init__
    src = Path(records.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "records.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                setattr_call = (
                    node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"
                )
                assert not setattr_call, f"{path.name}:{node.lineno}"
                assert node.attr != "__dict__", f"{path.name}:{node.lineno}"
    for cls in PLAIN:
        assert "__init__" not in vars(cls)
        assert cls.__init__ is records.FrozenRecord.__init__


@pytest.mark.parametrize("cls", PLAIN, ids=[cls.__name__ for cls in PLAIN])
def test_the_base_binds_each_field_once(cls):
    kwargs = next(case[1] for case in CASES if case[0] is cls)
    values = list(kwargs.values())
    made = cls(*values)
    # positional, keyword and every mixed split give the same record
    for cut in range(len(values) + 1):
        rest = dict(list(kwargs.items())[cut:])
        assert cls(*values[:cut], **rest) == made
    name = cls.__qualname__
    first = next(iter(kwargs))
    fields = re.escape(repr(cls._fields))
    # missing, extra, unknown, twice given, and missing when all are named
    for build in (
        lambda: cls(*values[:-1]),
        lambda: cls(*values, values[-1]),
        lambda: cls(*values, colour=1),
        lambda: cls(*values, **{first: kwargs[first]}),
        lambda: cls(**dict(list(kwargs.items())[1:])),
    ):
        with pytest.raises(TypeError, match=rf"^{name} takes .*{fields}"):
            build()
