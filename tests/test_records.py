"""The contract of the package's twelve record classes: their
constructors, their repr, equality and hashing, and which of them can
change after construction."""

import numpy as np
import pytest

from threshspec.hypergraph import AdjacencyMatrix, BlockProfile, ThresholdHypergraph
from threshspec.oracle import GeneralHypergraph
from threshspec.sequences import BinarySequence, ShortSequence
from threshspec.spectrum import (
    BlockEigenvalue,
    EigenPair,
    QuotientMatrix,
    ScanRow,
    Spectrum,
)
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
            {"name": "demo", "checked": 2, "failures": ["x"]},
            ("name", "checked", "failures"),
            "SweepResult(name='demo', checked=2, failures=['x'])",
        ),
    ]


CASES = _cases()
FROZEN = [case for case in CASES if case[0] is not SweepResult]
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
    first, second = SweepResult("demo"), SweepResult("demo")
    assert first == SweepResult("demo", 0, [])
    assert first.failures is not second.failures


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


@pytest.mark.parametrize("cls, kwargs, fields, text", FROZEN, ids=IDS[:-1])
def test_frozen_records_hash_and_refuse_changes(cls, kwargs, fields, text):
    made = cls(*kwargs.values())
    assert hash(made) == hash(cls(*kwargs.values()))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(made, name, getattr(made, name))
        with pytest.raises(AttributeError):
            delattr(made, name)
    assert repr(made) == text


def test_sweep_result_stays_mutable_and_unhashable():
    res = SweepResult("demo")
    res.checked += 1
    res.failures.append("x")
    res.name = "renamed"
    assert res == SweepResult("renamed", 1, ["x"])
    with pytest.raises(TypeError):
        hash(res)


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
