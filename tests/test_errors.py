"""The private ``_trusted`` constructor against the public constructors of
the four frozen value types it builds."""

import tracemalloc

import pytest

from invlayers.combinat import ColoredPartition, SetPartition
from invlayers.errors import _trusted
from invlayers.graphs import Graph
from invlayers.permgroup import Permutation
from invlayers.tensor_basis import SparseIndicatorTensor

# (type, valid fields, invalid fields, the public constructor's message)
CASES = [
    (Permutation, {"image": (2, 0, 1)}, {"image": (0, 0, 1)},
     "not a permutation of 0..2: (0, 0, 1)"),
    (Graph, {"n": 3, "rows": (0b110, 0b001, 0b001)}, {"n": 2, "rows": (0b10, 0b00)},
     "adjacency not symmetric at pair (0, 1)"),
    (ColoredPartition,
     {"axis_types": (0, 1, 0), "gammas": (SetPartition(((0, 2),)), SetPartition(((1,),)))},
     {"axis_types": (0, 2), "gammas": (SetPartition(((0,),)), SetPartition(((1,),)))},
     "axis 1 has type 2 outside 0..1"),
    (SparseIndicatorTensor,
     {"n": 3, "k": 2, "support": frozenset({(0, 1), (2, 2)})},
     {"n": 2, "k": 3, "support": frozenset({(0, 1)})},
     "support tuple (0, 1) is not of length 3"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, valid, invalid, message", CASES, ids=IDS)
def test_trusted_value_equals_the_checked_one(cls, valid, invalid, message):
    built, checked = _trusted(cls, **valid), cls(**valid)
    assert type(built) is cls
    assert built == checked
    assert hash(built) == hash(checked)
    assert repr(built) == repr(checked)


@pytest.mark.parametrize("cls, valid, invalid, message", CASES, ids=IDS)
def test_public_constructor_keeps_its_check(cls, valid, invalid, message):
    with pytest.raises(ValueError) as e:
        cls(**invalid)
    assert str(e.value) == message


@pytest.mark.parametrize("cls, valid, invalid, message", CASES, ids=IDS)
def test_trusted_never_runs_post_init(monkeypatch, cls, valid, invalid, message):
    def refuse(self):
        raise AssertionError("__post_init__ ran")

    monkeypatch.setattr(cls, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="__post_init__ ran"):
        cls(**valid)
    assert _trusted(cls, **valid).__dict__ == valid


def _traced_bytes(make, count=10_000) -> int:
    """Traced memory held by count values from make(), kept alive together."""
    tracemalloc.start()
    try:
        kept = [make() for _ in range(count)]
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_trusted_values_are_no_larger_than_checked_ones():
    # a value built without its constructor keeps the same compact layout
    for cls, valid, invalid, message in CASES:
        trusted = _traced_bytes(lambda: _trusted(cls, **valid))
        checked = _traced_bytes(lambda: cls(**valid))
        assert trusted <= 1.1 * checked, (cls.__name__, trusted, checked)


def test_checked_tensors_sharing_a_support_are_no_larger_than_trusted_ones():
    # the public constructor keeps a frozenset of tuples instead of copying it
    support = frozenset({(0, 1), (2, 2)})
    checked = _traced_bytes(lambda: SparseIndicatorTensor(n=3, k=2, support=support))
    trusted = _traced_bytes(lambda: _trusted(SparseIndicatorTensor, n=3, k=2, support=support))
    assert checked <= 1.1 * trusted, (checked, trusted)
