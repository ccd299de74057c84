import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_set_partitions
from invlayers.combinat import (
    ColoredPartition,
    SetPartition,
    _stirling_row,
    bell,
    egf_power_coeffs,
    enumerate_colored_partitions,
    enumerate_set_partitions,
    gen_bell,
    set_partitions_of,
    stirling2,
)
from invlayers.errors import BudgetError


# Frozen from the brute-force insertion oracle below (and checked
# against it for every run in test_counts_match_brute_force).
STIRLING_CASES = [(0, 0, 1), (3, 1, 1), (3, 2, 3), (3, 3, 1), (4, 2, 7), (5, 3, 25)]
BELL_SMALL = [1, 1, 2, 5, 15, 52, 203]


@pytest.mark.parametrize("k,j,expected", STIRLING_CASES)
def test_stirling2_values(k, j, expected):
    assert stirling2(k, j) == expected


def test_stirling2_against_brute_force():
    for k in range(7):
        parts = brute_set_partitions(range(k))
        for j in range(k + 2):
            assert stirling2(k, j) == sum(1 for p in parts if len(p) == j)


def test_stirling2_large_row_without_recursion():
    # with the cache empty, row 2000 is built from row 0 in one call
    _stirling_row.cache_clear()
    try:
        assert stirling2(2000, 2) == 2**1999 - 1
        assert stirling2(2000, 1999) == math.comb(2000, 2)
    finally:
        _stirling_row.cache_clear()


def test_stirling2_out_of_range():
    assert stirling2(3, 5) == 0
    assert stirling2(0, 1) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_bell_values():
    # 1, 2, 5 are the single-type dimension counts for tensor orders 1..3.
    assert [bell(k) for k in range(7)] == BELL_SMALL
    for k in range(8):
        assert bell(k) == len(brute_set_partitions(range(k)))


def test_gen_bell_polynomial_rows():
    # Closed forms for small tensor orders: m; m^2+m; m^3+3m^2+m; m^4+6m^3+7m^2+m.
    for m in range(1, 5):
        assert gen_bell(m, 1) == m
        assert gen_bell(m, 2) == m**2 + m
        assert gen_bell(m, 3) == m**3 + 3 * m**2 + m
        assert gen_bell(m, 4) == m**4 + 6 * m**3 + 7 * m**2 + m


def test_gen_bell_key_values():
    assert gen_bell(1, 3) == 5
    assert gen_bell(2, 2) == 6  # six invariant matrices for two node types
    assert gen_bell(2, 3) == 22  # 22 order-3 basis tensors for two node types
    assert gen_bell(3, 3) == 57
    assert gen_bell(3, 4) == 309
    with pytest.raises(ValueError):
        gen_bell(0, 2)


def _multinomial_power_coeff(a, m, k):
    """Direct oracle: b_k = sum over compositions k_1+..+k_m = k of
    multinomial(k; k_1..k_m) * prod a_{k_i}."""
    total = 0
    for comp in _compositions(k, m):
        term = math.factorial(k)
        for ki in comp:
            term //= math.factorial(ki)
        for ki in comp:
            term *= a[ki]
        total += term
    return total


def _compositions(k, m):
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, m - 1):
            yield (first,) + rest


def test_egf_power_coeffs_against_multinomial_sum():
    a = [bell(i) for i in range(6)]
    for m in range(1, 5):
        b = egf_power_coeffs(a, m)
        for k in range(6):
            assert b[k] == _multinomial_power_coeff(a, m, k)


def test_egf_power_of_bell_gives_colored_counts():
    # exp(exp(x)-1)**m is the EGF of the m-colored partition counts.
    a = [bell(i) for i in range(7)]
    for m in range(1, 5):
        b = egf_power_coeffs(a, m)
        assert b == [gen_bell(m, k) for k in range(7)]
    assert egf_power_coeffs([1, 1, 2, 5, 15], 3)[3] == 57


def test_egf_power_identity_for_m_one():
    a = [1, 4, 9, 16]
    assert egf_power_coeffs(a, 1) == a


def test_enumerate_set_partitions_small():
    assert enumerate_set_partitions(0) == [SetPartition(())]
    two = enumerate_set_partitions(2)
    assert two == [
        SetPartition(((0, 1),)),
        SetPartition(((0,), (1,))),
    ]


def test_enumerate_set_partitions_matches_oracle():
    for k in range(7):
        got = enumerate_set_partitions(k)
        assert len(got) == len(set(got)) == bell(k)
        as_sets = {frozenset(frozenset(b) for b in p.blocks) for p in got}
        assert as_sets == set(brute_set_partitions(range(k)))


def test_enumerate_set_partitions_cap():
    with pytest.raises(BudgetError):
        enumerate_set_partitions(9)
    assert len(enumerate_set_partitions(9, cap=9)) == bell(9)


def test_set_partition_canonical_form_and_validation():
    p = SetPartition(((2, 5), (1,), (0, 3)))
    assert p.blocks == ((0, 3), (1,), (2, 5))
    assert p.elements == (0, 1, 2, 3, 5)
    assert p.rgs() == (0, 1, 2, 0, 2)
    assert SetPartition.from_rgs(p.elements, p.rgs()) == p
    with pytest.raises(ValueError):
        SetPartition(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        SetPartition(((),))
    with pytest.raises(ValueError):
        SetPartition.from_rgs((0, 1), (0, 2))


@given(st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_partitions_cover_and_are_disjoint(k):
    for p in enumerate_set_partitions(k):
        assert p.elements == tuple(range(k))
        assert sum(len(b) for b in p.blocks) == k


def test_enumerate_colored_partitions_counts():
    for k in range(7):
        for m in range(1, 5):
            descs = enumerate_colored_partitions(k, m)
            assert len(descs) == len(set(descs)) == gen_bell(m, k)


def test_enumerate_colored_partitions_structure():
    descs = enumerate_colored_partitions(2, 2)
    assert len(descs) == 6
    # Lexicographic in the type assignment, partitions in growth-string order.
    assert [d.axis_types for d in descs] == [
        (0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)
    ]
    both_type0 = descs[0]
    assert both_type0.gammas[0] == SetPartition(((0, 1),))
    assert both_type0.gammas[1] == SetPartition(())
    for d in descs:
        for j in range(d.num_types):
            assert d.gammas[j].elements == d.axes_of_type(j)


def _nested_loop_colored_partitions(k, m):
    """The enumeration as first written: each type's partitions rebuilt, and
    each descriptor checked by its public constructor, per type assignment."""
    out = []
    for assignment in itertools.product(range(m), repeat=k):
        per_type = []
        for j in range(m):
            axes = [s for s, t in enumerate(assignment) if t == j]
            per_type.append(list(set_partitions_of(axes)))
        for combo in itertools.product(*per_type):
            out.append(ColoredPartition(assignment, combo))
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", range(5))
def test_enumerate_colored_partitions_matches_the_nested_loop(k, m):
    got = enumerate_colored_partitions(k, m)
    want = _nested_loop_colored_partitions(k, m)
    assert got == want
    assert [hash(d) for d in got] == [hash(d) for d in want]
    for d in got:
        assert type(d.axis_types) is tuple and type(d.gammas) is tuple
        assert ColoredPartition(d.axis_types, d.gammas) == d


def test_colored_partition_validation():
    with pytest.raises(ValueError):
        ColoredPartition((0, 2), (SetPartition(((0,),)), SetPartition(((1,),))))
    with pytest.raises(ValueError):
        # gamma_0 must partition exactly the type-0 axes
        ColoredPartition((0, 0), (SetPartition(((0,),)),))


def test_colored_partition_caps():
    with pytest.raises(BudgetError):
        enumerate_colored_partitions(9, 2)
    with pytest.raises(BudgetError):
        enumerate_colored_partitions(2, 9)


@given(st.lists(st.integers(0, 30), min_size=0, max_size=6, unique=True))
@settings(max_examples=60, deadline=None)
def test_partitions_of_arbitrary_ground_set(elements):
    parts = list(set_partitions_of(elements))
    assert len(parts) == bell(len(elements))
    for p in parts:
        assert p.elements == tuple(sorted(elements))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SetPartition(((-1,),)), "invalid axis index -1"),
        (lambda: SetPartition.from_rgs((0, 1), (0,)), "rgs length must match ground set size"),
        (lambda: ColoredPartition((), ()), "need at least one type"),
        (lambda: gen_bell(1, -1), "k must be nonnegative"),
        (lambda: egf_power_coeffs([1], 0), "m must be positive"),
        (lambda: enumerate_set_partitions(-1), "k must be nonnegative"),
        (lambda: enumerate_colored_partitions(-1, 1), "k must be nonnegative"),
        (lambda: enumerate_colored_partitions(1, 0), "m must be positive"),
    ],
    ids=["negative-axis", "rgs-length", "no-type", "gen-bell-k", "egf-m", "set-partitions-k",
         "colored-k", "colored-m"],
)
def test_combinat_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
