import itertools
import random
import re

import numpy as np
import pytest

from invlayers import zerosum
from invlayers.budgets import Budgets
from invlayers.errors import BudgetError
from invlayers.zerosum import (
    DavenportResult,
    GeneratorDegreeCertificate,
    GroupSequence,
    davenport_constant,
    decompose_invariant_monomial,
    find_zero_sum_subsequence,
    is_zero_sum,
    max_generator_degree_translation,
    verify_zero_sum_free,
)


def seq(d, *elements):
    return GroupSequence.from_elements(d, elements)


def sub_multisets(s):
    """All sub-multisets of s (including empty and s itself), as element lists."""
    items = s.counts
    for choice in itertools.product(*(range(m + 1) for _, m in items)):
        yield [e for (e, _), c in zip(items, choice) for _ in range(c)]


def oracle_is_zero_sum(d, elements):
    return (
        sum(a for a, _ in elements) % d == 0 and sum(b for _, b in elements) % d == 0
    )


def oracle_has_zero_sum_subsequence(s):
    return any(
        elems and oracle_is_zero_sum(s.d, elems) for elems in sub_multisets(s)
    )


# ---------------------------------------------------------------- sequences


def test_sequence_construction_and_canonical_order():
    s = seq(3, (2, 1), (0, 1), (2, 1))
    assert s.counts == (((0, 1), 1), ((2, 1), 2))
    assert s.degree == 3
    assert s.elements() == [(0, 1), (2, 1), (2, 1)]
    assert s == GroupSequence.from_alpha(3, {(2, 1): 2, (0, 1): 1, (1, 1): 0})
    assert hash(s) == hash(seq(3, (0, 1), (2, 1), (2, 1)))


def test_sequence_validation():
    with pytest.raises(ValueError):
        GroupSequence.from_alpha(0, {})
    with pytest.raises(ValueError):
        GroupSequence.from_alpha(3, {(3, 0): 1})
    with pytest.raises(ValueError):
        GroupSequence.from_alpha(3, {(0, 0): -1})
    with pytest.raises(ValueError):
        seq(2, (0, 1)).subtract(seq(2, (1, 0)))
    with pytest.raises(ValueError):
        seq(2, (0, 1)).add(seq(3, (0, 1)))


@pytest.mark.parametrize(
    "d, counts",
    [
        (True, ()),
        (3, (((True, False), 1),)),
        (3, (((0, True), 1),)),
        (3, (((1, 0), True),)),
    ],
)
def test_sequence_rejects_booleans(d, counts):
    with pytest.raises(ValueError):
        GroupSequence(d, counts)


def test_sequence_arithmetic():
    a = seq(4, (1, 2), (3, 0))
    b = seq(4, (1, 2))
    assert a.subtract(b) == seq(4, (3, 0))
    assert b.add(seq(4, (3, 0))) == a
    assert a.subtract(a).degree == 0
    assert a.sum_mod() == ((1 + 3) % 4, 2 % 4)


def test_is_zero_sum_known_cases():
    assert is_zero_sum(seq(5))
    assert is_zero_sum(seq(2, (1, 0), (1, 0)))
    assert is_zero_sum(seq(3, (1, 0), (1, 0), (1, 0), (0, 1), (0, 2)))
    assert not is_zero_sum(seq(3, (1, 2)))
    assert is_zero_sum(seq(2, (1, 0), (0, 1), (1, 1)))


def test_is_zero_sum_matches_oracle_randomly():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        elems = [
            (int(rng.integers(d)), int(rng.integers(d)))
            for _ in range(int(rng.integers(0, 8)))
        ]
        assert is_zero_sum(GroupSequence.from_elements(d, elems)) == oracle_is_zero_sum(
            d, elems
        )


# ------------------------------------------------------- subsequence search


def test_find_zero_sum_subsequence_examples():
    assert find_zero_sum_subsequence(seq(2, (1, 0), (0, 1), (1, 1))) == seq(
        2, (1, 0), (0, 1), (1, 1)
    )
    assert find_zero_sum_subsequence(seq(3, (1, 2))) is None
    assert find_zero_sum_subsequence(seq(2, (1, 0), (1, 0), (0, 1))) == seq(
        2, (1, 0), (1, 0)
    )
    assert find_zero_sum_subsequence(seq(4, (0, 0))) == seq(4, (0, 0))
    assert find_zero_sum_subsequence(seq(3)) is None


def test_find_zero_sum_subsequence_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        elems = [
            (int(rng.integers(d)), int(rng.integers(d)))
            for _ in range(int(rng.integers(0, 9)))
        ]
        s = GroupSequence.from_elements(d, elems)
        got = find_zero_sum_subsequence(s)
        if got is None:
            assert not oracle_has_zero_sum_subsequence(s)
        else:
            assert got.degree > 0
            assert is_zero_sum(got)
            s.subtract(got)  # raises if not a sub-multiset


def test_long_sequences_yield_short_witnesses():
    rng = np.random.default_rng(8)
    for d in [2, 3, 4]:
        for _ in range(50):
            elems = [
                (int(rng.integers(d)), int(rng.integers(d)))
                for _ in range(4 * d)
            ]
            got = find_zero_sum_subsequence(GroupSequence.from_elements(d, elems))
            assert got is not None
            assert 1 <= got.degree <= 2 * d - 1


# ---------------------------------------------------------------- Davenport


def brute_davenport(d, max_len):
    """Least L <= max_len such that every length-L sequence over Z_d x Z_d
    has a nonempty zero-sum subsequence, by direct enumeration of multisets."""
    elements = list(itertools.product(range(d), repeat=2))
    for L in range(1, max_len + 1):
        if all(
            oracle_has_zero_sum_subsequence(GroupSequence.from_elements(d, combo))
            for combo in itertools.combinations_with_replacement(elements, L)
        ):
            return L
    return None


def test_davenport_d2_matches_brute_force():
    assert brute_davenport(2, 4) == 3
    res = davenport_constant(2)
    assert isinstance(res, DavenportResult)
    assert res.constant == 3
    assert res.certified
    assert res.witness == seq(2, (1, 0), (0, 1))
    assert res.max_zero_sum_free_length == 2


def test_davenport_d3():
    res = davenport_constant(3)
    assert res.constant == 5
    assert res.certified
    assert res.witness == seq(3, (1, 0), (1, 0), (0, 1), (0, 1))
    assert verify_zero_sum_free(res.witness)


def test_davenport_d3_matches_brute_force():
    assert brute_davenport(3, 5) == 5


def test_davenport_d4_certified():
    res = davenport_constant(4)
    assert res.constant == 7
    assert res.certified
    assert res.witness.degree == 6
    assert verify_zero_sum_free(res.witness)


def test_davenport_beyond_budget_gives_witness_only():
    for d in [5, 6]:
        res = davenport_constant(d)
        assert res.constant == 2 * d - 1
        assert not res.certified
        assert res.witness.degree == 2 * d - 2
        assert verify_zero_sum_free(res.witness)


def test_davenport_witness_check_reaches_large_d():
    # the witness check is bounded by its sub-multisets (d*d here), not by
    # closure_cap on the d*d sums, so d = 317 is still answered
    res = davenport_constant(317)
    assert (res.constant, res.certified) == (633, False)
    cert = max_generator_degree_translation(317)
    assert cert.degree == 633 and cert.indecomposable_verified


def test_verify_zero_sum_free_budget_counts_sub_multisets():
    s = GroupSequence.from_alpha(5, {(1, 0): 4, (0, 1): 4})  # 25 sub-multisets
    with pytest.raises(BudgetError):
        verify_zero_sum_free(s, Budgets(tuple_enumeration=24))
    assert verify_zero_sum_free(s, Budgets(tuple_enumeration=25))


def test_davenport_d1():
    res = davenport_constant(1)
    assert res.constant == 1
    assert res.certified
    assert res.witness.degree == 0


def test_davenport_budget_override_forces_exhaustive():
    res = davenport_constant(5, budget=Budgets(davenport_exhaustive_max_d=5))
    assert res.constant == 9
    assert res.certified


def test_verify_zero_sum_free():
    assert verify_zero_sum_free(seq(3, (1, 0), (1, 0), (0, 1), (0, 1)))
    assert not verify_zero_sum_free(seq(3, (1, 0), (2, 0)))
    assert not verify_zero_sum_free(seq(3, (0, 0)))
    assert verify_zero_sum_free(seq(3))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_verify_zero_sum_free_agrees_with_exhaustive_oracle(d):
    # lengths on both sides of the Davenport length 2d - 1; draws from a
    # few elements so that short zero-sum-free sequences are common
    rng = np.random.default_rng(100 + d)
    seen = set()
    for _ in range(150):
        pool = [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(3)]
        length = int(rng.integers(0, 2 * d + 3))
        elems = [pool[int(rng.integers(3))] for _ in range(length)]
        s = GroupSequence.from_elements(d, elems)
        free = verify_zero_sum_free(s)
        assert free == (not oracle_has_zero_sum_subsequence(s))
        # the dynamic program on the elements in draw order, copies apart
        assert (zerosum._first_zero_sum(d, elems) is None) == free
        seen.add((length < 2 * d - 1, free))
    assert seen >= {(True, True), (False, False)}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_first_zero_sum_flat_and_sparse_back_pointers_agree(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(100):
        length = int(rng.integers(0, 2 * d + 2))
        elems = [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(length)]
        flat = zerosum._first_zero_sum(d, elems)
        assert zerosum._first_zero_sum(d, elems, flat=False) == flat


def test_verify_zero_sum_free_holds_only_reachable_sums_for_a_huge_modulus():
    # d*d = 10**12 sums, of which three elements reach at most seven
    d = 10**6
    assert verify_zero_sum_free(seq(d, (1, 0), (0, 1), (1, 1)))
    assert not verify_zero_sum_free(seq(d, (1, 2), (5, 5), (d - 1, d - 2)))


@pytest.mark.parametrize(
    "d, length, first",
    [
        (1, 0, []),
        (2, 2, [(0, 1), (1, 0)]),
        (3, 4, [(0, 1), (0, 1), (1, 0), (1, 0)]),
        (4, 6, [(0, 1), (0, 1), (0, 1), (1, 0), (1, 0), (1, 0)]),
    ],
)
def test_davenport_search_longest_and_first_sequence_frozen(d, length, first):
    assert zerosum._max_zero_sum_free_length(d) == (length, seq(d, *first))


def test_davenport_search_runs_once_per_d():
    search = zerosum._max_zero_sum_free_length
    search.cache_clear()
    assert davenport_constant(4) == davenport_constant(4)
    info = search.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_davenport_cached_search_keeps_the_callers_budget():
    davenport_constant(4)
    assert not davenport_constant(4, Budgets(davenport_exhaustive_max_d=3)).certified
    # the witness (1, 0)^3 (0, 1)^3 has 16 sub-multisets
    with pytest.raises(BudgetError):
        davenport_constant(4, Budgets(tuple_enumeration=8))


def test_davenport_cached_search_is_rechecked_every_call(monkeypatch):
    davenport_constant(4)
    checked = []
    real = zerosum.verify_zero_sum_free

    def counting(s, budget):
        checked.append(s)
        return real(s, budget)

    monkeypatch.setattr(zerosum, "verify_zero_sum_free", counting)
    assert davenport_constant(4).certified
    assert len(checked) == 2  # the classical witness, then the search's sequence


@pytest.mark.parametrize(
    "found",
    [
        lambda d: (2 * d - 1, seq(d, *[(1, 0)] * (d - 1), *[(0, 1)] * d)),
        lambda d: (2 * d - 2, seq(d, (0, 0), *[(1, 0)] * (2 * d - 3))),
    ],
    ids=["too_long", "holds_zero"],
)
def test_davenport_rejects_a_wrong_search_result(monkeypatch, found):
    monkeypatch.setattr(zerosum, "_max_zero_sum_free_length", found)
    for _ in range(2):
        with pytest.raises(AssertionError):
            davenport_constant(4)


@pytest.mark.parametrize("d", ["3", 2.0, True, None])
def test_davenport_rejects_a_non_integer_d(d):
    davenport_constant(1)  # True == 1, so True must not reach this memo entry
    for call in (davenport_constant, max_generator_degree_translation):
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer, got {d!r}")):
            call(d)


# ------------------------------------------------------------- decomposition


def test_decompose_short_input_is_singleton():
    s = seq(2, (1, 0), (0, 1), (1, 1))
    assert decompose_invariant_monomial(s) == [s]
    assert decompose_invariant_monomial(seq(3)) == []


def test_decompose_rejects_non_invariant():
    with pytest.raises(ValueError):
        decompose_invariant_monomial(seq(3, (1, 2)))


def test_decompose_frozen_examples():
    s = seq(2, (1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1))
    factors = decompose_invariant_monomial(s)
    assert len(factors) >= 2
    total = GroupSequence.from_elements(2, [])
    for f in factors:
        assert is_zero_sum(f)
        assert 1 <= f.degree <= 3
        total = total.add(f)
    assert total == s

    s3 = seq(3, (1, 0), (1, 0), (1, 0), (0, 1), (0, 1), (0, 1))
    factors3 = decompose_invariant_monomial(s3)
    assert {f.counts for f in factors3} == {
        (((0, 1), 3),),
        (((1, 0), 3),),
    }


def _packed(d, text):
    # "1011" is the sequence (1, 0), (1, 1): one digit per coordinate
    return seq(d, *((int(text[i]), int(text[i + 1])) for i in range(0, len(text), 2)))


@pytest.mark.parametrize(
    "d, degree, factors",
    [
        (3, 12, ["101112", "02021220", "1220202021"]),
        (4, 20, ["00", "020303", "10111112", "2020", "2020", "2222", "121321233132"]),
        (
            5,
            30,
            [
                "00",
                "031010101111",
                "011111111313",
                "132022",
                "03142023",
                "142224",
                "23324041424344",
            ],
        ),
    ],
)
def test_decompose_seeded_payloads_frozen(d, degree, factors):
    # a seeded random payload closed to zero sum, as the benchmark draws
    # them; the factors are the ones the subset-sum search has always found
    rng = random.Random(d)
    elems = [(rng.randrange(d), rng.randrange(d)) for _ in range(degree - 1)]
    p = sum(a for a, _ in elems) % d
    q = sum(b for _, b in elems) % d
    elems.append(((-p) % d, (-q) % d))
    s = GroupSequence.from_elements(d, elems)
    assert decompose_invariant_monomial(s) == [_packed(d, f) for f in factors]


def test_decompose_random_soundness():
    rng = np.random.default_rng(21)
    for d in [2, 3, 4]:
        for _ in range(50):
            n_free = int(rng.integers(0, 6 * d))
            elems = [
                (int(rng.integers(d)), int(rng.integers(d))) for _ in range(n_free)
            ]
            p = sum(a for a, _ in elems) % d
            q = sum(b for _, b in elems) % d
            if (p, q) != (0, 0):
                elems.append(((-p) % d, (-q) % d))
            s = GroupSequence.from_elements(d, elems)
            assert is_zero_sum(s)
            factors = decompose_invariant_monomial(s)
            total = GroupSequence.from_elements(d, [])
            for f in factors:
                assert is_zero_sum(f)
                assert 1 <= f.degree <= 2 * d - 1
                total = total.add(f)
            assert total == s


def _reference_decompose(s):
    """decompose_invariant_monomial with the search run on the first 2d - 1
    entries of the fully expanded ``elements()`` list every round."""
    cap = 2 * s.d - 1
    factors, current = [], s
    while current.degree > cap:
        part = zerosum._first_zero_sum(s.d, current.elements()[:cap])
        current = current.subtract(part)
        factors.append(part)
    return factors + [current] if current.degree else factors


def _seeded_zero_sum(d, degree, seed):
    rng = random.Random(seed)
    elems = [(rng.randrange(d), rng.randrange(d)) for _ in range(degree - 1)]
    p = sum(a for a, _ in elems) % d
    q = sum(b for _, b in elems) % d
    return GroupSequence.from_elements(d, elems + [((-p) % d, (-q) % d)])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("degree", [1, 7, 40, 300, 1500])
def test_decompose_matches_the_expanded_reference(d, degree):
    s = _seeded_zero_sum(d, degree, seed=1000 * d + degree)
    assert decompose_invariant_monomial(s) == _reference_decompose(s)


def test_decompose_never_expands_the_whole_multiset(monkeypatch):
    # each round reads only the first 2d - 1 elements, so a long monomial
    # costs time linear in its degree
    s = _seeded_zero_sum(3, 3000, seed=7)
    expected = _reference_decompose(s)

    def refuse(self):
        raise AssertionError("elements() expanded the whole multiset")

    monkeypatch.setattr(GroupSequence, "elements", refuse)
    assert decompose_invariant_monomial(s) == expected


# ---------------------------------------------------- generator degree bound


def test_max_generator_degree_values():
    assert max_generator_degree_translation(1).degree == 1
    assert max_generator_degree_translation(2).degree == 3
    assert max_generator_degree_translation(3).degree == 5


def test_generator_degree_certificate_contents():
    cert = max_generator_degree_translation(3)
    assert isinstance(cert, GeneratorDegreeCertificate)
    assert cert.d == 3
    assert cert.davenport.certified
    assert cert.indecomposable.degree == 5
    assert is_zero_sum(cert.indecomposable)
    assert cert.indecomposable_verified
    # the witness is the extremal sequence plus its inverse-sum element
    assert cert.indecomposable.subtract(cert.davenport.witness).degree == 1


def test_generator_degree_uncertified_davenport_still_verifies_witness():
    cert = max_generator_degree_translation(6)
    assert cert.degree == 11
    assert not cert.davenport.certified
    assert cert.indecomposable.degree == 11
    assert cert.indecomposable_verified


def test_indecomposable_witness_has_no_proper_zero_sum_part():
    for d in [2, 3, 4]:
        cert = max_generator_degree_translation(d)
        u = cert.indecomposable
        for elems in sub_multisets(u):
            if elems and len(elems) < u.degree:
                assert not oracle_is_zero_sum(d, elems)


# ------------------------------------------- monomial correspondence oracle


def _exponent_tables(d, degree):
    cells = list(itertools.product(range(d), repeat=2))
    for combo in itertools.combinations_with_replacement(cells, degree):
        yield combo


@pytest.mark.parametrize("d", [2, 3])
def test_monomial_invariance_iff_zero_sum(d):
    # a monomial in the spectral coordinates picks up an integer power of
    # omega under each translation generator; it is invariant exactly when
    # both powers vanish mod d, which is the zero-sum condition
    for degree in range(1, 5):
        for combo in _exponent_tables(d, degree):
            phase_row = sum(a for a, _ in combo) % d
            phase_col = sum(b for _, b in combo) % d
            invariant = phase_row == 0 and phase_col == 0
            assert invariant == is_zero_sum(GroupSequence.from_elements(d, combo))


def test_selftest_runs():
    from invlayers import zerosum

    zerosum.selftest()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GroupSequence(3, (5,)), "malformed count entry 5"),
        (lambda: seq(3, (1, 0)).add(seq(4, (1, 0))), "modulus mismatch: 3 vs 4"),
        (lambda: seq(3, (1, 0)).subtract(seq(4, (1, 0))), "modulus mismatch: 3 vs 4"),
        (lambda: davenport_constant(0), "need d >= 1, got 0"),
    ],
    ids=["malformed-entry", "add-moduli", "subtract-moduli", "davenport-d"],
)
def test_group_sequence_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_subset_sum_search_refuses_a_table_beyond_its_budget():
    with pytest.raises(BudgetError) as info:
        find_zero_sum_subsequence(seq(400, (1, 0)))
    assert str(info.value) == "subset-sum search needs 160000 states; budget is 100000"
