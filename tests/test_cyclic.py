import json

import numpy as np
import pytest

from invlayers.budgets import Budgets
from invlayers.errors import BudgetError
from invlayers.cyclic import (
    GridImage,
    SpectralImage,
    cyclic_basis,
    cyclic_invariant_dim,
    dft2,
    idft2,
    translate,
    translation_invariant_dim,
    translation_phases,
    verify_diagonalization,
)
from invlayers.permgroup import (
    burnside_count,
    cyclic_generators,
    orbit_count_on_tuples,
    translation_generators,
)
from tests.conftest import brute_cyclic_group, brute_orbits_on_tuples


# ---------------------------------------------------------------- dimensions


def test_cyclic_dim_known_values():
    assert cyclic_invariant_dim(3, 2) == 3
    assert cyclic_invariant_dim(4, 3) == 16
    for n in range(1, 7):
        assert cyclic_invariant_dim(n, 1) == 1


def test_cyclic_dim_matches_orbit_oracle():
    for n in range(1, 7):
        for k in range(1, 5):
            expected = orbit_count_on_tuples(cyclic_generators(n), k)
            assert cyclic_invariant_dim(n, k) == expected == n ** (k - 1)


def test_translation_dim_known_values():
    assert translation_invariant_dim(2, 2) == 4
    assert translation_invariant_dim(3, 2) == 9
    for d in range(1, 5):
        assert translation_invariant_dim(d, 1) == 1


def test_translation_dim_matches_burnside_oracle():
    for d in range(1, 4):
        for k in range(1, 4):
            expected = burnside_count(translation_generators(d), k)
            assert translation_invariant_dim(d, k) == expected == d ** (2 * k - 2)


def test_translation_dim_is_square_of_cyclic_dim():
    for d in range(1, 7):
        for k in range(1, 5):
            assert translation_invariant_dim(d, k) == cyclic_invariant_dim(d, k) ** 2


def test_dim_validation():
    for fn in (cyclic_invariant_dim, translation_invariant_dim):
        with pytest.raises(ValueError):
            fn(0, 2)
        with pytest.raises(ValueError):
            fn(3, 0)


# ---------------------------------------------------------------- basis


def test_cyclic_basis_difference_diagonals_n3_k2():
    basis = cyclic_basis(3, 2)
    supports = [b.support for b in basis]
    assert supports == [
        frozenset({(0, 0), (1, 1), (2, 2)}),
        frozenset({(0, 1), (1, 2), (2, 0)}),
        frozenset({(0, 2), (1, 0), (2, 1)}),
    ]


def test_cyclic_basis_trivial_and_k3():
    (only,) = cyclic_basis(2, 1)
    assert only.support == frozenset({(0,), (1,)})
    basis = cyclic_basis(2, 3)
    assert len(basis) == 4
    assert all(len(b.support) == 2 for b in basis)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 2)])
def test_cyclic_basis_partitions_with_free_orbits(n, k):
    basis = cyclic_basis(n, k)
    assert len(basis) == n ** (k - 1)
    union = set()
    for b in basis:
        assert len(b.support) == n
        assert not (union & b.support)
        union |= b.support
    assert len(union) == n**k


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (2, 3)])
def test_cyclic_basis_supports_are_group_orbits(n, k):
    got = {b.support for b in cyclic_basis(n, k)}
    assert got == brute_orbits_on_tuples(brute_cyclic_group(n), n, k)


def test_cyclic_basis_fixed_by_shift():
    for b in cyclic_basis(4, 3):
        shifted = {tuple((i + 1) % 4 for i in idx) for idx in b.support}
        assert shifted == set(b.support)


def test_cyclic_basis_budget():
    with pytest.raises(BudgetError):
        cyclic_basis(10, 3, budget=Budgets(tuple_enumeration=100))


# ---------------------------------------------------------------- DFT


def test_dft_constant_image():
    z = dft2(np.full((4, 4), 2.5))
    assert abs(z[0, 0] - 2.5 * 16) <= 1e-12
    z[0, 0] = 0
    assert np.max(np.abs(z)) <= 1e-12


def test_dft_delta_at_origin_is_all_ones():
    x = np.zeros((5, 5))
    x[0, 0] = 1.0
    assert np.max(np.abs(dft2(x) - 1.0)) <= 1e-12


def test_dft_matches_inverse_fft_oracle():
    # with the plus-sign root-of-unity convention the transform equals
    # d^2 times numpy's inverse FFT
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        x = rng.standard_normal((d, d))
        oracle = d * d * np.fft.ifft2(x)
        assert np.max(np.abs(dft2(x) - oracle)) <= 1e-9


def test_dft_round_trip():
    rng = np.random.default_rng(12)
    for d in [1, 2, 3, 4, 7, 8]:
        x = rng.standard_normal((d, d))
        assert np.max(np.abs(idft2(dft2(x)) - x)) <= 1e-12


def test_dft_parseval():
    rng = np.random.default_rng(13)
    for d in [2, 4, 8]:
        x = rng.standard_normal((d, d))
        z = dft2(x)
        assert abs(np.sum(np.abs(z) ** 2) - d * d * np.sum(x**2)) <= 1e-9


def test_dft_conjugate_symmetry_for_real_images():
    rng = np.random.default_rng(14)
    d = 6
    z = dft2(rng.standard_normal((d, d)))
    for a in range(d):
        for b in range(d):
            assert abs(z[(-a) % d, (-b) % d] - np.conj(z[a, b])) <= 1e-9


def test_dft_requires_square():
    with pytest.raises(ValueError):
        dft2(np.zeros((2, 3)))


# ---------------------------------------------------------------- translation


def test_translate_moves_content_forward():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    # y[i, j] = x[i - p, j - q]
    assert np.array_equal(translate(x, 1, 0), [[3.0, 4.0], [1.0, 2.0]])
    assert np.array_equal(translate(x, 0, 1), [[2.0, 1.0], [4.0, 3.0]])
    assert np.array_equal(translate(translate(x, 1, 1), 1, 1), x)


def test_translate_matches_group_generator_action():
    rng = np.random.default_rng(15)
    d = 3
    x = rng.standard_normal((d, d))
    row_shift, col_shift = translation_generators(d).generators
    for g, (p, q) in [(row_shift, (1, 0)), (col_shift, (0, 1))]:
        inv = np.array(g.inverse().image)
        acted = x.reshape(d * d)[inv].reshape(d, d)
        assert np.array_equal(acted, translate(x, p, q))


def test_translation_phase_table():
    d = 4
    ph = translation_phases(d, 1, 2)
    omega = np.exp(2j * np.pi / d)
    for a in range(d):
        for b in range(d):
            assert abs(ph[a, b] - omega ** (a + 2 * b)) <= 1e-12


def test_dft_diagonalizes_translations_explicitly():
    rng = np.random.default_rng(16)
    d = 5
    x = rng.standard_normal((d, d))
    z = dft2(x)
    for p in range(d):
        for q in range(d):
            lhs = dft2(translate(x, p, q))
            assert np.max(np.abs(lhs - translation_phases(d, p, q) * z)) <= 1e-9


def test_verify_diagonalization_deviations():
    assert verify_diagonalization(1, trials=3, seed=0) == 0.0
    assert verify_diagonalization(2, trials=10, seed=1) <= 1e-14
    for d in range(2, 9):
        assert verify_diagonalization(d, trials=50, seed=2) <= 1e-9


@pytest.mark.parametrize("trials", [0, -2])
def test_verify_diagonalization_needs_an_image(trials):
    with pytest.raises(ValueError, match="at least one image"):
        verify_diagonalization(3, trials=trials)


# ---------------------------------------------------------------- image I/O


def test_grid_image_validation_and_round_trip(tmp_path):
    with pytest.raises(ValueError):
        GridImage(np.zeros((2, 3)))
    img = GridImage([[1.0, 2.0], [3.0, 4.0]])
    assert img.d == 2
    csv_path = tmp_path / "img.csv"
    img.save(csv_path)
    assert csv_path.read_text().splitlines()[0].count(",") == 1
    again = GridImage.load(csv_path)
    assert np.array_equal(again.pixels, img.pixels)
    json_path = tmp_path / "img.json"
    img.save(json_path)
    assert json.loads(json_path.read_text())["pixels"] == [[1.0, 2.0], [3.0, 4.0]]
    assert np.array_equal(GridImage.load(json_path).pixels, img.pixels)


def test_spectral_image_json_pairs(tmp_path):
    img = GridImage([[1.0, 0.0], [0.0, 0.0]])
    spec = img.dft()
    assert isinstance(spec, SpectralImage)
    path = tmp_path / "spec.json"
    spec.save(path)
    data = json.loads(path.read_text())
    assert data["d"] == 2
    assert np.array_equal(data["re"], np.real(spec.coeffs))
    assert np.array_equal(data["im"], np.imag(spec.coeffs))
    loaded = SpectralImage.load(path)
    assert np.array_equal(loaded.coeffs, spec.coeffs)
    back = loaded.idft()
    assert np.max(np.abs(back.pixels - img.pixels)) <= 1e-12


def test_selftest_runs():
    from invlayers import cyclic

    cyclic.selftest()
