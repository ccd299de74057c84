"""Invariant dimensions, bases, and spectral tools for cyclic shifts.

Two group actions live here: the cyclic group C_n acting diagonally on
order-k index tuples (shift every index by the same amount mod n), and the
two-dimensional translation group C_d x C_d acting on d x d images.  The
invariant subspaces have closed-form dimensions -- ``n**(k-1)`` and
``d**(2*k-2)`` -- realized concretely by orbit-indicator bases.  A plus-sign
discrete Fourier transform diagonalizes the translation action: translating
an image multiplies each spectral coefficient by a known root of unity.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Iterable

import numpy as np

from .budgets import DEFAULT, Budgets
from .errors import BudgetError
from .tensor_basis import SparseIndicatorTensor

__all__ = [
    "GridImage",
    "SpectralImage",
    "cyclic_basis",
    "cyclic_invariant_dim",
    "dft2",
    "idft2",
    "translate",
    "translation_invariant_dim",
    "translation_phases",
    "verify_diagonalization",
    "selftest",
]


# --------------------------------------------------------------- dimensions


def cyclic_invariant_dim(n: int, k: int) -> int:
    """Dimension of the C_n-invariant subspace of order-k tensors on [n].

    The diagonal shift action on nonempty index tuples is free, so every
    orbit has exactly n elements and there are ``n**(k-1)`` of them.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return n ** (k - 1)


def translation_invariant_dim(d: int, k: int) -> int:
    """Dimension of the C_d x C_d-invariant subspace of order-k tensors
    on the d*d pixel grid: ``d**(2*k-2)``, the square of the cyclic count."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return d ** (2 * k - 2)


# --------------------------------------------------------------- orbit basis


def cyclic_basis(
    n: int, k: int, budget: Budgets = DEFAULT
) -> list[SparseIndicatorTensor]:
    """Orbit-indicator basis of the C_n-invariant order-k tensors.

    Each orbit is a "difference diagonal": fix the offsets of the trailing
    k-1 indices relative to the first, then shift the whole tuple through
    all n residues.  Orbits are emitted in lexicographic order of their
    offset tuples.
    """
    cyclic_invariant_dim(n, k)  # validates n, k
    if n**k > budget.tuple_enumeration:
        raise BudgetError(
            f"cyclic basis for n={n}, k={k} needs {n**k} index tuples; "
            f"budget is {budget.tuple_enumeration}"
        )
    basis = []
    for flat in range(n ** (k - 1)):
        offsets = []
        rem = flat
        for _ in range(k - 1):
            rem, off = divmod(rem, n)
            offsets.append(off)
        offsets = tuple(reversed(offsets))
        support = frozenset(
            tuple((shift + off) % n for off in (0, *offsets)) for shift in range(n)
        )
        basis.append(SparseIndicatorTensor(n=n, k=k, support=support))
    return basis


# --------------------------------------------------------------- transforms


def _phase_matrix(d: int) -> np.ndarray:
    """The symmetric Vandermonde matrix F[a, i] = omega**(a*i) with
    omega = exp(2j*pi/d)."""
    a = np.arange(d)
    return np.exp(2j * np.pi / d * np.outer(a, a))


def _as_square(x, dtype) -> np.ndarray:
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square d x d array, got shape {arr.shape}")
    return arr


def dft2(x) -> np.ndarray:
    """Two-dimensional plus-sign DFT: z[a, b] = sum_{i,j} x[i, j] *
    omega**(a*i + b*j) with omega = exp(2j*pi/d).  Equals d*d times the
    standard inverse FFT."""
    arr = _as_square(x, complex)
    F = _phase_matrix(arr.shape[0])
    return F @ arr @ F.T


def idft2(z) -> np.ndarray:
    """Inverse of :func:`dft2`; returns a complex array (take the real part
    only if the source was known to be real)."""
    arr = _as_square(z, complex)
    d = arr.shape[0]
    if d == 0:
        return arr
    Fc = np.conj(_phase_matrix(d))
    return (Fc @ arr @ Fc.T) / (d * d)


def translate(x, p: int, q: int) -> np.ndarray:
    """Cyclically translate an image: the result y satisfies
    y[i, j] = x[i - p mod d, j - q mod d]."""
    arr = _as_square(x, None)
    return np.roll(arr, (p, q), axis=(0, 1))


def translation_phases(d: int, p: int, q: int) -> np.ndarray:
    """The d x d table of multipliers omega**(p*a + q*b) picked up by the
    spectral coefficients when the image is translated by (p, q)."""
    a = np.arange(d)
    return np.exp(2j * np.pi / d * (p * a[:, None] + q * a[None, :]))


def verify_diagonalization(d: int, trials: int = 50, seed: int = 0) -> float:
    """Check, on random images, that translating by every (p, q) multiplies
    each spectral coefficient by omega**(p*a + q*b).  Returns the maximum
    absolute deviation observed."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if trials < 1:
        raise ValueError(f"need at least one image, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal((d, d))
        z = dft2(x)
        for p in range(d):
            for q in range(d):
                lhs = dft2(translate(x, p, q))
                dev = np.max(np.abs(lhs - translation_phases(d, p, q) * z))
                worst = max(worst, float(dev))
    return worst


# --------------------------------------------------------------- image I/O


def _json_fields(path: str, *fields: str) -> list:
    """The named fields of the JSON object in a file; ValueError naming the
    first one missing."""
    with open(path, encoding="utf-8") as fp:
        data = json.load(fp)
    for field in fields:
        if not isinstance(data, dict) or field not in data:
            raise ValueError(f"{path} is not a JSON object with a {field!r} field")
    return [data[field] for field in fields]


@dataclasses.dataclass
class GridImage:
    """A square d x d real-valued image."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = _as_square(self.pixels, float)

    @property
    def d(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def load(cls, path) -> "GridImage":
        """Read an image from a ``.json`` file ({"pixels": [[...]]}) or,
        for any other suffix, from CSV (d rows of d comma-separated reals)."""
        path = os.fspath(path)
        if path.endswith(".json"):
            (pixels,) = _json_fields(path, "pixels")
            return cls(np.asarray(pixels, dtype=float))
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))

    def save(self, path) -> None:
        path = os.fspath(path)
        if path.endswith(".json"):
            with open(path, "w", encoding="utf-8") as fp:
                json.dump({"d": self.d, "pixels": self.pixels.tolist()}, fp)
                fp.write("\n")
        else:
            np.savetxt(path, self.pixels, delimiter=",")

    def dft(self) -> "SpectralImage":
        return SpectralImage(dft2(self.pixels))


@dataclasses.dataclass
class SpectralImage:
    """Complex spectral coefficients z[a, b] of a square image, indices
    taken mod d with the zero frequency at (0, 0)."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = _as_square(self.coeffs, complex)

    @property
    def d(self) -> int:
        return self.coeffs.shape[0]

    @classmethod
    def load(cls, path) -> "SpectralImage":
        real, imag = _json_fields(os.fspath(path), "re", "im")
        return cls(np.asarray(real, float) + 1j * np.asarray(imag, float))

    def save(self, path) -> None:
        payload = {
            "d": self.d,
            "re": np.real(self.coeffs).tolist(),
            "im": np.imag(self.coeffs).tolist(),
        }
        with open(os.fspath(path), "w", encoding="utf-8") as fp:
            json.dump(payload, fp)
            fp.write("\n")

    def idft(self) -> GridImage:
        return GridImage(np.real(idft2(self.coeffs)))


# --------------------------------------------------------------- selftest


def selftest() -> None:
    """Fast internal consistency checks; raises AssertionError on failure."""
    assert cyclic_invariant_dim(3, 2) == 3
    assert translation_invariant_dim(2, 2) == 4
    basis = cyclic_basis(3, 2)
    assert len(basis) == 3
    covered = set()
    for b in basis:
        assert len(b.support) == 3
        covered |= b.support
    assert len(covered) == 9
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4))
    assert np.max(np.abs(idft2(dft2(x)) - x)) <= 1e-12
    assert verify_diagonalization(3, trials=5, seed=0) <= 1e-9
