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
import itertools
import json
import os
import warnings

import numpy as np

from .budgets import DEFAULT, Budgets
from .errors import BudgetError, _trusted
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
    # shifted[off][shift] = (shift + off) % n: an orbit's tuples are the
    # columns of the rows its offsets pick
    shifted = [tuple(range(off, n)) + tuple(range(off)) for off in range(n)]
    basis = []
    for offsets in itertools.product(range(n), repeat=k - 1):
        rows = [shifted[off] for off in (0, *offsets)]
        # k rows of residues mod n give tuples of length k in 0..n-1
        basis.append(_trusted(SparseIndicatorTensor, n=n, k=k, support=frozenset(zip(*rows))))
    return basis


# --------------------------------------------------------------- transforms


def _phase_matrix(d: int) -> np.ndarray:
    """The symmetric Vandermonde matrix F[a, i] = omega**(a*i) with
    omega = exp(2j*pi/d)."""
    a = np.arange(d)
    return np.exp(2j * np.pi / d * np.outer(a, a))


def _as_square(x, dtype) -> np.ndarray:
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"expected a square d x d array, got shape {arr.shape}")
    return arr


def _read_json(path: str, name: str):
    """The JSON in a UTF-8 file; ValueError "{name} is not valid JSON: ..." if not."""
    with open(path, encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
            raise ValueError(f"{name} is not valid JSON: {exc}") from None


def _numbers(values, name: str) -> np.ndarray:
    """A finite float array from JSON-decoded values, checked entry by
    entry, or from a float array; ValueError naming ``name`` otherwise."""
    if not isinstance(values, np.ndarray):
        cells = np.array(values, dtype=object)
        kinds = {type(cell) for cell in cells.flat}
        if list in kinds:
            raise ValueError(f"{name} has rows of unequal length")
        if not kinds <= {int, float}:  # a bool, a string, null or an object
            raise ValueError(f"{name} must hold only numbers")
        try:
            values = cells.astype(float)
        except OverflowError:
            raise ValueError(f"{name} holds an int beyond float range") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{name} holds a non-finite number")
    return values


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
    return np.conj(dft2(np.conj(arr))) / arr.size


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


def _loaded(path: str, values) -> np.ndarray:
    """A square finite real array read from a file; ValueError naming the file if not."""
    arr = _numbers(values, path)
    try:
        return _as_square(arr, float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _refuse_non_finite(path: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"not writing {path}: the result holds a non-finite number")


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
            data = _read_json(path, path)
            if not isinstance(data, dict) or "pixels" not in data:
                raise ValueError(f"{path} is not a JSON object with a 'pixels' field")
            pixels = data["pixels"]
        else:
            try:
                with warnings.catch_warnings():
                    # an empty file is refused by _loaded as not square
                    warnings.simplefilter("ignore", UserWarning)
                    pixels = np.loadtxt(path, delimiter=",", ndmin=2)
            except ValueError:
                raise ValueError(
                    f"{path} is not CSV with the same number of comma-separated reals on every row"
                ) from None
        return cls(_loaded(path, pixels))

    def save(self, path) -> None:
        path = os.fspath(path)
        _refuse_non_finite(path, self.pixels)
        if path.endswith(".json"):
            with open(path, "w", encoding="utf-8") as fp:
                json.dump({"d": self.d, "pixels": self.pixels.tolist()}, fp, allow_nan=False)
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
        path = os.fspath(path)
        data = _read_json(path, path)
        for field in ("re", "im"):
            if not isinstance(data, dict) or field not in data:
                raise ValueError(f"{path} is not a JSON object with a {field!r} field")
        real, imag = _loaded(path, data["re"]), _loaded(path, data["im"])
        if real.shape != imag.shape:
            raise ValueError(f"{path}: 're' has shape {real.shape} but 'im' has {imag.shape}")
        return cls(real + 1j * imag)

    def save(self, path) -> None:
        path = os.fspath(path)
        _refuse_non_finite(path, self.coeffs)
        payload = {
            "d": self.d,
            "re": np.real(self.coeffs).tolist(),
            "im": np.imag(self.coeffs).tolist(),
        }
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(payload, fp, allow_nan=False)
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
