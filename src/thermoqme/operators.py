"""Dense Hermitian operator algebra.

Spectral decompositions, functions of self-adjoint operators, commutators,
the state-weighted "modified" operator that generates the friction terms of
the master equation, and canonical (Kubo-type) correlations.

All operations are pure functions of dense complex matrices.  Inputs are
never mutated.  Natural units (hbar = k_B = 1) are the default through
``NATURAL``; an explicit :class:`PhysicalConstants` can be threaded through
for SI runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "PhysicalConstants",
    "NATURAL",
    "SpectralDecomposition",
    "commutator",
    "anticommutator",
    "hermitianize",
    "validate_hermitian",
    "validate_density_matrix",
    "spectral_decompose",
    "operator_function",
    "modified_operator",
    "modified_operator_quadrature",
    "nonlinear_part",
    "canonical_correlation",
    "log_density",
    "von_neumann_entropy",
]

@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system, threaded explicitly so SI runs are possible.

    Defaults are natural units, hbar = k_B = 1.
    """

    hbar: float = 1.0
    kB: float = 1.0

    def __post_init__(self) -> None:
        if self.hbar <= 0.0 or self.kB <= 0.0:
            raise ValueError("hbar and kB must be strictly positive")


NATURAL = PhysicalConstants()


def _as_square_matrix(a, name: str = "operator") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {arr.shape}")
    return arr


def _require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def hermitianize(a) -> np.ndarray:
    """Hermitian part (a + a^dagger)/2; kills floating-point drift."""
    arr = _as_square_matrix(a)
    return 0.5 * (arr + arr.conj().T)


def validate_hermitian(a, tol: float = 1e-12, name: str = "operator") -> np.ndarray:
    """Check that ``a`` is a self-adjoint matrix of dimension >= 2.

    Returns the matrix as a complex ndarray, raises ValueError otherwise.
    """
    arr = _as_square_matrix(a, name)
    if arr.shape[0] < 2:
        raise ValueError(f"{name}: dimension must be at least 2, got {arr.shape[0]}")
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > tol:
        raise ValueError(f"{name}: not Hermitian (max deviation {dev:.3e} > {tol:.1e})")
    return arr


def validate_density_matrix(
    rho,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, no eigenvalue below ``eig_floor``."""
    arr = validate_hermitian(rho, herm_tol, name="density matrix")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix: trace {tr} deviates from 1 by more than {trace_tol:.1e}")
    w_min = float(np.linalg.eigvalsh(arr)[0])
    if w_min < eig_floor:
        raise ValueError(f"density matrix: smallest eigenvalue {w_min:.3e} below {eig_floor:.1e}")
    return arr


def commutator(a, b) -> np.ndarray:
    """[a, b] = ab - ba.  Anti-Hermitian whenever both arguments are Hermitian."""
    a = _as_square_matrix(a)
    b = _as_square_matrix(b)
    _require_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """{a, b} = ab + ba."""
    a = _as_square_matrix(a)
    b = _as_square_matrix(b)
    _require_same_dim(a, b)
    return a @ b + b @ a


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition of a self-adjoint operator.

    ``eigenvalues`` are real and sorted in descending order;
    ``eigenvectors`` holds the matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def spectral_decompose(a, tol: float = 1e-12) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix, eigenvalues descending."""
    arr = validate_hermitian(a, tol)
    try:
        w, u = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed to converge on a {arr.shape[0]}x{arr.shape[0]} matrix: {exc}"
        ) from exc
    order = np.argsort(w, kind="stable")[::-1]
    return SpectralDecomposition(w[order], u[:, order])


def operator_function(a, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns U f(diag) U^dagger; the result commutes with ``a``.  Raises
    ValueError if ``f`` is undefined (non-finite) at any eigenvalue.
    """
    arr = validate_hermitian(a)
    w, u = np.linalg.eigh(arr)
    with np.errstate(all="ignore"):
        try:
            fw = np.array([float(f(x)) for x in w])
        except (ValueError, ArithmeticError, ZeroDivisionError) as exc:
            raise ValueError(f"function not defined on the spectrum: {exc}") from exc
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)]
        raise ValueError(f"function not defined on the spectrum (eigenvalues {bad})")
    return (u * fw) @ u.conj().T


def _pairwise_log_mean(p: np.ndarray) -> np.ndarray:
    """Matrix of divided differences d(p_i, p_j) of the exponential in log space.

    d(p, q) = (p - q)/(ln p - ln q) for positive p, q (the logarithmic mean),
    and 0 whenever either argument is nonpositive: a nonpositive weight is
    treated as a rank deficiency, whose analytic limit is zero.

    Each pair is taken in order, lo <= hi, as (hi - lo)/log1p((hi - lo)/lo).
    log1p keeps full relative precision down to hi = lo, where the mean is
    lo itself (so lo sits on the diagonal), and the ordering makes the
    matrix exactly symmetric.
    """
    a, b = p[:, None], p[None, :]
    lo = np.minimum(a, b)
    gap = np.maximum(a, b) - lo
    with np.errstate(all="ignore"):
        ratio = gap / lo
        # where hi = lo the mean is lo itself, which the division leaves in place
        d = np.divide(gap, np.log1p(ratio), out=lo, where=gap > 0.0)
    if not d.min() > 0.0:
        # Every mean of positive members is positive, so this is rare: a
        # nonpositive member, whose pairs are 0, or a ratio that overflowed
        # (a subnormal lo far below hi), whose log1p is ln hi - ln lo.
        lo = np.minimum(a, b)
        over = np.isinf(ratio) & (lo > 0.0)
        d[over] = gap[over] / (np.log(np.maximum(a, b)[over]) - np.log(lo[over]))
        d[~(lo > 0.0)] = 0.0
    return d


def _modified_in_basis(w: np.ndarray, u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """modified_operator in the eigenbasis (w, u) of rho; ``a`` may be a stack (k, n, n)."""
    uh = u.conj().T
    return u @ ((uh @ a @ u) * _pairwise_log_mean(w)) @ uh


def modified_operator(rho, a) -> np.ndarray:
    """State-weighted symmetrized product of ``a`` with the state ``rho``.

    Equal to the average over lambda in [0, 1] of rho^lambda a rho^(1-lambda),
    evaluated exactly in the eigenbasis of rho through logarithmic-mean
    divided differences of the populations.  Linear in ``a``; self-adjoint
    whenever ``a`` is; its trace equals tr(a rho).

    ``rho`` must be Hermitian (callers validate; see
    :func:`validate_density_matrix`).  ``a`` may be any square matrix of the
    same dimension, which the dissipative terms of the master equation rely
    on for commutators of observables.
    """
    rho = _as_square_matrix(rho, "density matrix")
    a = _as_square_matrix(a)
    _require_same_dim(rho, a)
    w, u = np.linalg.eigh(rho)
    return _modified_in_basis(w, u, a)


def modified_operator_quadrature(rho, a, nodes: int = 64) -> np.ndarray:
    """Direct Gauss-Legendre quadrature of the lambda average defining
    :func:`modified_operator`; retained as an independent numerical oracle.

    Matrix powers rho^lambda use the spectral decomposition with nonpositive
    eigenvalues clamped to zero (0^lambda = 0 for lambda > 0).
    """
    if int(nodes) != nodes or nodes < 2:
        raise ValueError(f"nodes must be an integer >= 2, got {nodes}")
    rho = _as_square_matrix(rho, "density matrix")
    a = _as_square_matrix(a)
    _require_same_dim(rho, a)
    w, u = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    x, gw = np.polynomial.legendre.leggauss(int(nodes))
    lam = 0.5 * (x + 1.0)
    weight = 0.5 * gw
    uh = u.conj().T
    out = np.zeros_like(a)
    for lk, wk in zip(lam, weight):
        left = (u * w**lk) @ uh
        right = (u * w ** (1.0 - lk)) @ uh
        out = out + wk * (left @ a @ right)
    return out


def nonlinear_part(rho, a) -> np.ndarray:
    """Nonlinear remainder of the modified operator,
    2 * modified_operator(rho, a) - (a rho + rho a).

    Vanishes identically when [a, rho] = 0 and is always traceless; setting
    it to zero linearizes the master equation.
    """
    rho = _as_square_matrix(rho, "density matrix")
    a = _as_square_matrix(a)
    _require_same_dim(rho, a)
    return 2.0 * modified_operator(rho, a) - (a @ rho + rho @ a)


def canonical_correlation(rho, a, b) -> float:
    """Kubo-type correlation tr(modified_operator(rho, a) @ b).

    Symmetric under swapping ``a`` and ``b``; nonnegative for a == b when the
    argument is self-adjoint (and nonpositive for anti-self-adjoint
    arguments, e.g. commutators of observables); reduces to the plain
    average tr(a rho) when ``b`` is the identity.
    """
    value = np.trace(modified_operator(rho, a) @ _as_square_matrix(b))
    return float(np.real(value))


def log_density(rho, floor: float = 1e-14) -> np.ndarray:
    """Matrix logarithm of a density matrix with an eigenvalue floor.

    Rank-deficient states are handled by flooring populations at ``floor``
    before taking the logarithm; identities involving ln(rho) should only be
    relied on for full-rank states.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor must lie in (0, 1), got {floor}")
    return operator_function(rho, lambda p: np.log(max(p, floor)))


def von_neumann_entropy(rho, constants: PhysicalConstants = NATURAL) -> float:
    """-k_B tr(rho ln rho) with the eigenvalue convention 0 ln 0 = 0.

    Nonnegative and bounded by k_B ln(dim).  Eigenvalues are clipped to
    [0, 1], so states with tiny negative eigenvalues from floating-point
    noise contribute nothing rather than NaN.
    """
    arr = _as_square_matrix(rho, "density matrix")
    return _spectrum_entropy(np.linalg.eigvalsh(arr), constants)


def _spectrum_entropy(w: np.ndarray, constants: PhysicalConstants) -> float:
    """-k_B sum_i w_i ln w_i over the spectrum ``w`` of a density matrix,
    with each eigenvalue clipped to [0, 1] and 0 ln 0 = 0."""
    w = np.clip(w, 0.0, 1.0)
    nz = w[w > 0.0]
    return float(-constants.kB * np.sum(nz * np.log(nz)))
