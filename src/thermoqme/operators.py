"""Dense Hermitian operator algebra.

Commutators, validation, the state-weighted "modified" operator that
generates the friction terms of the master equation, canonical (Kubo-type)
correlations, the von Neumann entropy, and the map between a 2x2 Hermitian
matrix and its four real coordinates that every dimension-2 path shares.

All operations are pure functions of dense complex matrices.  Inputs are
never mutated.  Natural units (hbar = k_B = 1) are the default through
``NATURAL``; an explicit :class:`PhysicalConstants` can be threaded through
for SI runs.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalConstants",
    "NATURAL",
    "commutator",
    "hermitianize",
    "validate_hermitian",
    "validate_density_matrix",
    "modified_operator",
    "nonlinear_part",
    "canonical_correlation",
    "von_neumann_entropy",
]


def _require_finite(obj, positive=(), nonnegative=()) -> None:
    """Raise ValueError naming the first field of ``obj``, among ``positive``
    and then ``nonnegative``, that is not a finite number above zero (at or
    above zero); None and NaN fail too."""
    for name in (*positive, *nonnegative):
        value, strict = getattr(obj, name), name in positive
        if value is None or not (0.0 < value if strict else 0.0 <= value) or not value < math.inf:
            raise ValueError(f"{name} must be {'positive' if strict else 'nonnegative'} and finite, got {value}")


class _Shown(reprlib.Repr):
    """The repr of a rejected value, bounded, with an integer past 64 bits
    named by its size: whole, it may run to thousands of digits, and past
    4,300 repr() refuses it."""

    def repr_int(self, x, level):
        bits = x.bit_length()
        return repr(x) if bits <= 64 else f"{'a negative' if x < 0 else 'an'} integer of {bits} bits"


_shown = _Shown().repr


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system, threaded explicitly so SI runs are possible.

    Defaults are natural units, hbar = k_B = 1.
    """

    hbar: float = 1.0
    kB: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, ("hbar", "kB"))


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
    """Check that ``a`` is a self-adjoint matrix of dimension >= 2 with
    finite entries.

    Returns the matrix as a complex ndarray, raises ValueError otherwise.
    """
    arr = _as_square_matrix(a, name)
    if arr.shape[0] < 2:
        raise ValueError(f"{name}: dimension must be at least 2, got {arr.shape[0]}")
    # a NaN deviation passes any tolerance test, and inf - inf warns
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{name}: entry ({i}, {j}) is not finite, got {arr[i, j]}")
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > tol:
        raise ValueError(f"{name}: not Hermitian (max deviation {dev:.3e} > {tol:.1e})")
    return arr


EIG_FLOOR = -1e-10  # the smallest eigenvalue a density matrix may have


def validate_density_matrix(rho, tol: float = 1e-12) -> np.ndarray:
    """Validate a density matrix: Hermitian and of unit trace to ``tol``,
    and no eigenvalue (one eigvalsh at every n) below ``EIG_FLOOR``."""
    arr = validate_hermitian(rho, tol, name="density matrix")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix: trace {tr} deviates from 1 by more than {tol:.1e}")
    w_min = float(np.linalg.eigvalsh(arr)[0])
    if w_min < EIG_FLOOR:
        raise ValueError(f"density matrix: smallest eigenvalue {w_min:.3e} below {EIG_FLOOR:.1e}")
    return arr


def commutator(a, b) -> np.ndarray:
    """[a, b] = ab - ba.  Anti-Hermitian whenever both arguments are Hermitian."""
    a = _as_square_matrix(a)
    b = _as_square_matrix(b)
    _require_same_dim(a, b)
    return a @ b - b @ a


def _pairwise_log_mean(p: np.ndarray) -> np.ndarray:
    """Matrix of divided differences d(p_i, p_j) of the exponential in log space.

    d(p, q) = (p - q)/(ln p - ln q) for positive p, q (the logarithmic mean),
    and 0 whenever either argument is nonpositive: a nonpositive weight is
    treated as a rank deficiency, whose analytic limit is zero.

    Each pair is taken in order, lo <= hi, as (hi - lo)/log1p((hi - lo)/lo).
    log1p keeps full relative precision down to hi = lo, where the mean is
    lo itself (so lo sits on the diagonal), and the ordering makes the
    matrix exactly symmetric.  A pair whose ratio overflows (a subnormal lo
    far below hi) is taken as (hi - lo)/(ln hi - ln lo).

    ``p`` is a finite spectrum, as eigh returns it (it raises on a
    non-finite matrix).
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
        # nonpositive member, whose pairs are 0, or a ratio that overflowed,
        # whose log1p is ln hi - ln lo.
        lo = np.minimum(a, b)
        over = np.isinf(ratio) & (lo > 0.0)
        d[over] = gap[over] / (np.log(np.maximum(a, b)[over]) - np.log(lo[over]))
        d[~(lo > 0.0)] = 0.0
    return d


def _two_level_entries(a: np.ndarray):
    """The four reals (a00, a11, Re a10, Im a10) that fix a Hermitian 2x2 ndarray
    ``a``, as Python floats: a = (a00 + a11)/2 I + (Re a10, Im a10, (a00 - a11)/2) . sigma.
    Entry (0, 1) is not read."""
    (a00, _), (a10, a11) = a.tolist()
    return a00.real, a11.real, a10.real, a10.imag


def _two_level_matrix(a00: float, a11: float, re: float, im: float) -> np.ndarray:
    """The exactly Hermitian 2x2 ndarray with the four reals of :func:`_two_level_entries`."""
    return np.array([[a00, complex(re, -im)], [complex(re, im), a11]])


def _modified_in_basis(w: np.ndarray, u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """modified_operator in the eigenbasis (w, u) of rho; ``a`` may be a stack (k, n, n)."""
    uh = u.conj().T
    return u @ ((uh @ a @ u) * _pairwise_log_mean(w)) @ uh


def _two_level_spectrum(x: float, z: float, re: float, im: float, m: float):
    """The eigenvalues (l1, l2), larger first and unclipped, of the 2x2
    Hermitian rho = [[x, re - i im], [re + i im, z]], and d, the modified
    operator's off-diagonal weight, in Python floats, given its Bloch length
    m = hypot(2 re, 2 im, x - z), the gap between the eigenvalues.  The
    dimension-2 monitors make one call per sampled point; at n = 2 numpy's
    call overhead is many times this arithmetic.
    The n = 2 advance of :func:`~thermoqme.master_equation._bind_rates`,
    where even a Python call is a sizeable share of a stage's cost,
    computes the same inline, with these operations in this branch order;
    this function is the reference, which the tests hold it to bit for bit.

    l1 is (tr rho + m)/2, halved term by term so that it is finite wherever
    m and the eigenvalue are.  Where l1 > 0, l2 is det(rho)/l1, which keeps
    full relative precision where (tr rho - m)/2 loses it to cancellation
    (near a pure state), down to subnormal values; otherwise both
    eigenvalues are nonpositive and l2 is (tr rho - m)/2, which does not
    cancel.

    d is the logarithmic mean of l1 and l2 where both are positive, and 0
    otherwise: in the eigenbasis of rho, modified_operator(rho, a) is a
    weighted entrywise by [[l1, d], [d, l2]] with l1 and l2 clipped at zero.
    d depends on the logarithm of l2, which is why l2 must keep its relative
    precision near a pure state.  d is m/log1p(m/l2), with m itself as the
    gap, so no l1 - l2 is formed.

    Non-finite input never raises, and a non-finite entry, with m computed
    from the entries, gives a non-finite l2; d need not be non-finite
    (x = nan gives 0), but the stage built on it is, as the Bloch vector it
    also reads is.
    """
    l1 = 0.5 * x + 0.5 * z + 0.5 * m
    if not l1 > 0.0:
        return l1, 0.5 * x + 0.5 * z - 0.5 * m, 0.0
    acmx, acmn = (x, z) if abs(x) > abs(z) else (z, x)
    l2 = (acmx / l1) * acmn - ((re / l1) * re + (im / l1) * im)
    if not l2 > 0.0:
        return l1, l2, 0.0
    ratio = m / l2
    if ratio < 2.0**-1022:  # d = l2 (1 + ratio/2 + ...): m = 0, or too small to resolve
        return l1, l2, l2
    if ratio == math.inf:  # a subnormal l2 far below l1
        return l1, l2, m / (math.log(l1) - math.log(l2))
    return l1, l2, m / math.log1p(ratio)


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


def von_neumann_entropy(rho, constants: PhysicalConstants = NATURAL) -> float:
    """-k_B tr(rho ln rho) with the eigenvalue convention 0 ln 0 = 0.

    Nonnegative and bounded by k_B ln(dim).  Eigenvalues are clipped to
    [0, 1], so states with tiny negative eigenvalues from floating-point
    noise contribute nothing rather than NaN.
    """
    arr = _as_square_matrix(rho, "density matrix")
    return _spectrum_entropy(np.linalg.eigvalsh(arr).tolist(), constants)


def _spectrum_entropy(w, constants: PhysicalConstants) -> float:
    """-k_B sum_i w_i ln w_i over the spectrum ``w`` of a density matrix, an
    iterable of Python floats summed in its order, with each eigenvalue
    clipped to [0, 1] and 0 ln 0 = 0 (a NaN eigenvalue counts as 0 too).
    One rule at every n: at n = 2 the spectrum is the closed form's, and
    above it a few numpy calls on a short array cost more than this loop."""
    s = 0.0
    for p in w:
        if p > 0.0:
            p = min(p, 1.0)
            s += p * math.log(p)
    return -constants.kB * s
