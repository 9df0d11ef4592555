"""Closed-form two-level dynamics in the Pauli basis.

Every self-adjoint 2x2 matrix is a scalar plus a real three-vector against
the Pauli matrices; density matrices correspond to magnetization vectors in
the unit ball.  This module carries that representation, the paper's
nonlinearity strength mu, the nonlinear magnetization dynamics, and its
equilibrium and linearization.  It serves as the analytic oracle for the
generic matrix engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    NATURAL,
    PhysicalConstants,
    _require_finite,
    _two_level_entries,
    _two_level_matrix,
    validate_hermitian,
)
from .master_equation import CouplingChannel, QuantumSystem
from .environment import HeatBath

__all__ = [
    "SIGMA",
    "PauliVector",
    "TwoLevelParams",
    "pauli_compose",
    "pauli_decompose",
    "mu",
    "mu_derivative",
    "bloch_nonlinear_part",
    "bloch_rhs",
    "bloch_equilibrium",
    "bloch_linearized_matrix",
    "two_level_hamiltonian",
    "two_level_channels",
    "two_level_system",
    "two_level_bath",
]

SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
_Q3 = np.array([0.0, 0.0, 1.0])

# Below this magnitude the closed form of mu(m) loses digits to cancellation
# (both of its terms grow like 1/m^2) and the series branch takes over.  At
# 0.05 the closed form carries ~2e-13 rounding error and the series through
# m^8 truncates at ~2e-15, so the branches agree to well under 1e-12.
_MU_SERIES_SWITCH = 0.05
_MU_SERIES = (1.0 / 3.0, 4.0 / 45.0, 44.0 / 945.0, 428.0 / 14175.0, 10196.0 / 467775.0)


@dataclass(frozen=True)
class PauliVector:
    """Real coefficients (alpha, a) of a self-adjoint 2x2 matrix
    (alpha I + a . sigma)/2; alpha is the trace."""

    alpha: float
    a: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.a, dtype=float)
        if vec.shape != (3,):
            raise ValueError(f"coefficient vector must have shape (3,), got {vec.shape}")
        object.__setattr__(self, "a", vec)

    def to_matrix(self) -> np.ndarray:
        return pauli_compose(self.alpha, self.a)


@dataclass(frozen=True)
class TwoLevelParams:
    """Two-level scenario: level splitting omega, emission rate gamma0, bath
    temperature T_e; ``isotropic`` adds the longitudinal channel (weighted by
    ``q3_weight``) so the transverse/longitudinal couplings match."""

    omega: float
    gamma0: float
    T_e: float
    isotropic: bool = False
    q3_weight: float = 1.0
    constants: PhysicalConstants = NATURAL

    def __post_init__(self) -> None:
        _require_finite(self, ("omega", "T_e"), ("gamma0", "q3_weight"))


def pauli_compose(alpha: float, a) -> np.ndarray:
    """(alpha I + a1 sigma1 + a2 sigma2 + a3 sigma3) / 2."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"coefficient vector must have shape (3,), got {a.shape}")
    a1, a2, a3 = a.tolist()
    return _two_level_matrix(0.5 * (alpha + a3), 0.5 * (alpha - a3), 0.5 * a1, 0.5 * a2)


def pauli_decompose(matrix, tol: float = 1e-12) -> PauliVector:
    """Inverse of :func:`pauli_compose`: alpha = tr(A), a_j = tr(A sigma_j).

    The representation is a bijection on self-adjoint matrices; input that
    :func:`~thermoqme.operators.validate_hermitian` rejects at ``tol`` (not
    Hermitian, or an entry not finite) raises ValueError.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    a00, a11, re, im = _two_level_entries(validate_hermitian(m, tol, "matrix"))
    return PauliVector(a00 + a11, np.array([2.0 * re, 2.0 * im, a00 - a11]))


def _artanh(m: float) -> float:
    return 0.5 * math.log((1.0 + m) / (1.0 - m))


def mu(m: float) -> float:
    """Strength of the relaxation nonlinearity at magnetization magnitude m.

    1/m^2 - 1/(m artanh m) on [0, 1); rises monotonically from 1/3 toward 1
    as m approaches the pure-state boundary.  A Taylor branch handles small m
    where the two closed-form terms cancel.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"magnetization magnitude must lie in [0, 1), got {m}")
    if m < _MU_SERIES_SWITCH:
        m2 = m * m
        c0, c1, c2, c3, c4 = _MU_SERIES
        return c0 + m2 * (c1 + m2 * (c2 + m2 * (c3 + m2 * c4)))
    return 1.0 / (m * m) - 1.0 / (m * _artanh(m))


def mu_derivative(m: float) -> float:
    """d mu / dm, in closed form away from 0 and as a series below the switch."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"magnetization magnitude must lie in [0, 1), got {m}")
    if m < _MU_SERIES_SWITCH:
        m2 = m * m
        _, c1, c2, c3, c4 = _MU_SERIES
        return m * (2.0 * c1 + m2 * (4.0 * c2 + m2 * (6.0 * c3 + m2 * (8.0 * c4))))
    u = _artanh(m)
    return -2.0 / m**3 + 1.0 / (m * m * u) + 1.0 / (m * u * u * (1.0 - m * m))


def _mu_confined(m: float) -> float:
    # Continuous extension mu(1) := 1 for states on the pure boundary.
    return 1.0 if m >= 1.0 else mu(m)


def bloch_nonlinear_part(m, a) -> PauliVector:
    """Closed form of the nonlinear remainder for a two-level state.

    For rho with magnetization m and a traceless-part vector a the remainder
    is -compose(0, mu(|m|) [m^2 I - m m] . a); the trace slot of the input
    never contributes.
    """
    m = np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(m))
    if norm >= 1.0:
        raise ValueError(f"magnetization must lie strictly inside the unit ball, got |m| = {norm}")
    vec = mu(norm) * (norm * norm * a - m * float(np.dot(m, a)))
    return PauliVector(0.0, -vec)


def _diffusion_matrix(p: TwoLevelParams) -> np.ndarray:
    # Double-commutator sum over channels: (1+c3) I + (1-c3) q3 q3, which is
    # (I + q3 q3) for the transverse pair alone and 2 I with the full
    # isotropic triple.
    c3 = p.q3_weight if p.isotropic else 0.0
    return (1.0 + c3) * np.eye(3) + (1.0 - c3) * np.outer(_Q3, _Q3)


def bloch_rhs(m, p: TwoLevelParams) -> np.ndarray:
    """Magnetization velocity of the nonlinear two-level dynamics.

    omega q3 x m, minus the bath-temperature diffusion damping, minus the
    constant emission pump along -q3, plus the nonlinear term
    gamma0 (mu/2)(m^2 I + m m).q3 that confines trajectories to the unit
    ball.  States on the boundary use the continuous extension mu(1) = 1.
    """
    m = np.asarray(m, dtype=float)
    norm = float(np.linalg.norm(m))
    if norm > 1.0 + 1e-9:
        raise ValueError(f"magnetization outside the unit ball: |m| = {norm}")
    consts = p.constants
    kT = consts.kB * p.T_e
    damping = p.gamma0 * kT / (consts.hbar * p.omega)
    out = p.omega * np.array([-m[1], m[0], 0.0])
    if p.gamma0 == 0.0:
        return out
    mu_val = _mu_confined(norm)
    out -= damping * (_diffusion_matrix(p) @ m)
    out -= p.gamma0 * _Q3
    out += 0.5 * p.gamma0 * mu_val * (norm * norm * _Q3 + m[2] * m)
    return out


def bloch_equilibrium(p: TwoLevelParams) -> np.ndarray:
    """Fixed point -q3 tanh(hbar omega / (2 k_B T_e)); always strictly inside
    the unit ball, unlike the linearized steady state -q3 hbar omega/(2 k_B T_e)."""
    x = p.constants.hbar * p.omega / (2.0 * p.constants.kB * p.T_e)
    return -math.tanh(x) * _Q3


def bloch_linearized_matrix(p: TwoLevelParams) -> np.ndarray:
    """Jacobian of :func:`bloch_rhs` at the equilibrium m = tanh x, with
    x = hbar omega / (2 k_B T_e), its mu terms taken in x (artanh m = x) so
    that it holds where tanh x rounds to 1: m mu(m) = coth x - 1/x and
    m^2 mu'(m) = sinh(2x)/(2x^2) - 2 coth x + 1/x."""
    consts = p.constants
    x = consts.hbar * p.omega / (2.0 * consts.kB * p.T_e)
    damping = p.gamma0 * consts.kB * p.T_e / (consts.hbar * p.omega)
    q3q3 = np.outer(_Q3, _Q3)
    jac = p.omega * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    jac -= damping * _diffusion_matrix(p)
    if p.gamma0 != 0.0:
        coth = 1.0 / math.tanh(x)
        jac -= 0.5 * p.gamma0 * (coth - 1.0 / x) * (np.eye(3) + 3.0 * q3q3)
        jac -= p.gamma0 * (math.sinh(2.0 * x) / (2.0 * x * x) - 2.0 * coth + 1.0 / x) * q3q3
    return jac


def two_level_hamiltonian(p: TwoLevelParams) -> np.ndarray:
    """H = (hbar omega / 2) sigma3."""
    return pauli_compose(0.0, np.array([0.0, 0.0, p.constants.hbar * p.omega]))


def two_level_channels(p: TwoLevelParams) -> tuple[CouplingChannel, ...]:
    """Transverse coupling pair sigma1/2, sigma2/2 (plus sigma3/2 when
    isotropic), rated from the bath bracket at T_e and marked bath-coupled so
    coupled runs track a moving bath temperature."""
    f, d = two_level_bath(p).channel_rates(p.constants)
    channels = [
        CouplingChannel(0.5 * SIGMA[0], f, d, bath_coupled=True),
        CouplingChannel(0.5 * SIGMA[1], f, d, bath_coupled=True),
    ]
    if p.isotropic:
        w = p.q3_weight
        channels.append(
            CouplingChannel(0.5 * SIGMA[2], w * f, w * d, bath_coupled=True, weight=w)
        )
    return tuple(channels)


def two_level_system(p: TwoLevelParams) -> QuantumSystem:
    return QuantumSystem(two_level_hamiltonian(p), two_level_channels(p), p.constants)


def two_level_bath(p: TwoLevelParams) -> HeatBath:
    """Infinite reservoir matching the scenario parameters."""
    return HeatBath.infinite(T_e=p.T_e, gamma0=p.gamma0, omega_ref=p.omega)
