"""Right-hand side of the thermodynamic quantum master equation.

Assembles the reversible commutator term plus, per coupling channel, a
friction term built on the state-weighted modified operator and a double
commutator diffusion term.  Also provides the Gibbs equilibrium state, the
bath-equilibrium condition on channel rates, and energy bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    NATURAL,
    PhysicalConstants,
    _as_square_matrix,
    _modified_in_basis,
    hermitianize,
    validate_hermitian,
)

__all__ = [
    "CouplingChannel",
    "QuantumSystem",
    "master_rhs",
    "equilibrium_state",
    "check_bath_equilibrium",
    "energy_expectation",
]


@dataclass(frozen=True)
class CouplingChannel:
    """One dissipative coupling: an observable Q plus its two bracket rates.

    ``friction_rate`` weights the modified-operator (entropy-driven) term and
    ``diffusion_rate`` the plain double-commutator term.  Channels marked
    ``bath_coupled`` have their rates re-evaluated from the instantaneous
    bath state by the integrator; ``weight`` scales those bath rates, which
    covers e.g. an enhanced longitudinal channel.
    """

    Q: np.ndarray
    friction_rate: float = 0.0
    diffusion_rate: float = 0.0
    bath_coupled: bool = False
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "Q", validate_hermitian(self.Q, name="coupling operator"))
        if self.friction_rate < 0.0 or self.diffusion_rate < 0.0:
            raise ValueError("channel rates must be nonnegative")
        if self.weight < 0.0:
            raise ValueError("channel weight must be nonnegative")


@dataclass(frozen=True)
class QuantumSystem:
    """Hamiltonian plus an ordered list of coupling channels."""

    H: np.ndarray
    channels: tuple[CouplingChannel, ...] = ()
    constants: PhysicalConstants = NATURAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "H", validate_hermitian(self.H, name="hamiltonian"))
        object.__setattr__(self, "channels", tuple(self.channels))
        dim = self.H.shape[0]
        for k, ch in enumerate(self.channels):
            if ch.Q.shape != (dim, dim):
                raise ValueError(
                    f"channel {k}: coupling operator shape {ch.Q.shape} does not match dimension {dim}"
                )
        # Compiled once for the stage kernel: the stacked Q_j, the constant
        # commutators C_j = [Q_j, H], and the per-channel rates and weights.
        Q = np.array([ch.Q for ch in self.channels], dtype=complex).reshape(-1, dim, dim)
        compiled = {
            "_Q": Q,
            "_C": Q @ self.H - self.H @ Q,
            "_friction": np.array([ch.friction_rate for ch in self.channels], dtype=float),
            "_diffusion": np.array([ch.diffusion_rate for ch in self.channels], dtype=float),
            "_coupled": np.array([ch.bath_coupled for ch in self.channels], dtype=bool),
            "_weight": np.array([ch.weight for ch in self.channels], dtype=float),
        }
        for name, value in compiled.items():
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.H.shape[0]


def _as_state(rho, system: QuantumSystem) -> np.ndarray:
    rho = _as_square_matrix(rho, "density matrix")
    if rho.shape != system.H.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs H {system.H.shape}")
    return rho


def master_rhs(rho, system: QuantumSystem, nonlinear: bool = True) -> np.ndarray:
    """Time derivative of the density matrix.

    (i/hbar)[rho, H]
    - (1/k_B) sum_j friction_j [Q_j, modified([Q_j, H])]
    -         sum_j diffusion_j [Q_j, [Q_j, rho]]

    With ``nonlinear=False`` the modified operator is replaced by the
    symmetrized product ([Q_j, H] rho + rho [Q_j, H])/2, which linearizes
    the equation; both variants share every other term.  The result is
    Hermitian and traceless, so normalization is preserved.  The rates are
    the ones stored on the channels.

    ``rho`` must be a valid density matrix (Hermitian, unit trace);
    positivity is not enforced here so that pathological trajectories can be
    monitored rather than interrupted.
    """
    return _stage_rhs(_as_state(rho, system), system, system._friction, system._diffusion, nonlinear)


def _stage_rhs(rho, system: QuantumSystem, friction, diffusion, nonlinear: bool) -> np.ndarray:
    """:func:`master_rhs` with the per-channel rates given as arrays.

    Decomposes rho at most once, and only for a nonlinear variant with some
    nonzero friction rate; every channel is assembled in one batched
    (k, n, n) product as -sum_j [Q_j, X_j].
    """
    H = system.H
    out = (1j / system.constants.hbar) * (rho @ H - H @ rho)
    Q = system._Q
    x = None
    if friction.any():
        C = system._C
        if nonlinear:
            w, u = np.linalg.eigh(rho)
            c_mod = _modified_in_basis(w, u, C)
        else:
            c_mod = 0.5 * (C @ rho + rho @ C)
        x = (friction / system.constants.kB)[:, None, None] * c_mod
    if diffusion.any():
        qr = diffusion[:, None, None] * (Q @ rho - rho @ Q)
        x = qr if x is None else x + qr
    if x is not None:
        out -= (Q @ x - x @ Q).sum(axis=0)
    return out


def equilibrium_state(H, T: float, constants: PhysicalConstants = NATURAL) -> np.ndarray:
    """Gibbs state exp(-H/(k_B T)) normalized to unit trace.

    The spectral maximum of the exponent is subtracted before
    exponentiation, so very low temperatures cannot overflow.  The result is
    full rank as long as the Boltzmann weights do not underflow.
    """
    if T <= 0.0:
        raise ValueError(f"temperature must be positive, got {T}")
    arr = validate_hermitian(H, name="hamiltonian")
    w, u = np.linalg.eigh(arr)
    p = np.exp(-(w - w.min()) / (constants.kB * T))
    p /= p.sum()
    return hermitianize((u * p) @ u.conj().T)


def check_bath_equilibrium(channel: CouplingChannel, T: float, tol: float = 1e-9) -> bool:
    """True when T * friction_rate matches diffusion_rate, the condition under
    which the Gibbs state at temperature T is a fixed point."""
    if T <= 0.0:
        raise ValueError(f"temperature must be positive, got {T}")
    return abs(T * channel.friction_rate - channel.diffusion_rate) <= tol * max(
        1.0, channel.diffusion_rate
    )


def energy_expectation(rho, H) -> float:
    """tr(H rho), as a real number."""
    rho = _as_square_matrix(rho, "density matrix")
    H = _as_square_matrix(H, "hamiltonian")
    if rho.shape != H.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs H {H.shape}")
    return float(np.real(np.trace(H @ rho)))
