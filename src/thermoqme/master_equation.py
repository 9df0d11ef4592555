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
    _modified_stack,
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
    ``bath_coupled`` have their rates re-evaluated from the bath state at
    every stage of a coupled run; ``weight`` scales those bath rates, which
    covers e.g. an enhanced longitudinal channel.
    """

    Q: np.ndarray
    friction_rate: float = 0.0
    diffusion_rate: float = 0.0
    bath_coupled: bool = False
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "Q", validate_hermitian(self.Q, name="coupling operator"))
        if not (self.friction_rate >= 0.0 and self.diffusion_rate >= 0.0):
            raise ValueError("channel rates must be nonnegative")
        if not self.weight >= 0.0:
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
        # Compiled once for the stage kernel: the stack S = [H; Q_1..Q_k], whose
        # one product with rho gives [H, rho] and every [Q_j, rho]; the row
        # [Q_1 .. Q_k]; the constant commutators C_j = [Q_j, H]; the stored
        # rates in the kernel's (k, 1, 1) form; and, for a stage coupled to a
        # bath, the fixed channels' rates in that form (bath-coupled channels
        # zeroed) plus the bath-coupled channels' weights as a (k, 1, 1)
        # array, None when no bath-coupled channel has positive weight.
        S = np.array([self.H] + [ch.Q for ch in self.channels], dtype=complex)
        Q = S[1:]
        coupled = np.array([ch.bath_coupled for ch in self.channels], dtype=bool)
        friction = np.array([ch.friction_rate for ch in self.channels], dtype=float)
        diffusion = np.array([ch.diffusion_rate for ch in self.channels], dtype=float)
        weight = np.where(coupled, [ch.weight for ch in self.channels], 0.0)
        compiled = {
            "_S": S,
            "_Q_row": Q.transpose(1, 0, 2).reshape(dim, Q.shape[0] * dim),
            "_C": Q @ self.H - self.H @ Q,
            "_rates": _kernel_rates(friction, diffusion, self.constants),
            "_fixed_rates": _kernel_rates(
                np.where(coupled, 0.0, friction), np.where(coupled, 0.0, diffusion), self.constants
            ),
            "_bath_weight": weight[:, None, None] if weight.any() else None,
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
    return _stage_rhs(_as_state(rho, system), system, *system._rates, nonlinear)


def _kernel_rates(friction, diffusion, constants: PhysicalConstants):
    """Per-channel rates in the form :func:`_stage_rhs` takes them.

    Returns (friction/k_B, diffusion) as (k, 1, 1) arrays, with None in
    place of the friction array when every friction rate is zero.
    """
    f = (friction / constants.kB)[:, None, None] if friction.any() else None
    return f, diffusion[:, None, None]


def _stage_rhs(rho, system: QuantumSystem, friction, diffusion, nonlinear: bool) -> np.ndarray:
    """:func:`master_rhs` with the rates given as :func:`_kernel_rates` arrays.

    rho must be Hermitian; the products below use that.  For Hermitian A,
    rho A = (A rho)^dagger, so one stacked product P = S rho gives [H, rho]
    and every [Q_j, rho] as P - P^dagger.
    rho is decomposed at most once, by one :func:`_modified_stack` call, and
    only for the nonlinear variant with some nonzero friction rate.  Channel
    j enters through the anti-Hermitian
    X_j = friction_j/k_B M_j + diffusion_j [Q_j, rho], where M_j is the
    modified (or, linearized, the symmetrized) product of C_j = [Q_j, H]
    with rho.  Because X_j is anti-Hermitian, the channel sum
    -sum_j [Q_j, X_j] is -(A + A^dagger) with A = sum_j Q_j X_j, which is one
    (n, kn) @ (kn, n) product.
    """
    p = system._S @ rho
    comm = p - p.conj().swapaxes(1, 2)
    x = diffusion * comm[1:]
    if friction is not None:
        C = system._C
        if nonlinear:
            x += friction * _modified_stack(rho, C)
        else:
            c = C @ rho  # rho C = -(C rho)^dagger, as C is anti-Hermitian
            x += friction * (0.5 * (c - c.conj().swapaxes(1, 2)))
    a = system._Q_row @ x.reshape(-1, rho.shape[0])
    return (-1j / system.constants.hbar) * comm[0] - (a + a.conj().T)


def equilibrium_state(H, T: float, constants: PhysicalConstants = NATURAL) -> np.ndarray:
    """Gibbs state exp(-H/(k_B T)) normalized to unit trace.

    The spectral maximum of the exponent is subtracted before
    exponentiation, so very low temperatures cannot overflow.  The result is
    full rank as long as the Boltzmann weights do not underflow.
    """
    if not T > 0.0:
        raise ValueError(f"temperature must be positive, got {T}")
    arr = validate_hermitian(H, name="hamiltonian")
    w, u = np.linalg.eigh(arr)
    p = np.exp(-(w - w.min()) / (constants.kB * T))
    p /= p.sum()
    return hermitianize((u * p) @ u.conj().T)


def check_bath_equilibrium(channel: CouplingChannel, T: float, tol: float = 1e-9) -> bool:
    """True when T * friction_rate matches diffusion_rate, the condition under
    which the Gibbs state at temperature T is a fixed point."""
    if not T > 0.0:
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
