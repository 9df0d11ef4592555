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
    _two_level_basis,
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
        # [Q_1 .. Q_k]; the constant commutators C_j = [Q_j, H]; at n = 2 the
        # entries of H, of conj(H) (for the closure flux), of every Q_j and of
        # every C_j as Python tuples; the stored rates in the kernel's form;
        # and, for a stage coupled to a bath, the fixed channels' rates in that
        # form (bath-coupled channels zeroed) plus the bath-coupled channels'
        # weights, None when no bath-coupled channel has positive weight.
        S = np.array([self.H] + [ch.Q for ch in self.channels], dtype=complex)
        Q = S[1:]
        C = Q @ self.H - self.H @ Q
        coupled = [ch.bath_coupled for ch in self.channels]
        friction = [float(ch.friction_rate) for ch in self.channels]
        diffusion = [float(ch.diffusion_rate) for ch in self.channels]
        weight = tuple(float(ch.weight) if c else 0.0 for ch, c in zip(self.channels, coupled))
        compiled = {
            "_S": S,
            "_Q_row": Q.transpose(1, 0, 2).reshape(dim, Q.shape[0] * dim),
            "_C": C,
            "_H2": tuple(S[0].ravel().tolist()) if dim == 2 else None,
            "_Hc2": tuple(S[0].conj().ravel().tolist()) if dim == 2 else None,
            "_Q2": tuple(map(tuple, Q.reshape(-1, 4).tolist())) if dim == 2 else None,
            "_C2": tuple(map(tuple, C.reshape(-1, 4).tolist())) if dim == 2 else None,
            "_rates": _kernel_rates(friction, diffusion, self.constants),
            "_fixed_rates": _kernel_rates(
                [0.0 if c else f for c, f in zip(coupled, friction)],
                [0.0 if c else d for c, d in zip(coupled, diffusion)],
                self.constants,
            ),
            "_bath_weight": weight if any(weight) else None,
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

    Returns (friction/k_B, diffusion) as tuples of Python floats, with None
    in place of the friction tuple when every friction rate is zero.
    """
    f = tuple(x / constants.kB for x in friction) if any(friction) else None
    return f, tuple(diffusion)


def _stage_rhs(rho, system: QuantumSystem, friction, diffusion, nonlinear: bool) -> np.ndarray:
    """:func:`master_rhs` with the rates given in :func:`_kernel_rates` form.

    rho must be Hermitian; the products below use that.  For Hermitian A,
    rho A = (A rho)^dagger, so P = S rho gives [H, rho] and every
    [Q_j, rho] as P - P^dagger.  rho is decomposed at most once, and only
    for the nonlinear variant with some nonzero friction rate.  Channel j
    enters through the anti-Hermitian
    X_j = friction_j/k_B M_j + diffusion_j [Q_j, rho], where M_j is the
    modified (or, linearized, the symmetrized) product of C_j = [Q_j, H]
    with rho.  Because X_j is anti-Hermitian, the channel sum
    -sum_j [Q_j, X_j] is -(A + A^dagger) with A = sum_j Q_j X_j.

    The dimension selects how: :func:`_two_level_stage` at n = 2, where
    numpy's call overhead is many times the arithmetic, and
    :func:`_lapack_stage` above.
    """
    if rho.shape[0] == 2:
        (r00, r01), (r10, r11) = rho.tolist()
        k00, k01, k10, k11 = _two_level_stage((r00, r01, r10, r11), system, friction, diffusion, nonlinear)
        return np.array([[k00, k01], [k10, k11]])
    return _lapack_stage(rho, system, friction, diffusion, nonlinear)


def _lapack_stage(rho, system: QuantumSystem, friction, diffusion, nonlinear: bool) -> np.ndarray:
    """:func:`_stage_rhs` on stacked arrays: one product S rho, at most one
    ``eigh``, and the channel sum A as one (n, kn) @ (kn, n) product."""
    p = system._S @ rho
    comm = p - p.conj().swapaxes(1, 2)
    x = np.array(diffusion)[:, None, None] * comm[1:]
    if friction is not None:
        friction = np.array(friction)[:, None, None]
        C = system._C
        if nonlinear:
            w, u = np.linalg.eigh(rho)
            x += friction * _modified_in_basis(w, u, C)
        else:
            c = C @ rho  # rho C = -(C rho)^dagger, as C is anti-Hermitian
            x += friction * (0.5 * (c - c.conj().swapaxes(1, 2)))
    a = system._Q_row @ x.reshape(-1, rho.shape[0])
    return (-1j / system.constants.hbar) * comm[0] - (a + a.conj().T)


def _two_level_stage(r, system: QuantumSystem, friction, diffusion, nonlinear: bool):
    """:func:`_stage_rhs` at n = 2, entry by entry in Python complex floats.

    Takes the entries (r00, r01, r10, r11) of rho and returns those of
    drho/dt, so a caller that keeps its state in Python complex floats (the
    dim-2 :func:`~thermoqme.integrator.step`) makes no numpy call at all.
    The nonlinear M_j comes from the closed-form eigenbasis of
    :func:`_two_level_basis`, one call per stage; the linearized M_j is
    (C_j rho - (C_j rho)^dagger)/2.
    """
    r00, r01, r10, r11 = r
    h00, h01, h10, h11 = system._H2
    p00, p01 = h00 * r00 + h01 * r10, h00 * r01 + h01 * r11
    p10, p11 = h10 * r00 + h11 * r10, h10 * r01 + h11 * r11
    ih = -1j / system.constants.hbar
    k00, k01 = ih * (p00 - p00.conjugate()), ih * (p01 - p10.conjugate())
    k10, k11 = ih * (p10 - p01.conjugate()), ih * (p11 - p11.conjugate())
    a00 = a01 = a10 = a11 = 0j
    if friction is None:
        friction = (None,) * len(diffusion)
    elif nonlinear:
        t, c, s, l1, l2, d = _two_level_basis(r00.real, r11.real, r10)
        tc, cc, ss, sc = t.conjugate(), c * c, s * s, c * s
    # (m00 .. m11) enter as the entries of C_j and leave as those of M_j
    for (q00, q01, q10, q11), (m00, m01, m10, m11), f, dj in zip(system._Q2, system._C2, friction, diffusion):
        p00, p01 = q00 * r00 + q01 * r10, q00 * r01 + q01 * r11
        p10, p11 = q10 * r00 + q11 * r10, q10 * r01 + q11 * r11
        x00, x01 = dj * (p00 - p00.conjugate()), dj * (p01 - p10.conjugate())
        x10, x11 = dj * (p10 - p01.conjugate()), dj * (p11 - p11.conjugate())
        if f is not None:
            if nonlinear:
                # B = V^T (P^dagger C_j P) V weighted entrywise, then P V B V^T P^dagger
                m01, m10 = m01 * t, m10 * tc
                h, g = sc * (m01 + m10), sc * (m11 - m00)
                b00 = l1 * (cc * m00 + h + ss * m11)
                b11 = l2 * (ss * m00 - h + cc * m11)
                b01 = d * (g + cc * m01 - ss * m10)
                b10 = d * (g - ss * m01 + cc * m10)
                h, g = sc * (b01 + b10), sc * (b00 - b11)
                m00, m11 = cc * b00 - h + ss * b11, ss * b00 + h + cc * b11
                m01, m10 = (g + cc * b01 - ss * b10) * tc, (g - ss * b01 + cc * b10) * t
            else:
                # C_j rho, then its anti-Hermitian part: rho C_j = -(C_j rho)^dagger
                p00, p01 = m00 * r00 + m01 * r10, m00 * r01 + m01 * r11
                p10, p11 = m10 * r00 + m11 * r10, m10 * r01 + m11 * r11
                m00, m01 = 0.5 * (p00 - p00.conjugate()), 0.5 * (p01 - p10.conjugate())
                m10, m11 = 0.5 * (p10 - p01.conjugate()), 0.5 * (p11 - p11.conjugate())
            x00, x01, x10, x11 = x00 + f * m00, x01 + f * m01, x10 + f * m10, x11 + f * m11
        a00 += q00 * x00 + q01 * x10
        a01 += q00 * x01 + q01 * x11
        a10 += q10 * x00 + q11 * x10
        a11 += q10 * x01 + q11 * x11
    return (
        k00 - (a00 + a00.conjugate()),
        k01 - (a01 + a10.conjugate()),
        k10 - (a10 + a01.conjugate()),
        k11 - (a11 + a11.conjugate()),
    )


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
