"""Right-hand side of the thermodynamic quantum master equation.

Assembles the reversible commutator term plus, per coupling channel, a
friction term built on the state-weighted modified operator and a double
commutator diffusion term.  Also provides the Gibbs equilibrium state, the
bath-equilibrium condition on channel rates, and energy bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    NATURAL,
    PhysicalConstants,
    _as_square_matrix,
    _modified_in_basis,
    _two_level_entries,
    _two_level_matrix,
    _two_level_spectrum,
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


def _stored_hermitian(a, name: str, tol: float = 1e-12) -> np.ndarray:
    """``a`` checked Hermitian to ``tol``: as given when exactly Hermitian
    (bit for bit, even with entries past half the float maximum, where
    averaging would overflow), and otherwise as its Hermitian part."""
    a = validate_hermitian(a, tol, name)
    return a if np.array_equal(a, a.conj().T) else hermitianize(a)


@dataclass(frozen=True)
class CouplingChannel:
    """One dissipative coupling: an observable Q plus its two bracket rates.

    Q is accepted when Hermitian to 1e-12 and stored exactly Hermitian (see
    :func:`_stored_hermitian`), so the n = 2 and LAPACK kernels, which read
    different entries of it, see the same operator.

    ``friction_rate`` weights the modified-operator (entropy-driven) term and
    ``diffusion_rate`` the plain double-commutator term.  In a run coupled
    to a bath, a channel marked ``bath_coupled`` takes its rates from the
    bath bracket instead, scaled by ``weight`` (which covers e.g. an
    enhanced longitudinal channel): its friction is fixed for the run, and
    its diffusion is that friction times the bath temperature, which for a
    finite bath is read at every stage's own bath energy.  Such a channel's
    stored ``friction_rate`` and ``diffusion_rate`` are read only by
    :func:`master_rhs`.
    """

    Q: np.ndarray
    friction_rate: float = 0.0
    diffusion_rate: float = 0.0
    bath_coupled: bool = False
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "Q", _stored_hermitian(self.Q, "coupling operator"))
        if not (self.friction_rate >= 0.0 and self.diffusion_rate >= 0.0):
            raise ValueError("channel rates must be nonnegative")
        if not self.weight >= 0.0:
            raise ValueError("channel weight must be nonnegative")


@dataclass(frozen=True)
class QuantumSystem:
    """Hamiltonian plus an ordered list of coupling channels.

    H, like each channel's Q, is stored exactly Hermitian.
    """

    H: np.ndarray
    channels: tuple[CouplingChannel, ...] = ()
    constants: PhysicalConstants = NATURAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "H", _stored_hermitian(self.H, "hamiltonian"))
        object.__setattr__(self, "channels", tuple(self.channels))
        dim = self.H.shape[0]
        for k, ch in enumerate(self.channels):
            if ch.Q.shape != (dim, dim):
                raise ValueError(
                    f"channel {k}: coupling operator shape {ch.Q.shape} does not match dimension {dim}"
                )
        # Compiled once for the stage kernel: the stack S = [H; Q_1..Q_k], whose
        # one product with rho gives [H, rho] and every [Q_j, rho]; the row
        # [Q_1 .. Q_k]; the constant commutators C_j = [Q_j, H]; and at n = 2
        # the real Pauli vector h of H and its four reals (for tr(H rho) at a
        # sampled point) as Python floats, and the per-channel pieces of the
        # Bloch map (see _bind_rates).
        S = np.array([self.H] + [ch.Q for ch in self.channels], dtype=complex)
        Q = S[1:]
        C = Q @ self.H - self.H @ Q
        h2 = h4 = q2 = None
        if dim == 2:
            h4 = _two_level_entries(self.H)
            # Hermitian A = tr(A)/2 I + a . sigma (see _two_level_entries), and
            # [a . sigma, b . sigma] = 2i (a x b) . sigma
            p = np.array([(re, im, 0.5 * (a00 - a11)) for a00, a11, re, im in map(_two_level_entries, S)])
            h, q = p[0], p[1:]
            c = 2.0 * np.cross(q, h)
            # (2/hbar) [h]x, and per channel 4 (q q^T - |q|^2 I), 4 q x c and 4 q c^T
            (hx, hy, hz), qq = h, (q * q).sum(axis=1)[:, None, None]
            cross = (2.0 / self.constants.hbar) * np.array([0.0, -hz, hy, hz, 0.0, -hx, -hy, hx, 0.0])
            k = 4.0 * (q[:, :, None] * q[:, None, :] - qq * np.eye(3)).reshape(-1, 9)
            h2 = tuple(h.tolist())
            q2 = (cross, k, 4.0 * np.cross(q, c), 4.0 * (q[:, :, None] * c[:, None, :]).reshape(-1, 9))
        compiled = {
            "_S": S,
            "_Q_row": Q.transpose(1, 0, 2).reshape(dim, Q.shape[0] * dim),
            "_C": C,
            "_h2": h2,
            "_h4": h4,
            "_q2": q2,
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
    stage = _bind_rates(system, nonlinear, *_rates(system))
    return _matrix_rates(stage, _as_state(rho, system), 0.0)[0]


def _rates(system: QuantumSystem, g: float | None = None):
    """Each channel's friction/k_B, diffusion and diffusion per unit T, as
    lists of Python floats: the stored rates when ``g`` is None; otherwise,
    for a bath-coupled channel, ``weight`` times the bath bracket ``g`` as
    friction and as diffusion per unit T.  Lists that would be all zero are
    None (the diffusion list excepted)."""
    friction, diffusion, per_T = [], [], []
    for ch in system.channels:
        coupled = g is not None and ch.bath_coupled
        w = float(ch.weight) * g if coupled else 0.0
        friction.append(w if coupled else float(ch.friction_rate))
        diffusion.append(0.0 if coupled else float(ch.diffusion_rate))
        per_T.append(w)
    kB = system.constants.kB
    friction = [x / kB for x in friction] if any(friction) else None
    return friction, diffusion, per_T if any(per_T) else None


def _bind_rates(system: QuantumSystem, nonlinear: bool, friction, diffusion, per_T=None, temperature=None):
    """The stage of rates in :func:`_rates` form, with what they fix
    compiled once; it gives the state's rate and dH_e/dt = -Re tr(H drho/dt)
    by energy closure.  ``temperature``, if given, maps a bath energy to T
    (raising for a drained bath) and is read at every stage's own H_e; the
    diffusion rates are then ``diffusion`` + T ``per_T``.

    The dimension selects the kernel and its calling convention: above
    n = 2, (rho, H_e) -> (drho/dt, dH_e/dt) by :func:`_lapack_stage` on
    numpy arrays, with the rates made into :func:`_rate_column` arrays
    once; at n = 2, this closure, in real Pauli coordinates and
    Python floats with no numpy call, flat in and out:
    (r00, r11, x, y, H_e) -> (gx, gy, gz, dH_e/dt).  There the state is the
    four reals (rho00, rho11, Re rho10, Im rho10) and g = dm/dt for the
    Bloch vector m = (2 Re rho10, 2 Im rho10, rho00 - rho11), so
    rho = (tr rho I + m . sigma)/2.  With the Bloch map (A, U, P) and a
    finite bath's A_bath, unpacked once into closure locals (as are
    ``math.hypot`` and the spectrum function),
    dm/dt = (A + T A_bath) m + d U + (e P n) x n.  This sums, over the
    channels, (2/hbar) h x m, 4 diffusion_j q_j x (q_j x m) and
    4 friction_j/k_B q_j x v_j, where v_j . sigma is the traceless part of
    the modified product of c_j . sigma = [Q_j, H]/i with rho.  Nonlinear,
    v_j = d c_j + e (c_j . n) n with n = m/|m| (0 at m = 0), d the log-mean
    of the clipped eigenvalues and e their mean minus d.  |m| is computed
    once per stage: it normalizes n and is the eigenvalues' gap, from which
    one :func:`~thermoqme.operators._two_level_spectrum` call per stage with
    friction gives the unclipped eigenvalues and d in closed form, and the
    stage clips the eigenvalues for e itself; linearized, d = tr rho/2 and
    there is no P term.
    """
    finite = temperature is not None
    if system.dim > 2:
        f, d, d_per_T = _rate_column(friction), _rate_column(diffusion), _rate_column(per_T)

        def stage(rho, H_e):
            T = temperature(H_e) if finite else 0.0
            k = _lapack_stage(rho, system, f, d if d_per_T is None else d + T * d_per_T, nonlinear)
            return k, -float(np.vdot(system.H, k).real)

        return stage
    hx, hy, hz = system._h2
    cross, k, u, p = system._q2
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = (cross + np.dot(diffusion, k)).tolist()
    bath = finite and per_T is not None
    if bath:
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = np.dot(per_T, k).tolist()  # A_bath
    if friction is not None:
        ux, uy, uz = np.dot(friction, u).tolist()
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = np.dot(friction, p).tolist()

    hypot, spectrum = math.hypot, _two_level_spectrum

    def stage(r00, r11, x, y, H_e):
        mx, my, mz = 2.0 * x, 2.0 * y, r00 - r11
        gx, gy, gz = a0 * mx + a1 * my + a2 * mz, a3 * mx + a4 * my + a5 * mz, a6 * mx + a7 * my + a8 * mz
        if finite:
            T = temperature(H_e)
            if bath:
                gx += T * (b0 * mx + b1 * my + b2 * mz)
                gy += T * (b3 * mx + b4 * my + b5 * mz)
                gz += T * (b6 * mx + b7 * my + b8 * mz)
        if friction is None:
            pass
        elif not nonlinear:
            d = 0.5 * (r00 + r11)
            gx, gy, gz = gx + d * ux, gy + d * uy, gz + d * uz
        else:
            m = hypot(mx, my, mz)
            l1, l2, d = spectrum(r00, r11, x, y, m)
            gx, gy, gz = gx + d * ux, gy + d * uy, gz + d * uz
            if m > 0.0:
                nx, ny, nz = mx / m, my / m, mz / m
                # with m > 0, l2 > 0 only where l1 > 0 too
                e = 0.5 * (l1 + l2) - d if l2 > 0.0 else 0.5 * l1 if l1 > 0.0 else 0.0
                px, py, pz = p0 * nx + p1 * ny + p2 * nz, p3 * nx + p4 * ny + p5 * nz, p6 * nx + p7 * ny + p8 * nz
                px, py, pz = e * px, e * py, e * pz
                gx, gy, gz = gx + (py * nz - pz * ny), gy + (pz * nx - px * nz), gz + (px * ny - py * nx)
        return gx, gy, gz, -(hx * gx + hy * gy + hz * gz)

    return stage


def _matrix_rates(stage, rho, H_e: float):
    """(drho/dt, dH_e/dt) of a stage of :func:`_bind_rates` at (rho, H_e),
    with rho and drho/dt numpy arrays at every n."""
    if rho.shape[0] == 2:  # drho/dt = (dm/dt . sigma)/2
        gx, gy, gz, rate = stage(*_two_level_entries(rho), H_e)
        return _two_level_matrix(0.5 * gz, -0.5 * gz, 0.5 * gx, 0.5 * gy), rate
    return stage(rho, H_e)


def _rate_column(rates) -> np.ndarray | None:
    """Per-channel rates in :func:`_rates` form as a (k, 1, 1) float array,
    which scales a stack of k matrices; None stays None."""
    return None if rates is None else np.array(rates, dtype=float)[:, None, None]


def _lapack_stage(rho, system: QuantumSystem, friction, diffusion, nonlinear: bool) -> np.ndarray:
    """The stage kernel on stacked arrays, the one above n = 2, with the
    rates as :func:`_rate_column` arrays (``friction`` may be None).

    For Hermitian rho and A, rho A = (A rho)^dagger, so one product P = S rho
    gives [H, rho] and every [Q_j, rho] as P - P^dagger.  Channel j enters
    through the anti-Hermitian X_j = friction_j/k_B M_j + diffusion_j [Q_j, rho],
    M_j the modified (linearized: symmetrized) product of C_j = [Q_j, H] with
    rho, so -sum_j [Q_j, X_j] = -(A + A^dagger) with A = sum_j Q_j X_j."""
    p = system._S @ rho
    comm = p - p.conj().swapaxes(1, 2)
    x = diffusion * comm[1:]
    if friction is not None:
        C = system._C
        if nonlinear:
            w, u = np.linalg.eigh(rho)
            x += friction * _modified_in_basis(w, u, C)
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
