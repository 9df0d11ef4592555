"""Right-hand side of the thermodynamic quantum master equation.

Assembles the reversible commutator term plus, per coupling channel, a
friction term built on the state-weighted modified operator and a double
commutator diffusion term, and binds a run's rates into its RK4 advance of
(rho, H_e), which returns the stage at its end.  Also provides the Gibbs
equilibrium state, the bath-equilibrium condition and energy bookkeeping.
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
    _require_finite,
    _two_level_entries,
    _two_level_matrix,
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


class _BathDrained(ValueError):
    """A finite bath's energy reached zero or below, or went non-finite."""

    @classmethod
    def at(cls, H_e: float) -> "_BathDrained":
        """The error for a finite bath at energy ``H_e``, which is not a
        finite number above zero: drained if finite, a state gone non-finite
        otherwise."""
        if math.isfinite(H_e):
            return cls(f"finite bath energy must stay positive, got H_e={H_e:.6g}")
        return cls(f"state went non-finite: finite bath energy H_e={H_e}")


def _bath_temperature(H_e: float, C_e: float) -> float:
    """H_e/C_e, the temperature of a finite bath of heat capacity ``C_e`` at
    energy ``H_e``; raises :meth:`_BathDrained.at` unless 0 < H_e < inf,
    a check and division that the n = 2 advance of :func:`_bind_rates` inlines."""
    if not 0.0 < H_e < math.inf:
        raise _BathDrained.at(H_e)
    return H_e / C_e


def _exactly_hermitian(a: np.ndarray) -> np.ndarray:
    """``a`` as given when exactly Hermitian (bit for bit, even with entries
    past half the float maximum, where averaging would overflow), otherwise
    its Hermitian part: a stored operator, or a state where it enters a run."""
    return a if np.array_equal(a, a.conj().T) else hermitianize(a)


def _stored_hermitian(a, name: str) -> np.ndarray:
    """``a`` checked Hermitian to 1e-12 and made exactly so by :func:`_exactly_hermitian`."""
    return _exactly_hermitian(validate_hermitian(a, name=name))


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
        _require_finite(self, nonnegative=("friction_rate", "diffusion_rate", "weight"))


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

    Each call binds the stored rates afresh (:func:`_bind_rates`), which
    at n = 2 builds the Bloch map with a few numpy calls (about 5
    microseconds on a 2-core Xeon), whereas a run
    (:func:`~thermoqme.integrator.simulate`) binds its stage once.
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


def _bind_rates(system: QuantumSystem, nonlinear: bool, friction, diffusion, per_T=None, C_e=None):
    """The RK4 advance of rates in :func:`_rates` form at every n, with what
    they fix compiled once; its stage gives the state's rate and
    dH_e/dt = -Re tr(H drho/dt) by energy closure.  ``C_e``, if given, is a
    finite bath's heat capacity: every stage reads the temperature
    T = H_e/C_e at its own H_e, raising :class:`_BathDrained` unless
    0 < H_e < inf (the check and messages of :func:`_bath_temperature`),
    and the diffusion rates are then ``diffusion`` + T ``per_T``.

    The advance (rho, H_e, dt=0.0, first=None, steps=0) -> (rho, H_e, stage)
    takes ``steps`` steps, rho a numpy array at every n, and returns the
    stage at the state it returns (zero steps: rho and H_e as given), the
    next call's ``first``.  A call costs 4 steps + 1 stages, one less with
    ``first``, the stage at the start, given.  An exception that a stage
    raises carries ``steps_done``, the steps finished before the stage's own.

    The dimension selects the kernel: above n = 2, the stage (rho, H_e) ->
    (drho/dt, w, dH_e/dt) by :func:`_lapack_stage` on numpy arrays, with the
    rates made into :func:`_rate_column` arrays once, where w is the
    ascending spectrum of rho from the stage's eigh, or None where it made
    none (linearized, or no friction).  At n = 2 the advance reads rho's
    four reals (rho00, rho11, Re rho10, Im rho10) once on entry and builds
    the rho it steps to from them once; in real Pauli coordinates with no
    numpy call and no Python call but ``math``'s, its stage
    (r00, r11, x, y, H_e) -> (gx, gy, gz, dH_e/dt) gives g = dm/dt for the
    Bloch vector m = (2 Re rho10, 2 Im rho10, rho00 - rho11), so
    rho = (tr rho I + m . sigma)/2.
    With the Bloch map (A, U, P) and a finite bath's A_bath, unpacked once
    into closure locals (as are ``math``'s hypot, log and log1p, taken from
    this module's ``math`` when the advance is bound),
    dm/dt = (A + T A_bath) m + d U + (e P n) x n.  This sums, over the
    channels, (2/hbar) h x m, 4 diffusion_j q_j x (q_j x m) and
    4 friction_j/k_B q_j x v_j, where v_j . sigma is the traceless part of
    the modified product of c_j . sigma = [Q_j, H]/i with rho.  Nonlinear,
    v_j = d c_j + e (c_j . n) n with n = m/|m| (0 at m = 0), d the log-mean
    of the clipped eigenvalues and e their mean minus d.  |m|, computed
    once per stage, normalizes n and is the eigenvalues' gap, from which
    the stage computes them and d as the reference
    :func:`~thermoqme.operators._two_level_spectrum` does, bit for bit, and
    clips them for e; linearized, d = tr rho/2 and there is no P term.
    """
    finite = C_e is not None
    if system.dim > 2:
        f, d, d_per_T = _rate_column(friction), _rate_column(diffusion), _rate_column(per_T)

        def stage(rho, h):
            T = _bath_temperature(h, C_e) if finite else 0.0
            k, w = _lapack_stage(rho, system, f, d if d_per_T is None else d + T * d_per_T, nonlinear)
            return k, w, -float(np.vdot(system.H, k).real)

        def advance(rho, h, dt=0.0, first=None, steps=0):
            half, sixth, done = 0.5 * dt, dt / 6.0, 0
            try:
                s = stage(rho, h) if first is None else first
                for done in range(steps):
                    k1, _, e1 = s
                    k2, _, e2 = stage(rho + half * k1, h + half * e1)
                    k3, _, e3 = stage(rho + half * k2, h + half * e2)
                    k4, _, e4 = stage(rho + dt * k3, h + dt * e3)
                    rho = rho + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    h = h + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
                    s = stage(rho, h)
            except (_BathDrained, np.linalg.LinAlgError) as exc:
                exc.steps_done = done
                raise
            return rho, h, s

        return advance
    hx, hy, hz = system._h2
    cross, k, u, p = system._q2
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = (cross + np.dot(diffusion, k)).tolist()
    bath = finite and per_T is not None
    if bath:
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = np.dot(per_T, k).tolist()  # A_bath
    if friction is not None:
        ux, uy, uz = np.dot(friction, u).tolist()
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = np.dot(friction, p).tolist()

    hypot, log, log1p, inf = math.hypot, math.log, math.log1p, math.inf

    def advance(rho, H_e, dt=0.0, first=None, steps=0):
        # One loop over stage evaluations, the stage written once at its end.
        # The state is (s00, s11, sx, sy, sh), and (r00, r11, x, y, H_e) the
        # point of the next stage.  Each pass files the stage in hand,
        # (gx, gy, gz, dh), as k_j (j = 0: none yet), moves the point on
        # (after k4, the state by dt/6 (((k1 + 2 k2) + 2 k3) + k4), for m and
        # for H_e), sets j to the stage it evaluates there, and evaluates it.
        # No tuple of more than three is packed per pass, as CPython builds
        # one for a longer assignment.  rho is read into its four reals here;
        # the one return, at j = 1 once the steps are done, builds rho from
        # the state's (none taken: rho as given) and hands back the stage in hand.
        r00, r11, x, y = _two_level_entries(rho)
        s00, s11, sx, sy, sh = r00, r11, x, y, H_e
        dt2, dt6 = 0.5 * dt, dt / 6.0
        dt4, dt12 = 0.5 * dt2, 0.5 * dt6
        done, j = 0, 0 if first is None else 1
        if j:
            gx, gy, gz, dh = first
        try:
            while True:
                if j == 1:
                    if done == steps:
                        return (_two_level_matrix(s00, s11, sx, sy) if done else rho), sh, (gx, gy, gz, dh)
                    g1x, g1y, g1z = gx, gy, gz
                    r00, r11, e1 = s00 + dt4 * gz, s11 - dt4 * gz, dh
                    x, y, H_e = sx + dt4 * gx, sy + dt4 * gy, sh + dt2 * dh
                    j = 2
                elif j == 2:
                    g2x, g2y, g2z = gx, gy, gz
                    r00, r11, e2 = s00 + dt4 * gz, s11 - dt4 * gz, dh
                    x, y, H_e = sx + dt4 * gx, sy + dt4 * gy, sh + dt2 * dh
                    j = 3
                elif j == 3:
                    g3x, g3y, g3z = gx, gy, gz
                    r00, r11, e3 = s00 + dt2 * gz, s11 - dt2 * gz, dh
                    x, y, H_e = sx + dt2 * gx, sy + dt2 * gy, sh + dt * dh
                    j = 4
                elif j:  # j == 4
                    gx = g1x + 2.0 * g2x + 2.0 * g3x + gx
                    gy = g1y + 2.0 * g2y + 2.0 * g3y + gy
                    gz = g1z + 2.0 * g2z + 2.0 * g3z + gz
                    s00, s11, sh = s00 + dt12 * gz, s11 - dt12 * gz, sh + dt6 * (e1 + 2.0 * e2 + 2.0 * e3 + dh)
                    sx, sy = sx + dt12 * gx, sy + dt12 * gy
                    done += 1
                    r00, r11, H_e = s00, s11, sh
                    x, y, j = sx, sy, 1
                else:  # none in hand: k1 at the state
                    j = 1
                # the stage at (r00, r11, x, y, H_e)
                mx, my, mz = 2.0 * x, 2.0 * y, r00 - r11
                gx, gy, gz = a0 * mx + a1 * my + a2 * mz, a3 * mx + a4 * my + a5 * mz, a6 * mx + a7 * my + a8 * mz
                if finite:
                    if not 0.0 < H_e < inf:
                        raise _BathDrained.at(H_e)
                    if bath:
                        T = H_e / C_e
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
                    # _two_level_spectrum(r00, r11, x, y, m), then e from its clipped eigenvalues
                    l1 = 0.5 * r00 + 0.5 * r11 + 0.5 * m
                    if not l1 > 0.0:
                        d = e = 0.0
                    else:
                        acmx, acmn = (r00, r11) if abs(r00) > abs(r11) else (r11, r00)
                        l2 = (acmx / l1) * acmn - ((x / l1) * x + (y / l1) * y)
                        if not l2 > 0.0:
                            d, e = 0.0, 0.5 * l1
                        else:
                            ratio = m / l2
                            if ratio < 2.0**-1022:
                                d = l2
                            elif ratio == inf:
                                d = m / (log(l1) - log(l2))
                            else:
                                d = m / log1p(ratio)
                            e = 0.5 * (l1 + l2) - d
                    gx, gy, gz = gx + d * ux, gy + d * uy, gz + d * uz
                    if m > 0.0:
                        nx, ny, nz = mx / m, my / m, mz / m
                        px = e * (p0 * nx + p1 * ny + p2 * nz)
                        py = e * (p3 * nx + p4 * ny + p5 * nz)
                        pz = e * (p6 * nx + p7 * ny + p8 * nz)
                        gx, gy, gz = gx + (py * nz - pz * ny), gy + (pz * nx - px * nz), gz + (px * ny - py * nx)
                dh = -(hx * gx + hy * gy + hz * gz)
        except _BathDrained as exc:
            # a step's end stage (j = 1 after a step) fails in that step
            exc.steps_done = done - 1 if done and j == 1 else done
            raise

    return advance


def _matrix_rates(advance, rho, H_e: float):
    """(drho/dt, dH_e/dt) of the stage an advance of :func:`_bind_rates` returns
    at (rho, H_e), drho/dt a numpy array at every n (at n = 2 built here only)."""
    stage = advance(rho, H_e)[2]
    if len(stage) == 4:  # n = 2: (dm/dt, dH_e/dt), and drho/dt = (dm/dt . sigma)/2
        gx, gy, gz, rate = stage
        return _two_level_matrix(0.5 * gz, -0.5 * gz, 0.5 * gx, 0.5 * gy), rate
    return stage[0], stage[2]


def _rate_column(rates) -> np.ndarray | None:
    """Per-channel rates in :func:`_rates` form as a (k, 1, 1) float array,
    which scales a stack of k matrices; None stays None."""
    return None if rates is None else np.array(rates, dtype=float)[:, None, None]


def _lapack_stage(rho, system: QuantumSystem, friction, diffusion, nonlinear: bool):
    """The stage kernel on stacked arrays, the one above n = 2, with the
    rates as :func:`_rate_column` arrays (``friction`` may be None).
    Returns (drho/dt, w): w is the spectrum of rho from the eigh that the
    nonlinear friction terms make, None where no eigh is made.

    For Hermitian rho and A, rho A = (A rho)^dagger, so one product P = S rho
    gives [H, rho] and every [Q_j, rho] as P - P^dagger.  Channel j enters
    through the anti-Hermitian X_j = friction_j/k_B M_j + diffusion_j [Q_j, rho],
    M_j the modified (linearized: symmetrized) product of C_j = [Q_j, H] with
    rho, so -sum_j [Q_j, X_j] = -(A + A^dagger) with A = sum_j Q_j X_j.

    drho/dt is exactly Hermitian, for any rho and however the friction's
    products round: P - P^dagger is exactly anti-Hermitian, A + A^dagger
    exactly Hermitian, and real or -i/hbar scalings keep both; so a state
    that enters a run exactly Hermitian stays so, with no correction."""
    p = system._S @ rho
    comm = p - p.conj().swapaxes(1, 2)
    x = diffusion * comm[1:]
    w = None
    if friction is not None:
        C = system._C
        if nonlinear:
            w, u = np.linalg.eigh(rho)
            x += friction * _modified_in_basis(w, u, C)
        else:
            c = C @ rho  # rho C = -(C rho)^dagger, as C is anti-Hermitian
            x += friction * (0.5 * (c - c.conj().swapaxes(1, 2)))
    a = system._Q_row @ x.reshape(-1, rho.shape[0])
    return (-1j / system.constants.hbar) * comm[0] - (a + a.conj().T), w


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
