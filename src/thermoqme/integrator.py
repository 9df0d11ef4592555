"""Fixed-step time integration of the coupled quantum-bath system.

Steps the density matrix and the bath energy jointly with classic RK4 (or
explicit Euler).  Every internal stage evaluates the bath-coupled diffusion
rates at that stage's bath energy and takes the bath's energy rate from the
closure identity.  Structure monitors (trace, hermiticity, positivity, total
energy for closed totals) are sampled on a configurable cadence; a breach,
or a finite bath drained of its energy, terminates the run with a flagged
violation rather than a silent repair or a traceback.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    _spectrum_entropy,
    _two_level_entries,
    _two_level_matrix,
    _two_level_spectrum,
    validate_density_matrix,
)
from .master_equation import QuantumSystem, _as_state, _exactly_hermitian
from .environment import EnvironmentObservableReport, HeatBath, _BathDrained, _bind

__all__ = [
    "MonitorTolerances",
    "IntegratorConfig",
    "TrajectoryPoint",
    "Trajectory",
    "step",
    "simulate",
]

log = logging.getLogger("thermoqme")

COMPLETED = "completed"
MONITOR_VIOLATION = "monitor_violation"
# how far from Hermitian and from unit trace a start state may be, here and in a config
START_STATE_TOL = 1e-10


@dataclass(frozen=True)
class MonitorTolerances:
    trace: float = 1e-9
    hermiticity: float = 1e-9
    positivity: float = 1e-9
    energy: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("trace", "hermiticity", "positivity", "energy"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"tolerance {name!r} must be positive")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    method: str = "rk4"
    monitor_every: int = 10
    tolerances: MonitorTolerances = field(default_factory=MonitorTolerances)

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.t_end > self.dt:
            raise ValueError("t_end must exceed dt")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        # n_steps fixed steps end at n_steps * dt, so that must be t_end
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end = {self.t_end} is not a whole number of dt = {self.dt} steps "
                f"(the nearest step ends at t = {self.n_steps * self.dt:g})"
            )
        if self.method not in ("rk4", "euler"):
            raise ValueError(f"method must be 'rk4' or 'euler', got {self.method!r}")
        if int(self.monitor_every) != self.monitor_every or self.monitor_every < 1:
            raise ValueError("monitor_every must be a positive integer")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    rho: np.ndarray
    env: EnvironmentObservableReport | None
    monitors: dict[str, float]


@dataclass(frozen=True)
class Trajectory:
    points: tuple[TrajectoryPoint, ...]
    config: IntegratorConfig
    termination: str
    violation: str | None = None

    @property
    def final(self) -> TrajectoryPoint:
        return self.points[-1]

    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    def monitor_series(self, key: str) -> np.ndarray:
        return np.array([p.monitors[key] for p in self.points])


def step(
    rho: np.ndarray,
    bath: HeatBath,
    system: QuantumSystem,
    dt: float,
    method: str = "rk4",
    nonlinear: bool = True,
) -> tuple[np.ndarray, HeatBath]:
    """One explicit step of the joint (rho, H_e) system.

    The run's rates are bound once (:func:`~thermoqme.environment._bind`);
    every internal stage takes the bath-coupled diffusion at that stage's
    bath energy and dH_e/dt = -Re tr(H drho/dt) from the stage's own
    drho/dt, so the total tr(H rho) + H_e of a closed finite-bath system is
    conserved to rounding in both variants.  The step starts from rho made
    exactly Hermitian (:func:`~thermoqme.master_equation._exactly_hermitian`),
    as :func:`simulate` starts, and the returned rho is exactly Hermitian.

    A finite bath whose energy is not positive at any stage or at the end of
    the step raises ValueError, and so does an infinite bath whose ``H_e``
    ends the step non-finite.  The dimension selects how:
    :func:`_array_advance` above n = 2; at n = 2, where numpy's call
    overhead is many times the arithmetic, :func:`_two_level_advance` on
    the four reals of rho and H_e as floats, packed into an array once.
    Each is the advance :func:`simulate` makes once per sampled interval,
    here over one step, with its first stage evaluated at (rho, bath.H_e):
    4 stages with RK4, 1 with Euler.
    """
    rho = _exactly_hermitian(_as_state(rho, system))
    stage = _bind(bath, system, nonlinear)
    if system.dim == 2:
        r00, r11, x, y = _two_level_entries(rho)
        first = stage(r00, r11, x, y, bath.H_e)
        *r, h = _two_level_advance(r00, r11, x, y, bath.H_e, stage, dt, method, first, 1)
        return _two_level_matrix(*r), bath.with_energy(h)
    rho, h = _array_advance(rho, bath.H_e, stage, dt, method, stage(rho, bath.H_e), 1)
    return rho, bath.with_energy(h)


def _array_advance(rho, h, stage, dt, method, first, steps):
    """``steps`` RK4 or Euler steps of (rho, H_e) on numpy arrays, with the
    bound ``stage`` (rho, H_e) -> (drho/dt, ..., dH_e/dt) and ``first`` its
    value at (rho, h); returns (rho, H_e), rho exactly Hermitian as it
    enters (see :func:`~thermoqme.master_equation._lapack_stage`).  Only the
    first and the last item of a stage's value are read, so the spectrum
    that the n > 2 stage returns between them is ignored.

    The stage at each step's end state is the next step's first stage; the
    last step's is left to the caller, so the call costs 4 steps - 1 stages
    with RK4 and steps - 1 with Euler.  An exception raised by a stage
    (a drained bath, a failed eigendecomposition) leaves with the number of
    steps finished before the failing one as its ``steps_done``."""
    k1, *_, e1 = first
    half, sixth, last = 0.5 * dt, dt / 6.0, steps - 1
    try:
        if method == "rk4":
            for done in range(steps):
                k2, *_, e2 = stage(rho + half * k1, h + half * e1)
                k3, *_, e3 = stage(rho + half * k2, h + half * e2)
                k4, *_, e4 = stage(rho + dt * k3, h + dt * e3)
                rho = rho + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                h = h + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
                if done != last:
                    k1, *_, e1 = stage(rho, h)
        elif method == "euler":
            for done in range(steps):
                rho = rho + dt * k1
                h = h + dt * e1
                if done != last:
                    k1, *_, e1 = stage(rho, h)
        else:
            raise ValueError(f"unknown method {method!r}")
    except (_BathDrained, np.linalg.LinAlgError) as exc:
        exc.steps_done = done
        raise
    return rho, h


def _two_level_advance(r00, r11, x, y, h, stage, dt, method, first, steps):
    """:func:`_array_advance` at n = 2 on Python floats, flat in and out:
    the four reals (rho00, rho11, Re rho10, Im rho10), which keep the
    smaller diagonal entry, and with it the smaller eigenvalue, to full
    relative precision, and H_e; returns the same five floats ``steps``
    steps on, with the same stage count and the same ``steps_done`` on an
    exception.  ``stage`` is the flat n = 2 stage (r00, r11, x, y, H_e) ->
    (gx, gy, gz, dH_e/dt), g = dm/dt for the Bloch vector m, and ``first``
    its value at the start.  The state, the first stage and the
    dt-derived constants stay in locals for the whole call.  The state
    rho + s drho/dt has the four reals (r00, r11, x, y) + (s/2) (gz, -gz,
    gx, gy), so the trace changes only by rounding."""
    g1x, g1y, g1z, e1 = first
    half = 0.5 * dt
    quarter = 0.5 * half
    sixth = dt / 6.0
    twelfth = sixth * 0.5
    last = steps - 1
    try:
        if method == "rk4":
            for done in range(steps):
                s = quarter
                g2x, g2y, g2z, e2 = stage(r00 + s * g1z, r11 - s * g1z, x + s * g1x, y + s * g1y, h + half * e1)
                g3x, g3y, g3z, e3 = stage(r00 + s * g2z, r11 - s * g2z, x + s * g2x, y + s * g2y, h + half * e2)
                s = half
                g4x, g4y, g4z, e4 = stage(r00 + s * g3z, r11 - s * g3z, x + s * g3x, y + s * g3y, h + dt * e3)
                s = twelfth
                gx = g1x + 2.0 * g2x + 2.0 * g3x + g4x
                gy = g1y + 2.0 * g2y + 2.0 * g3y + g4y
                gz = g1z + 2.0 * g2z + 2.0 * g3z + g4z
                r00, r11, x, y = r00 + s * gz, r11 - s * gz, x + s * gx, y + s * gy
                h = h + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
                if done != last:
                    g1x, g1y, g1z, e1 = stage(r00, r11, x, y, h)
        elif method == "euler":
            for done in range(steps):
                r00, r11, x, y, h = r00 + half * g1z, r11 - half * g1z, x + half * g1x, y + half * g1y, h + dt * e1
                if done != last:
                    g1x, g1y, g1z, e1 = stage(r00, r11, x, y, h)
        else:
            raise ValueError(f"unknown method {method!r}")
    except (_BathDrained, np.linalg.LinAlgError) as exc:
        exc.steps_done = done
        raise
    return r00, r11, x, y, h


def _observe(t, rho, h, bath, system, energy_ref, tolerances, flux, w=None, hermitian=False):
    """Build a trajectory point and return (point, violation detail or None)
    for the state ``rho`` and bath energy ``h``; ``bath`` is the run's bath,
    read at ``h`` for the temperature and entropy, and ``flux`` is dH_e/dt
    of the run's stage at (rho, h), the negative of the point's energy flux
    into the quantum system.

    The dimension selects how the monitors are computed.  Above n = 2, with
    numpy: the ascending spectrum gives min_eig and the entropy; it is
    ``w``, which the stage at (rho, h) took from its eigh of this very rho,
    or, where ``w`` is None, one eigvalsh of rho.  tr(H rho) is the n^2
    inner product sum_ij conj(H_ij) rho_ij, which is tr(H rho) for the
    exactly Hermitian H that :class:`QuantumSystem` stores.  herm_err is
    max|rho - rho^dagger|, or, where ``hermitian`` says that rho is exactly
    Hermitian by construction (every point :func:`simulate` records after
    t = 0), 0.0, or NaN if an entry is not finite, the value that maximum
    takes on such a rho.  At n = 2, in
    Python floats from the four reals of rho, which is read as exactly Hermitian
    (as :func:`simulate` builds it): herm_err is 0.0, or NaN if an entry is
    not finite; min_eig is the unclipped smaller eigenvalue det(rho)/l1 of
    one :func:`~thermoqme.operators._two_level_spectrum` call, which keeps
    its relative precision near a pure state; the entropy is that spectrum's;
    and tr(H rho) comes from H's four reals."""
    if rho.shape[0] == 2:
        r00, r11, x, y = _two_level_entries(rho)
        trace_err = abs(r00 + r11 - 1.0)
        herm_err = 0.0 if all(map(math.isfinite, (r00, r11, x, y))) else math.nan
        l1, min_eig, _ = _two_level_spectrum(r00, r11, x, y, math.hypot(2.0 * x, 2.0 * y, r00 - r11))
        spectrum = (min_eig, l1)
        h00, h11, hr, hi = system._h4
        energy = h00 * r00 + h11 * r11 + 2.0 * (hr * x + hi * y)
    else:
        trace_err = abs(complex(np.trace(rho)) - 1.0)
        if hermitian:
            herm_err = 0.0 if np.isfinite(rho).all() else math.nan
        else:
            herm_err = float(np.max(np.abs(rho - rho.conj().T)))
        spectrum = (np.linalg.eigvalsh(rho) if w is None else w).tolist()
        min_eig = spectrum[0]
        energy = float(np.vdot(system.H, rho).real)
    env = EnvironmentObservableReport(
        H_e=h,
        T_e=bath._temperature_at(h),
        S_e=bath._entropy_at(h),
        energy_flux_to_quantum=-flux,
    )
    # tr(H rho) + H_e: the exact total for a finite bath, and the
    # exchange-consistent bookkeeping total for an infinite one.
    total_energy = energy + h
    total_entropy = env.S_e + _spectrum_entropy(spectrum, system.constants)
    monitors = {
        "trace_err": trace_err,
        "herm_err": herm_err,
        "min_eig": min_eig,
        "total_energy": total_energy,
        "total_entropy": total_entropy,
    }
    point = TrajectoryPoint(t=t, rho=rho.copy(), env=env, monitors=monitors)

    # a NaN fails every comparison below, so a non-finite monitor is a violation of its own
    checked = ("trace_err", "herm_err", "min_eig", "total_energy")
    nonfinite = [key for key in checked if not math.isfinite(monitors[key])]
    violation = None
    if nonfinite:
        violation = f"non-finite monitor {', '.join(f'{key}={monitors[key]}' for key in nonfinite)} at t={t:.6g}"
    elif trace_err > tolerances.trace:
        violation = f"trace drift {trace_err:.3e} exceeds {tolerances.trace:.1e} at t={t:.6g}"
    elif herm_err > tolerances.hermiticity:
        violation = f"hermiticity error {herm_err:.3e} exceeds {tolerances.hermiticity:.1e} at t={t:.6g}"
    elif min_eig < -tolerances.positivity:
        violation = (
            f"positivity violated: smallest eigenvalue {min_eig:.3e} below "
            f"-{tolerances.positivity:.1e} at t={t:.6g}"
        )
    elif bath.kind == "finite" and energy_ref is not None:
        drift = abs(total_energy - energy_ref)
        if drift > tolerances.energy * max(1.0, abs(energy_ref)):
            violation = (
                f"total energy drift {drift:.3e} exceeds tolerance at t={t:.6g} "
                f"(reference {energy_ref:.6g})"
            )
    return point, violation


def simulate(
    rho0: np.ndarray,
    bath0: HeatBath,
    system: QuantumSystem,
    config: IntegratorConfig,
    nonlinear: bool = True,
) -> Trajectory:
    """Integrate from t=0 to t_end, recording monitors every
    ``monitor_every`` steps (plus the initial and final states).

    The rates are bound once per run, and the state is carried as
    :func:`step` advances it (at n = 2 as Python floats): one call of the
    dimension's advance covers a whole sampled interval,
    min(monitor_every, n_steps - k) steps from step k.  The density matrix
    is built only at recorded points, where the run's bath is read at the
    carried energy.  The results are a loop of :func:`step`'s, and every
    point is the same, bit for bit, at any cadence.  Above n = 2 a
    nonlinear point after t = 0 reads its spectrum from the eigh that its
    stage made, so it makes no decomposition of its own.

    The stage at each step's end state is evaluated once: it is the next
    step's first stage, and at an interval's end, evaluated here after the
    advance, a recorded point's energy flux.  So N steps cost 4N + 1 stages
    with RK4 and N + 1 with Euler at any cadence.  Each recorded point's
    monitors are logged at DEBUG level.

    The run starts, as :func:`step` does, from rho0 made exactly Hermitian
    (:func:`~thermoqme.master_equation._exactly_hermitian`), once validated
    to ``START_STATE_TOL``.  The point at t = 0 observes rho0 as given (at
    n = 2, its diagonal and entry (1, 0)), so its monitors show the input's
    own trace and, above n = 2, hermiticity errors.

    Terminates early with a monitor violation note when a tolerance is
    breached; the offending point is kept so the pathology is visible in the
    output.  A finite bath drained of its energy within a step also ends the
    run as a violation, with the points recorded before that step, and so
    does a state gone non-finite where LAPACK (above n = 2) fails on it
    before a monitor sees it; either note names the time at the end of the
    step that failed.
    """
    given = _as_state(validate_density_matrix(rho0, herm_tol=START_STATE_TOL, trace_tol=START_STATE_TOL), system)
    # the stages start from rho0 made exactly Hermitian; the t = 0 point observes it as given
    rho = _exactly_hermitian(given)
    stage = _bind(bath0, system, nonlinear)
    two_level = system.dim == 2
    advance = _two_level_advance if two_level else _array_advance
    # (r00, r11, x, y, H_e) as floats at n = 2, (rho, H_e) above: the
    # arguments of the dimension's stage and advance
    state = (*_two_level_entries(rho), bath0.H_e) if two_level else (rho, bath0.H_e)
    points: list[TrajectoryPoint] = []
    energy_ref = None
    debug = log.isEnabledFor(logging.DEBUG)
    dt, method, every, n, tol = config.dt, config.method, config.monitor_every, config.n_steps, config.tolerances
    k = steps = 0  # the step of the next recorded point, and the length of the interval that ends there
    while True:
        t = k * dt
        try:
            if steps:
                state = advance(*state, stage, dt, method, rates, steps)
            # a finite bath drained by the interval's last step raises here, where T(H_e) is read
            rates = stage(*state)
            w = None  # above n = 2, the stage's spectrum of the observed rho, if it made one
            if not steps:  # t = 0 observes rho0 as given
                rho = _two_level_matrix(*_two_level_entries(given)) if two_level else given
            elif two_level:
                rho = _two_level_matrix(*state[:4])
            else:
                rho, w = state[0], rates[1]
            point, violation = _observe(t, rho, state[-1], bath0, system, energy_ref, tol, rates[-1], w, steps > 0)
        except (_BathDrained, np.linalg.LinAlgError) as exc:
            # the step that failed: the advance counts the steps before it;
            # past the advance, it is the interval's last
            t = (k - steps + getattr(exc, "steps_done", steps - 1) + 1) * dt
            if isinstance(exc, _BathDrained):
                violation = f"{exc} in the step to t={t:.6g}"
            else:
                # LAPACK fails on a non-finite state before any monitor can see it
                violation = f"state went non-finite: eigendecomposition failed ({exc}) by t={t:.6g}"
            return Trajectory(tuple(points), config, MONITOR_VIOLATION, violation)
        points.append(point)
        if debug:
            log.debug(
                "%s t=%.6g %s",
                "nonlinear" if nonlinear else "linearized",
                t,
                " ".join(f"{key}={value:.6e}" for key, value in point.monitors.items()),
            )
        if violation is not None:
            return Trajectory(tuple(points), config, MONITOR_VIOLATION, violation)
        if k == n:
            return Trajectory(tuple(points), config, COMPLETED)
        if energy_ref is None:
            energy_ref = point.monitors["total_energy"]
        steps = min(every, n - k)
        k += steps
