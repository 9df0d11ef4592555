"""Fixed-step time integration of the coupled quantum-bath system.

Steps the density matrix and the bath energy jointly through the one RK4
advance, which ``master_equation`` binds and which takes and returns rho
at every n.  Every internal stage evaluates the bath-coupled diffusion
rates at that stage's bath energy and takes the bath's energy rate from
the closure identity.  Structure monitors (trace, hermiticity, positivity,
total energy for closed totals) are sampled on a configurable cadence; a
breach, or a finite bath drained of its energy, terminates the run with a
flagged violation rather than a silent repair or a traceback.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    _shown,
    _spectrum_entropy,
    _two_level_spectrum,
    validate_density_matrix,
)
from .master_equation import QuantumSystem, _as_state, _BathDrained, _exactly_hermitian
from .environment import EnvironmentObservableReport, HeatBath, _bind

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
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"the step count t_end / dt = {self.t_end} / {self.dt} is not finite")
        # n_steps fixed steps end at n_steps * dt, so that must be t_end
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end = {self.t_end} is not a whole number of dt = {self.dt} steps "
                f"(the nearest step ends at t = {self.n_steps * self.dt:g})"
            )
        if self.method != "rk4":
            raise ValueError(f"method must be 'rk4', got {_shown(self.method)}")
        # an int, not a bool, as config._integer requires of JSON: a float,
        # even 2.0, would fail later in range(steps)
        every = self.monitor_every
        if isinstance(every, bool) or not isinstance(every, int) or every < 1:
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
    *,
    nonlinear: bool = True,
) -> tuple[np.ndarray, HeatBath]:
    """One RK4 step of the joint (rho, H_e) system.

    The run's rates are bound once (:func:`~thermoqme.environment._bind`);
    every internal stage takes the bath-coupled diffusion at that stage's
    bath energy and dH_e/dt = -Re tr(H drho/dt) from the stage's own
    drho/dt, so the total tr(H rho) + H_e of a closed finite-bath system is
    conserved to rounding in both variants.  The step starts from rho made
    exactly Hermitian (:func:`~thermoqme.master_equation._exactly_hermitian`),
    as :func:`simulate` starts, and the returned rho is exactly Hermitian.

    A finite bath whose energy is not positive at any stage or at the end of
    the step raises ValueError, and so does an infinite bath whose ``H_e``
    ends the step non-finite.  The step is one call of the run's advance
    (:func:`~thermoqme.master_equation._bind_rates`) over one step, which
    takes and returns rho at every n: 5 stages, the end stage discarded.
    """
    rho, h, _ = _bind(bath, system, nonlinear)(_exactly_hermitian(_as_state(rho, system)), bath.H_e, dt, None, 1)
    return rho, bath.with_energy(h)


def _observe(t, rho, h, bath, system, energy_ref, tolerances, flux, w=None):
    """Build a trajectory point and return (point, violation detail or None)
    for the state ``rho`` and bath energy ``h``; ``bath`` is the run's bath,
    read at ``h`` for the temperature and entropy, and ``flux`` is dH_e/dt
    of the run's stage at (rho, h), the negative of the point's energy flux
    into the quantum system.

    The dimension selects how the monitors are computed.  Above n = 2, with
    numpy: the ascending spectrum gives min_eig and the entropy; it is
    ``w``, the second item of that stage's value (read only above n = 2),
    from its eigh of this very rho, or, where ``w`` is None, one eigvalsh of
    rho.  tr(H rho) is the n^2 inner product sum_ij conj(H_ij) rho_ij, which
    is tr(H rho) for the exactly Hermitian H that :class:`QuantumSystem`
    stores.  At every n herm_err is max|rho_ij - conj(rho_ji)|: 0.0 on an
    exactly Hermitian rho, as every point :func:`simulate` records after
    t = 0 is, and NaN if an entry is not finite; trace_err is |tr rho - 1|
    in complex arithmetic.  At n = 2 these two read all four entries as
    Python complex numbers, and the rest rho's four reals as floats:
    min_eig is the unclipped smaller eigenvalue det(rho)/l1 of one
    :func:`~thermoqme.operators._two_level_spectrum` call, which keeps its
    relative precision near a pure state; the entropy is that spectrum's;
    and tr(H rho) comes from H's four reals."""
    if rho.shape[0] == 2:
        (a00, a01), (a10, a11) = rho.tolist()
        r00, r11, x, y = a00.real, a11.real, a10.real, a10.imag
        trace_err = abs(a00 + a11 - 1.0)
        errs = (abs(a00 - a00.conjugate()), abs(a11 - a11.conjugate()), abs(a01 - a10.conjugate()))
        herm_err = math.nan if any(map(math.isnan, errs)) else max(errs)
        l1, min_eig, _ = _two_level_spectrum(r00, r11, x, y, math.hypot(2.0 * x, 2.0 * y, r00 - r11))
        spectrum = (min_eig, l1)
        h00, h11, hr, hi = system._h4
        energy = h00 * r00 + h11 * r11 + 2.0 * (hr * x + hi * y)
    else:
        trace_err = abs(complex(np.trace(rho)) - 1.0)
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

    The rates are bound once per run into the advance of
    :func:`~thermoqme.master_equation._bind_rates`, which takes and returns
    (rho, H_e) as in :func:`step`, in between in its own form (at n = 2 as
    Python floats): one call per recorded point covers its whole sampled
    interval, min(monitor_every, n_steps - k) steps from step k, and the
    call for t = 0 takes none.  The run's bath is read only at recorded points.
    The results are a loop of :func:`step`'s, and every point is
    the same, bit for bit, at any cadence.  Above n = 2 a nonlinear point
    after t = 0 reads its spectrum from the eigh that its stage made, so it
    makes no decomposition of its own.

    The stage at each step's end state is evaluated once, in the advance:
    it is the next step's first stage, and at an interval's end, returned,
    a recorded point's energy flux.  So N steps cost 4N + 1 stages at any
    cadence.  Each recorded point's monitors are logged at DEBUG level.

    The run starts, as :func:`step` does, from rho0 made exactly Hermitian
    (:func:`~thermoqme.master_equation._exactly_hermitian`), once validated
    to ``START_STATE_TOL``.  The point at t = 0 observes and records rho0
    as given, so its monitors show the input's own trace and hermiticity
    errors at every n.  Every point measures herm_err by the same rule
    (:func:`_observe`), so the exactly Hermitian points after t = 0 read 0.0.

    Terminates early with a monitor violation note when a tolerance is
    breached; the offending point is kept so the pathology is visible in the
    output.  A finite bath drained of its energy within a step also ends the
    run as a violation, with the points recorded before that step, and so
    does a state gone non-finite where LAPACK (above n = 2) fails on it
    before a monitor sees it; either note names the time at the end of the
    step that failed.
    """
    given = _as_state(validate_density_matrix(rho0, START_STATE_TOL), system)
    advance = _bind(bath0, system, nonlinear)
    # the stages start from rho0 made exactly Hermitian; the t = 0 point observes it as given
    rho, h, stage = _exactly_hermitian(given), bath0.H_e, None
    points: list[TrajectoryPoint] = []
    energy_ref = None
    debug = log.isEnabledFor(logging.DEBUG)
    dt, every, n, tol = config.dt, config.monitor_every, config.n_steps, config.tolerances
    k = steps = 0  # the step of the next recorded point, and the length of the interval that ends there
    while True:
        t = k * dt
        try:
            rho, h, stage = advance(rho, h, dt, stage, steps)
            # t = 0 observes rho0 as given, and a later point the stage's spectrum, if it made one
            seen, w = (rho, stage[1]) if steps else (given, None)
            point, violation = _observe(t, seen, h, bath0, system, energy_ref, tol, stage[-1], w)
        except (_BathDrained, np.linalg.LinAlgError) as exc:
            # the step that failed: the advance counts the steps before it;
            # _observe's eigvalsh (above n = 2, a linearized point) carries
            # no count and fails at the interval's end, its last step
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
