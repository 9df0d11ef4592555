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

from dataclasses import dataclass, field

import numpy as np

from .operators import _spectrum_entropy, validate_density_matrix
from .master_equation import QuantumSystem, energy_expectation
from .environment import EnvironmentObservableReport, HeatBath, _BathDrained, _joint_rhs, _step_rates

__all__ = [
    "MonitorTolerances",
    "IntegratorConfig",
    "TrajectoryPoint",
    "Trajectory",
    "step",
    "simulate",
]

COMPLETED = "completed"
MONITOR_VIOLATION = "monitor_violation"


@dataclass(frozen=True)
class MonitorTolerances:
    trace: float = 1e-9
    hermiticity: float = 1e-9
    positivity: float = 1e-9
    energy: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("trace", "hermiticity", "positivity", "energy"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"tolerance {name!r} must be positive")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    method: str = "rk4"
    monitor_every: int = 10
    tolerances: MonitorTolerances = field(default_factory=MonitorTolerances)

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end <= self.dt:
            raise ValueError("t_end must exceed dt")
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

    The channel rates are built once per step; every internal stage only
    scales the bath-coupled diffusion rates to the temperature at that
    stage's bath energy, and sets dH_e/dt = -Re tr(H drho/dt) from the
    stage's own drho/dt.  The total tr(H rho) + H_e of a closed finite-bath
    system is therefore conserved to rounding in both variants.  The returned
    density matrix is re-Hermitized by conjugate transpose averaging (a
    correction at the 1e-16 scale per step), which leaves tr(H rho) as it is.

    A finite bath whose energy is not positive at any stage or at the end of
    the step raises ValueError.
    """
    rho = np.asarray(rho, dtype=complex)
    h = bath.H_e
    rates = _step_rates(bath, system)
    if method == "rk4":
        k1, e1 = _joint_rhs(rho, h, bath, system, rates, nonlinear)
        k2, e2 = _joint_rhs(rho + (0.5 * dt) * k1, h + 0.5 * dt * e1, bath, system, rates, nonlinear)
        k3, e3 = _joint_rhs(rho + (0.5 * dt) * k2, h + 0.5 * dt * e2, bath, system, rates, nonlinear)
        k4, e4 = _joint_rhs(rho + dt * k3, h + dt * e3, bath, system, rates, nonlinear)
        rho_new = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        he_new = h + (dt / 6.0) * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
    elif method == "euler":
        k1, e1 = _joint_rhs(rho, h, bath, system, rates, nonlinear)
        rho_new = rho + dt * k1
        he_new = h + dt * e1
    else:
        raise ValueError(f"unknown method {method!r}")
    rho_new = 0.5 * (rho_new + rho_new.conj().T)
    return rho_new, bath.with_energy(he_new)


def _observe(t, rho, bath, system, nonlinear, energy_ref, tolerances):
    """Build a trajectory point and return (point, violation detail or None)."""
    trace_err = abs(complex(np.trace(rho)) - 1.0)
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    spectrum = np.linalg.eigvalsh(rho)
    min_eig = float(spectrum[0])
    flux_to_quantum = -_joint_rhs(rho, bath.H_e, bath, system, _step_rates(bath, system), nonlinear)[1]
    env = EnvironmentObservableReport(
        H_e=bath.H_e,
        T_e=bath.temperature(),
        S_e=bath.entropy(),
        energy_flux_to_quantum=flux_to_quantum,
    )
    # tr(H rho) + H_e: the exact total for a finite bath, and the
    # exchange-consistent bookkeeping total for an infinite one.
    total_energy = energy_expectation(rho, system.H) + bath.H_e
    total_entropy = env.S_e + _spectrum_entropy(spectrum, system.constants)
    monitors = {
        "trace_err": float(trace_err),
        "herm_err": herm_err,
        "min_eig": min_eig,
        "total_energy": total_energy,
        "total_entropy": total_entropy,
    }
    point = TrajectoryPoint(t=t, rho=rho.copy(), env=env, monitors=monitors)

    violation = None
    if trace_err > tolerances.trace:
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

    Terminates early with a monitor violation note when a tolerance is
    breached; the offending point is kept so the pathology is visible in the
    output.  A finite bath drained of its energy within a step also ends the
    run as a violation, with the points recorded before that step.
    """
    rho = validate_density_matrix(rho0, herm_tol=1e-10, trace_tol=1e-10)
    points: list[TrajectoryPoint] = []

    point, violation = _observe(0.0, rho, bath0, system, nonlinear, None, config.tolerances)
    points.append(point)
    if violation is not None:
        return Trajectory(tuple(points), config, MONITOR_VIOLATION, violation)
    energy_ref = point.monitors["total_energy"]

    bath = bath0
    n = config.n_steps
    for k in range(1, n + 1):
        t = k * config.dt
        try:
            rho, bath = step(rho, bath, system, config.dt, config.method, nonlinear)
        except _BathDrained as exc:
            violation = f"{exc} in the step to t={t:.6g}"
            return Trajectory(tuple(points), config, MONITOR_VIOLATION, violation)
        if k % config.monitor_every == 0 or k == n:
            point, violation = _observe(t, rho, bath, system, nonlinear, energy_ref, config.tolerances)
            points.append(point)
            if violation is not None:
                return Trajectory(tuple(points), config, MONITOR_VIOLATION, violation)
    return Trajectory(tuple(points), config, COMPLETED)
