"""Classical environment models.

A heat bath characterized by its energy alone: either an infinite reservoir
at fixed temperature, or a finite bath with constant heat capacity whose
temperature follows its energy.  The bath's dissipative bracket yields the
friction and diffusion rates of every bath-coupled channel, and the energy
exchange with the quantum subsystem closes the coupled dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .operators import NATURAL, PhysicalConstants, _require_finite
from .master_equation import QuantumSystem, _as_state, _bath_temperature, _bind_rates, _rates

__all__ = [
    "HeatBath",
    "EnvironmentObservableReport",
    "environment_rhs",
]


@dataclass(frozen=True)
class HeatBath:
    """Classical heat bath with spontaneous-emission-style coupling.

    ``kind`` is "infinite" (fixed temperature ``T_e``) or "finite" (constant
    heat capacity ``C_e``, entropy C_e ln(H_e/H_ref), hence temperature
    H_e/C_e).  ``gamma0`` is the emission rate and ``omega_ref`` the angular
    frequency entering the bracket; together they set the channel rates.

    ``H_e`` is the bath energy.  For a finite bath it is the thermodynamic
    state variable and must stay positive; for an infinite bath it is a
    bookkeeping accumulator of the heat received (starting at 0 by default),
    which keeps total-energy and entropy monitors meaningful.

    Instances are immutable snapshots; evolution produces new ones via
    :meth:`with_energy`.
    """

    kind: str
    gamma0: float
    omega_ref: float
    T_e: float | None = None
    C_e: float | None = None
    H_ref: float | None = None
    H_e: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("infinite", "finite"):
            raise ValueError(f"bath kind must be 'infinite' or 'finite', got {self.kind!r}")
        finite = self.kind == "finite"
        _require_finite(self, ("omega_ref", *(("C_e", "H_ref") if finite else ("T_e",))), ("gamma0",))
        if finite:
            self._temperature_at(self.H_e)
        elif not math.isfinite(self.H_e):  # the accumulator may be negative, so not _require_finite
            raise ValueError(f"H_e must be finite, got {self.H_e}")

    @classmethod
    def infinite(cls, T_e: float, gamma0: float, omega_ref: float, H_e: float = 0.0) -> "HeatBath":
        return cls(kind="infinite", gamma0=gamma0, omega_ref=omega_ref, T_e=T_e, H_e=H_e)

    @classmethod
    def finite(
        cls,
        C_e: float,
        H_e: float,
        gamma0: float,
        omega_ref: float,
        H_ref: float | None = None,
    ) -> "HeatBath":
        # Default reference energy is the initial energy, so entropy starts at 0.
        return cls(
            kind="finite",
            gamma0=gamma0,
            omega_ref=omega_ref,
            C_e=C_e,
            H_ref=H_e if H_ref is None else H_ref,
            H_e=H_e,
        )

    def temperature(self) -> float:
        """Instantaneous bath temperature; H_e/C_e for the finite bath."""
        return self._temperature_at(self.H_e)

    def _temperature_at(self, H_e: float) -> float:
        """Temperature at bath energy ``H_e``; raises for a finite bath whose
        energy is not positive (drained) or not finite (a state gone non-finite)."""
        if self.kind == "infinite":
            return float(self.T_e)
        return _bath_temperature(H_e, self.C_e)

    def entropy(self) -> float:
        """Bath entropy relative to its reference point.

        Finite bath: C_e ln(H_e/H_ref).  Infinite bath: H_e/T_e, the heat
        received divided by the fixed temperature.
        """
        return self._entropy_at(self.H_e)

    def _entropy_at(self, H_e: float) -> float:
        """Entropy at bath energy ``H_e``, as :meth:`entropy` defines it."""
        if self.kind == "infinite":
            return H_e / self.T_e
        return self.C_e * math.log(H_e / self.H_ref)

    def with_energy(self, H_e: float) -> "HeatBath":
        """New snapshot with updated energy (validates positivity for finite baths)."""
        return replace(self, H_e=H_e)

    def channel_rates(self, constants: PhysicalConstants = NATURAL) -> tuple[float, float]:
        """(friction_rate, diffusion_rate) from the bath bracket at the current state.

        friction = gamma0 k_B / (hbar omega_ref),
        diffusion = gamma0 k_B T / (hbar omega_ref) = T * friction,
        so the bath-equilibrium condition holds identically at the bath's own
        temperature.  Both rates are nonnegative; for a finite bath the
        diffusion rate moves with the temperature as energy is exchanged,
        while the friction rate does not depend on the bath's state.
        """
        f = self._friction_rate(constants)
        return f, f * self.temperature()

    def _friction_rate(self, constants: PhysicalConstants) -> float:
        return self.gamma0 * constants.kB / (constants.hbar * self.omega_ref)


@dataclass(frozen=True)
class EnvironmentObservableReport:
    """Snapshot of the bath observables along a trajectory."""

    H_e: float
    T_e: float
    S_e: float
    energy_flux_to_quantum: float


def _bind(bath: HeatBath, system: QuantumSystem, nonlinear: bool):
    """The RK4 advance (rho, H_e, ...) -> (rho, H_e, stage) of one run at
    every n, ``stage`` the coupled stage at the returned state, the state's
    rate and, last, dH_e/dt: the closure of :func:`~thermoqme.master_equation._bind_rates`
    for the rates of the bath bracket (:func:`~thermoqme.master_equation._rates`).

    Every friction rate is constant, and the diffusion rates are a fixed
    part plus T(H_e) times a bath part.  For an infinite bath the two are
    folded together here, once.  A finite bath hands the stage its heat
    capacity: each stage reads T = H_e/C_e at its own H_e, inline at
    n = 2, with the check and messages of :meth:`HeatBath._temperature_at`,
    and raises :class:`_BathDrained` there when the energy is not positive
    or not finite."""
    friction, diffusion, per_T = _rates(system, bath._friction_rate(system.constants))
    if bath.kind == "finite":
        return _bind_rates(system, nonlinear, friction, diffusion, per_T, bath.C_e)
    if per_T is not None:
        T = bath.temperature()
        diffusion = [a + T * x for a, x in zip(diffusion, per_T)]
    return _bind_rates(system, nonlinear, friction, diffusion)


def environment_rhs(bath: HeatBath, rho, system: QuantumSystem) -> float:
    """Rate of change of the bath energy, dH_e/dt.

    The subsystem and the bath only exchange energy, so this is the closure
    identity dH_e/dt = -Re tr(H drho/dt), with the nonlinear drho/dt at the
    bath's current rates.  Expanded, the reversible part drops out and
    what remains are the exchange terms

        - (1/k_B) sum_j friction_j * <<[H, Q_j]; [H, Q_j]>>
        +         sum_j diffusion_j * <[Q_j, [Q_j, H]]>

    with the canonical correlation and the plain average.

    Each call binds the bath's rates afresh (:func:`_bind`), which at
    n = 2 builds the Bloch map with a few numpy calls (about 5
    microseconds on a 2-core Xeon), whereas a run
    (:func:`~thermoqme.integrator.simulate`) binds its stage once.
    """
    return _bind(bath, system, True)(_as_state(rho, system), bath.H_e)[2][-1]
