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

import numpy as np

from .operators import NATURAL, PhysicalConstants
from .master_equation import QuantumSystem, _as_state, _kernel_rates, _stage_rhs

__all__ = [
    "HeatBath",
    "EnvironmentObservableReport",
    "environment_rhs",
]


class _BathDrained(ValueError):
    """A finite bath's energy reached zero or below."""


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
        if self.gamma0 < 0.0:
            raise ValueError("gamma0 must be nonnegative")
        if self.omega_ref <= 0.0:
            raise ValueError("omega_ref must be positive")
        if self.kind == "infinite":
            if self.T_e is None or self.T_e <= 0.0:
                raise ValueError("infinite bath requires a positive temperature T_e")
        else:
            if self.C_e is None or self.C_e <= 0.0:
                raise ValueError("finite bath requires a positive heat capacity C_e")
            if self.H_ref is None or self.H_ref <= 0.0:
                raise ValueError("finite bath requires a positive reference energy H_ref")
            if not self.H_e > 0.0:
                raise _BathDrained(f"finite bath energy must stay positive, got H_e={self.H_e:.6g}")

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
        """Temperature at bath energy ``H_e``; raises for a drained finite bath."""
        if self.kind == "infinite":
            return float(self.T_e)
        if not H_e > 0.0:
            raise _BathDrained(f"finite bath energy must stay positive, got H_e={H_e:.6g}")
        return H_e / self.C_e

    def entropy(self) -> float:
        """Bath entropy relative to its reference point.

        Finite bath: C_e ln(H_e/H_ref).  Infinite bath: H_e/T_e, the heat
        received divided by the fixed temperature.
        """
        if self.kind == "infinite":
            return self.H_e / self.T_e
        return self.C_e * math.log(self.H_e / self.H_ref)

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


def _step_rates(bath: HeatBath, system: QuantumSystem):
    """Kernel rates of every channel, built once per step.

    Returns (friction/k_B, diffusion at zero temperature, diffusion per unit
    temperature) as (k, 1, 1) arrays, with None for the first when every
    friction rate is zero; see :func:`_stage_rates`.  A
    bath-coupled channel's friction is ``weight`` times the bath bracket,
    which does not depend on the bath energy, and its diffusion is that
    friction times the bath temperature.  A fixed channel keeps its rates.
    """
    coupled = system._coupled
    f_bath = system._weight * bath._friction_rate(system.constants)
    friction, d_fixed = _kernel_rates(
        np.where(coupled, f_bath, system._friction),
        np.where(coupled, 0.0, system._diffusion),
        system.constants,
    )
    return friction, d_fixed, np.where(coupled, f_bath, 0.0)[:, None, None]


def _stage_rates(rates, bath: HeatBath, H_e: float):
    """(friction/k_B, diffusion) kernel arrays at bath energy ``H_e``.

    Only the diffusion of bath-coupled channels follows the temperature of
    that energy, which is what makes the coefficients time dependent when
    the bath is finite.  Raises for a finite bath whose energy is not
    positive.
    """
    friction, d_fixed, d_per_T = rates
    return friction, d_fixed + bath._temperature_at(H_e) * d_per_T


def _joint_rhs(rho, H_e: float, bath: HeatBath, system: QuantumSystem, rates, nonlinear: bool):
    """(drho/dt, dH_e/dt) at one stage of the coupled system.

    ``rates`` come from :func:`_step_rates`.  The subsystem and the bath
    only exchange energy, so the bath's rate is the closure identity
    dH_e/dt = -Re tr(H drho/dt), taken from this very drho/dt in either
    variant.
    """
    k = _stage_rhs(rho, system, *_stage_rates(rates, bath, H_e), nonlinear)
    return k, -float(np.vdot(system.H, k).real)


def environment_rhs(bath: HeatBath, rho, system: QuantumSystem) -> float:
    """Rate of change of the bath energy, dH_e/dt.

    The subsystem and the bath only exchange energy, so this is the closure
    identity dH_e/dt = -Re tr(H drho/dt), with the nonlinear drho/dt at the
    bath's current rates.  Expanded, the reversible part drops out and
    what remains are the exchange terms

        - (1/k_B) sum_j friction_j * <<[H, Q_j]; [H, Q_j]>>
        +         sum_j diffusion_j * <[Q_j, [Q_j, H]]>

    with the canonical correlation and the plain average.
    """
    return _joint_rhs(_as_state(rho, system), bath.H_e, bath, system, _step_rates(bath, system), True)[1]
