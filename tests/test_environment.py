import math

import numpy as np
import pytest

from thermoqme import (
    CouplingChannel,
    HeatBath,
    PhysicalConstants,
    QuantumSystem,
    TwoLevelParams,
    anticommutator,
    check_bath_equilibrium,
    commutator,
    energy_expectation,
    environment_rhs,
    equilibrium_state,
    master_rhs,
    modified_operator,
    two_level_bath,
    two_level_system,
)
from thermoqme.environment import _joint_rhs, _stage_rates, _step_rates
from thermoqme.two_level import SIGMA

from conftest import random_density, random_hermitian

S1, S2, S3 = SIGMA
I2 = np.eye(2, dtype=complex)


def test_temperature():
    assert HeatBath.infinite(T_e=2.0, gamma0=1.0, omega_ref=1.0).temperature() == 2.0
    assert HeatBath.finite(C_e=10.0, H_e=5.0, gamma0=1.0, omega_ref=1.0).temperature() == 0.5
    assert HeatBath.finite(C_e=1.0, H_e=1.0, gamma0=1.0, omega_ref=1.0).temperature() == 1.0


def test_finite_bath_requires_positive_energy():
    bath = HeatBath.finite(C_e=1.0, H_e=1.0, gamma0=1.0, omega_ref=1.0)
    with pytest.raises(ValueError, match="positive"):
        bath.with_energy(0.0)
    with pytest.raises(ValueError, match="positive"):
        HeatBath.finite(C_e=1.0, H_e=-2.0, gamma0=1.0, omega_ref=1.0)


def test_bath_validation():
    with pytest.raises(ValueError, match="T_e"):
        HeatBath(kind="infinite", gamma0=1.0, omega_ref=1.0)
    with pytest.raises(ValueError, match="kind"):
        HeatBath(kind="warm", gamma0=1.0, omega_ref=1.0, T_e=1.0)
    with pytest.raises(ValueError, match="gamma0"):
        HeatBath.infinite(T_e=1.0, gamma0=-0.5, omega_ref=1.0)


def test_channel_rates():
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    assert bath.channel_rates() == (1.0, 1.0)
    bath0 = HeatBath.infinite(T_e=1.0, gamma0=0.0, omega_ref=1.0)
    assert bath0.channel_rates() == (0.0, 0.0)
    bath2 = HeatBath.infinite(T_e=2.0, gamma0=1.0, omega_ref=1.0)
    f, d = bath2.channel_rates()
    assert (f, d) == (1.0, 2.0)
    assert check_bath_equilibrium(CouplingChannel(S1, f, d), 2.0)


def test_bracket_rates_always_satisfy_equilibrium_condition(rng):
    for _ in range(10):
        t = rng.uniform(0.05, 10.0)
        bath = HeatBath.infinite(T_e=t, gamma0=rng.uniform(0.0, 3.0), omega_ref=rng.uniform(0.2, 5.0))
        f, d = bath.channel_rates()
        assert check_bath_equilibrium(CouplingChannel(S1, f, d), bath.temperature(), tol=1e-12)
        assert f >= 0.0 and d >= 0.0


def test_finite_bath_rates_track_energy():
    bath = HeatBath.finite(C_e=10.0, H_e=5.0, gamma0=1.0, omega_ref=1.0)
    rates = [bath.with_energy(h).channel_rates() for h in (2.0, 5.0, 9.0)]
    frictions = [r[0] for r in rates]
    diffusions = [r[1] for r in rates]
    assert frictions[0] == frictions[1] == frictions[2]
    assert diffusions[0] < diffusions[1] < diffusions[2]


def test_entropy():
    finite = HeatBath.finite(C_e=10.0, H_e=5.0, gamma0=1.0, omega_ref=1.0, H_ref=2.0)
    assert abs(finite.entropy() - 10.0 * math.log(2.5)) < 1e-14
    # default reference is the initial energy
    assert HeatBath.finite(C_e=3.0, H_e=7.0, gamma0=1.0, omega_ref=1.0).entropy() == 0.0
    infinite = HeatBath.infinite(T_e=2.0, gamma0=1.0, omega_ref=1.0, H_e=3.0)
    assert infinite.entropy() == 1.5


def test_environment_rhs_vanishes_at_equilibrium():
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.5)
    sys_ = two_level_system(p)
    rho_eq = equilibrium_state(sys_.H, p.T_e)
    assert abs(environment_rhs(two_level_bath(p), rho_eq, sys_)) < 1e-10


def test_environment_rhs_decoupled():
    p = TwoLevelParams(omega=1.0, gamma0=0.0, T_e=0.5)
    bath = two_level_bath(p)
    sys_ = two_level_system(p)
    assert environment_rhs(bath, I2 / 2, sys_) == 0.0


def test_environment_rhs_sign_at_maximally_mixed():
    # From the uniform state the subsystem relaxes toward negative energy,
    # so the bath absorbs: dH_e/dt = +gamma0*hbar*omega/2.  The diffusive
    # average <[Q,[Q,H]]> vanishes there, the correlation term pays it all.
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.5)
    sys_ = two_level_system(p)
    flux = environment_rhs(two_level_bath(p), I2 / 2, sys_)
    assert abs(flux - 0.5) < 1e-13
    assert flux > 0.0


def test_exchange_balance(rng):
    # dH_e/dt + d<H>/dt = 0 at every state, not just at equilibrium
    for dim in (2, 3, 5):
        h = random_hermitian(rng, dim)
        channels = tuple(
            CouplingChannel(random_hermitian(rng, dim), friction_rate=0.4, diffusion_rate=0.9)
            for _ in range(2)
        )
        sys_ = QuantumSystem(h, channels)
        bath = HeatBath.infinite(T_e=1.0, gamma0=0.7, omega_ref=1.2)
        for _ in range(5):
            rho = random_density(rng, dim)
            flux = environment_rhs(bath, rho, sys_)
            d_energy = energy_expectation(master_rhs(rho, sys_), h)
            assert abs(flux + d_energy) < 1e-11


def test_exchange_balance_with_bath_coupled_channels(rng):
    # the bath sits at the channels' stored temperature, so master_rhs uses the bath's rates
    p = TwoLevelParams(omega=1.0, gamma0=0.8, T_e=0.7)
    sys_ = two_level_system(p)
    bath = HeatBath.finite(C_e=5.0, H_e=3.5, gamma0=0.8, omega_ref=1.0)
    rho = random_density(rng, 2)
    flux = environment_rhs(bath, rho, sys_)
    d_energy = energy_expectation(master_rhs(rho, sys_), sys_.H)
    assert abs(flux + d_energy) < 1e-12


def _rates_at(bath, system, H_e):
    """(friction, diffusion) lists at bath energy ``H_e``, as one stage gets them (k_B = 1)."""
    friction, diffusion = _stage_rates(_step_rates(bath, system), bath, H_e)
    return friction.ravel().tolist(), diffusion.ravel().tolist()


def test_bath_rate_rule():
    fixed = CouplingChannel(S1, friction_rate=0.11, diffusion_rate=0.22)
    coupled = CouplingChannel(S2, bath_coupled=True, weight=0.5)
    sys_ = QuantumSystem(0.5 * S3, (fixed, coupled))
    bath = HeatBath.infinite(T_e=2.0, gamma0=1.0, omega_ref=1.0)
    friction, diffusion = _rates_at(bath, sys_, bath.H_e)
    assert list(friction) == [0.11, 0.5 * 1.0]
    assert list(diffusion) == [0.22, 0.5 * 2.0]
    # a finite bath's rates follow the energy passed in, not the snapshot's
    finite = HeatBath.finite(C_e=4.0, H_e=4.0, gamma0=1.0, omega_ref=1.0)
    friction, diffusion = _rates_at(finite, sys_, 6.0)
    assert list(friction) == [0.11, 0.5]
    assert list(diffusion) == [0.22, 0.5 * 1.5]
    with pytest.raises(ValueError, match="positive"):
        _rates_at(finite, sys_, 0.0)
    # no bath-coupled channels: the stored rates are used as they are
    sys_fixed = QuantumSystem(0.5 * S3, (fixed,))
    assert _rates_at(bath, sys_fixed, bath.H_e) == ([0.11], [0.22])


def _materialized(system, bath, H_e):
    """The system with every bath-coupled channel's rates written out by hand."""
    f, d = bath.with_energy(H_e).channel_rates(system.constants)
    return QuantumSystem(
        system.H,
        tuple(
            CouplingChannel(ch.Q, ch.weight * f, ch.weight * d) if ch.bath_coupled else ch
            for ch in system.channels
        ),
        system.constants,
    )


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_stage_bath_rate_closes_energy(rng, dim, nonlinear):
    # dH_e/dt + Re tr(H k) = 0 for the stage's own k, fixed and bath-coupled
    # channels together, a finite bath at energies away from its snapshot
    h = random_hermitian(rng, dim)
    channels = (
        CouplingChannel(random_hermitian(rng, dim), friction_rate=0.4, diffusion_rate=0.9),
        CouplingChannel(random_hermitian(rng, dim), bath_coupled=True),
        CouplingChannel(random_hermitian(rng, dim), bath_coupled=True, weight=0.3),
    )
    sys_ = QuantumSystem(h, channels)
    bath = HeatBath.finite(C_e=2.0, H_e=3.0, gamma0=0.7, omega_ref=1.2)
    for H_e in (3.0, 1.1, 7.5):
        rho = random_density(rng, dim)
        k, e = _joint_rhs(rho, H_e, bath, sys_, _step_rates(bath, sys_), nonlinear)
        reference = master_rhs(rho, _materialized(sys_, bath, H_e), nonlinear)
        assert np.max(np.abs(k - reference)) < 1e-13
        assert abs(e + np.real(np.trace(h @ reference))) < 1e-12
        if nonlinear:
            assert abs(e - environment_rhs(bath.with_energy(H_e), rho, sys_)) < 1e-14


def _channel_loop_rhs(rho, system, rates, nonlinear):
    """drho/dt summed channel by channel from the public commutator and
    modified_operator, with the (friction, diffusion) rates given per channel."""
    kB = system.constants.kB
    out = (1j / system.constants.hbar) * commutator(rho, system.H)
    for ch, (friction, diffusion) in zip(system.channels, rates):
        c = commutator(ch.Q, system.H)
        m = modified_operator(rho, c) if nonlinear else 0.5 * anticommutator(c, rho)
        out = out - (friction / kB) * commutator(ch.Q, m)
        out = out - diffusion * commutator(ch.Q, commutator(ch.Q, rho))
    return out


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_stage_kernel_matches_channel_loop(rng, dim, nonlinear):
    # master_rhs (stored rates) and one coupled stage (bath rates at H_e)
    # against a plain per-channel sum, with fixed, bath-coupled and weighted
    # bath-coupled channels side by side, in units with hbar, k_B != 1
    constants = PhysicalConstants(hbar=0.8, kB=1.3)

    def unit(a):
        return a / np.linalg.norm(a, 2)

    channels = (
        CouplingChannel(unit(random_hermitian(rng, dim)), friction_rate=0.4, diffusion_rate=0.9),
        CouplingChannel(unit(random_hermitian(rng, dim)), diffusion_rate=0.25),
        CouplingChannel(unit(random_hermitian(rng, dim)), 0.3, 0.5, bath_coupled=True),
        CouplingChannel(unit(random_hermitian(rng, dim)), 0.1, 0.2, bath_coupled=True, weight=0.35),
    )
    sys_ = QuantumSystem(unit(random_hermitian(rng, dim)), channels, constants)
    rho = random_density(rng, dim)
    stored = [(ch.friction_rate, ch.diffusion_rate) for ch in channels]
    reference = _channel_loop_rhs(rho, sys_, stored, nonlinear)
    assert np.max(np.abs(master_rhs(rho, sys_, nonlinear) - reference)) < 1e-13

    infinite = HeatBath.infinite(T_e=0.9, gamma0=0.7, omega_ref=1.2)
    finite = HeatBath.finite(C_e=2.0, H_e=3.0, gamma0=0.7, omega_ref=1.2)
    f = 0.7 * constants.kB / (constants.hbar * 1.2)
    for bath, H_e, T in [(infinite, 0.0, 0.9), (infinite, 4.0, 0.9)] + [
        (finite, H_e, H_e / 2.0) for H_e in (3.0, 1.1, 7.5)
    ]:
        rates = [
            (ch.weight * f, ch.weight * f * T) if ch.bath_coupled else (ch.friction_rate, ch.diffusion_rate)
            for ch in channels
        ]
        reference = _channel_loop_rhs(rho, sys_, rates, nonlinear)
        k, e = _joint_rhs(rho, H_e, bath, sys_, _step_rates(bath, sys_), nonlinear)
        assert np.max(np.abs(k - reference)) < 1e-13
        assert abs(e + np.real(np.trace(sys_.H @ reference))) < 1e-13
