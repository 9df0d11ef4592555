import math

import numpy as np
import pytest

from thermoqme import (
    CouplingChannel,
    QuantumSystem,
    TwoLevelParams,
    bloch_rhs,
    check_bath_equilibrium,
    energy_expectation,
    equilibrium_state,
    master_rhs,
    nonlinear_part,
    pauli_compose,
    pauli_decompose,
    two_level_system,
)
from thermoqme.master_equation import _lapack_stage, _rate_column, _rates
from thermoqme.operators import PhysicalConstants
from thermoqme.two_level import SIGMA

from conftest import random_density, random_hermitian, stage_rhs

S1, S2, S3 = SIGMA
I2 = np.eye(2, dtype=complex)


def _random_system(rng, dim, temperature, n_channels=2, rate=0.3):
    """Unit-spectral-radius Hamiltonian with channels satisfying the
    bath-equilibrium condition at the given temperature."""
    h = random_hermitian(rng, dim)
    h /= np.linalg.norm(h, 2)
    channels = tuple(
        CouplingChannel(random_hermitian(rng, dim), friction_rate=rate, diffusion_rate=rate * temperature)
        for _ in range(n_channels)
    )
    return QuantumSystem(h, channels)


def test_zero_channels_is_pure_precession(rng):
    h = random_hermitian(rng, 3)
    rho = random_density(rng, 3)
    out = master_rhs(rho, QuantumSystem(h))
    assert np.max(np.abs(out - 1j * (rho @ h - h @ rho))) < 1e-14
    # diagonal rho with diagonal H evolves nowhere
    sys_diag = QuantumSystem(np.diag([1.0, -1.0]).astype(complex))
    assert np.max(np.abs(master_rhs(np.diag([0.7, 0.3]).astype(complex), sys_diag))) == 0.0


def test_rhs_hermitian_and_traceless(rng):
    for dim in (2, 3, 5):
        sys_ = _random_system(rng, dim, temperature=1.0)
        rho = random_density(rng, dim)
        for nonlinear in (True, False):
            out = master_rhs(rho, sys_, nonlinear=nonlinear)
            assert abs(np.trace(out)) < 1e-13
            assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_equilibrium_is_fixed_point(rng):
    for dim in (2, 3, 4, 5):
        for temperature in (0.25, 0.7, 2.0):
            sys_ = _random_system(rng, dim, temperature)
            rho_eq = equilibrium_state(sys_.H, temperature)
            assert np.linalg.norm(master_rhs(rho_eq, sys_)) < 1e-10


def test_linearized_rhs_does_not_vanish_at_equilibrium_when_cold():
    # hbar*omega/(k_B T) = 10: the symmetrized product is a bad stand-in for
    # the state-weighted one and the Gibbs state stops being stationary
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.1)
    sys_ = two_level_system(p)
    rho_eq = equilibrium_state(sys_.H, p.T_e)
    assert np.linalg.norm(master_rhs(rho_eq, sys_, nonlinear=True)) < 1e-10
    assert np.linalg.norm(master_rhs(rho_eq, sys_, nonlinear=False)) > 1e-3


def test_friction_split_consistency(rng):
    # the nonlinear and linearized variants differ exactly by the
    # nonlinear-remainder term of each channel
    for dim in (2, 4):
        sys_ = _random_system(rng, dim, temperature=0.8)
        rho = random_density(rng, dim)
        diff = master_rhs(rho, sys_, nonlinear=True) - master_rhs(rho, sys_, nonlinear=False)
        expected = np.zeros_like(diff)
        for ch in sys_.channels:
            c = ch.Q @ sys_.H - sys_.H @ ch.Q
            half_prime = 0.5 * nonlinear_part(rho, c)
            expected -= ch.friction_rate * (ch.Q @ half_prime - half_prime @ ch.Q)
        assert np.max(np.abs(diff - expected)) < 1e-12


def test_two_level_rhs_matches_bloch_equation(rng):
    p = TwoLevelParams(omega=1.3, gamma0=0.7, T_e=0.6)
    sys_ = two_level_system(p)
    for _ in range(20):
        m = rng.normal(size=3)
        m *= rng.uniform(0.02, 0.98) / np.linalg.norm(m)
        rho = pauli_compose(1.0, m)
        out = master_rhs(rho, sys_)
        dm = pauli_decompose(out, tol=1e-10).a
        assert np.max(np.abs(dm - bloch_rhs(m, p))) < 1e-11


def test_equilibrium_state_two_level_values():
    # hbar*omega/(k_B T) = 1
    h = 0.5 * S3
    rho = equilibrium_state(h, 1.0)
    w = np.sort(np.linalg.eigvalsh(rho))[::-1]
    z = 2.0 * math.cosh(0.5)
    assert np.allclose(w, [math.exp(0.5) / z, math.exp(-0.5) / z], atol=1e-12)
    assert np.allclose(w, [0.7310585786300049, 0.2689414213699951], atol=1e-12)
    m3 = np.trace(rho @ S3).real
    assert abs(m3 - (-math.tanh(0.5))) < 1e-12


def test_equilibrium_state_limits(rng):
    h = 0.5 * S3
    assert np.max(np.abs(equilibrium_state(h, 1e9) - I2 / 2)) < 1e-9
    assert np.allclose(equilibrium_state(np.zeros((3, 3)), 1.0), np.eye(3) / 3, atol=1e-14)
    # no overflow at very low temperature
    cold = equilibrium_state(h, 1.0 / 200.0)
    assert np.all(np.isfinite(cold))
    assert abs(np.trace(cold) - 1.0) < 1e-12
    # full rank at moderate temperatures
    w = np.linalg.eigvalsh(equilibrium_state(random_hermitian(rng, 4), 1.0))
    assert np.all(w > 0.0)


def test_equilibrium_state_rejects_bad_temperature():
    with pytest.raises(ValueError, match="temperature"):
        equilibrium_state(S3, 0.0)
    with pytest.raises(ValueError, match="temperature"):
        equilibrium_state(S3, math.nan)


def test_check_bath_equilibrium():
    # bath-bracket rates satisfy the condition identically
    for gamma0, T, omega in [(1.0, 0.5, 1.0), (0.2, 3.0, 2.5), (5.0, 0.01, 0.3)]:
        f = gamma0 / omega
        ch = CouplingChannel(S1, friction_rate=f, diffusion_rate=f * T)
        assert check_bath_equilibrium(ch, T)
    assert not check_bath_equilibrium(CouplingChannel(S1, 1.0, 2.0), 1.0)
    assert check_bath_equilibrium(CouplingChannel(S1, 0.0, 0.0), 1.0)


def test_energy_expectation():
    h = 0.5 * S3
    assert energy_expectation(I2 / 2, h) == 0.0
    assert abs(energy_expectation(np.diag([1.0, 0.0]).astype(complex), h) - 0.5) < 1e-15
    rho = equilibrium_state(h, 1.0)
    assert abs(energy_expectation(rho, h) - (-0.5 * math.tanh(0.5))) < 1e-12
    assert abs(energy_expectation(rho, h) - (-0.23105857863000487)) < 1e-12


def test_channel_and_system_validation(rng):
    with pytest.raises(ValueError, match="nonnegative"):
        CouplingChannel(S1, friction_rate=-0.1)
    for kwargs in ({"friction_rate": math.nan}, {"diffusion_rate": math.nan}, {"weight": math.nan}):
        with pytest.raises(ValueError, match="nonnegative"):
            CouplingChannel(S1, **kwargs)
    with pytest.raises(ValueError, match="match"):
        QuantumSystem(S3, (CouplingChannel(np.eye(3, dtype=complex)),))
    with pytest.raises(ValueError, match="dimension mismatch"):
        master_rhs(random_density(rng, 3), QuantumSystem(S3))


def test_stage_two_by_two_path_matches_lapack(rng):
    # the stage at n = 2 against the LAPACK stage at n = 2, in both variants;
    # bound fixed before measuring: 1e-14 relative to max(1, max|ref|)
    consts = PhysicalConstants(hbar=0.8, kB=1.3)
    systems = [
        two_level_system(TwoLevelParams(omega=1.3, gamma0=0.8, T_e=0.4)),
        two_level_system(TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.2, isotropic=True, q3_weight=2.0)),
        two_level_system(TwoLevelParams(omega=1.1, gamma0=0.6, T_e=0.3, isotropic=True, constants=consts)),
        # no friction at all, and a weight-0 channel whose rates are exactly 0
        two_level_system(TwoLevelParams(omega=1.0, gamma0=0.0, T_e=0.5)),
        two_level_system(TwoLevelParams(omega=0.9, gamma0=1.0, T_e=0.5, isotropic=True, q3_weight=0.0)),
        _random_system(rng, 2, temperature=0.7, n_channels=3),
        QuantumSystem(random_hermitian(rng, 2), _random_system(rng, 2, 0.7).channels, consts),
    ]
    assert _rates(systems[3])[0] is None and _rates(systems[4])[0][2] == 0.0
    states = [random_density(rng, 2) for _ in range(4)] + [
        I2 / 2,
        pauli_compose(1.0, np.array([0.3, -0.4, 1e-9])),
        pauli_compose(1.0, np.array([0.6, 0.0, 0.8])),
    ]
    for rho in states:
        for system in systems:
            for nonlinear in (True, False):
                out = stage_rhs(rho, system, *_rates(system)[:2], nonlinear)
                ref = _lapack_stage(rho, system, *map(_rate_column, _rates(system)[:2]), nonlinear)
                assert np.max(np.abs(out - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def test_nearly_hermitian_operators_are_stored_hermitian(rng):
    # H and Q off by 5e-13 pass validation; stored as given, the n = 2 stage
    # (which reads entry (1, 0)) and the LAPACK stage (which reads both
    # triangles) would see different operators and differ by about 2e-13.
    # Stored as their Hermitian parts they agree to rounding; bounds fixed
    # before measuring, relative to max(1, max|ref|): 1e-15 with half-Pauli
    # Q, and with random Q the 1e-14 of the exactly Hermitian tests (the two
    # kernels' rounding alone reaches 1.7e-15 there over 30 seeds)
    off = np.array([[0.0, 5e-13], [0.0, 0.0]])
    h = random_hermitian(rng, 2) + off
    pauli = QuantumSystem(
        h, (CouplingChannel(0.5 * S1 - 1j * off, 0.4, 0.3), CouplingChannel(0.5 * S3 + off, 0.2, 0.5))
    )
    rand = QuantumSystem(h, tuple(CouplingChannel(random_hermitian(rng, 2) - 1j * off, 0.4, 0.3) for _ in range(2)))
    for system, bound in ((pauli, 1e-15), (rand, 1e-14)):
        for a in (system.H, *(ch.Q for ch in system.channels)):
            assert np.array_equal(a, a.conj().T)
        states = [random_density(rng, 2) for _ in range(4)] + [pauli_compose(1.0, np.array([0.6, 0.0, 0.8 - 1e-9]))]
        for rho in states:
            for nonlinear in (True, False):
                out = stage_rhs(rho, system, *_rates(system)[:2], nonlinear)
                ref = _lapack_stage(rho, system, *map(_rate_column, _rates(system)[:2]), nonlinear)
                assert np.max(np.abs(out - ref)) <= bound * max(1.0, np.max(np.abs(ref)))
    # exactly Hermitian input is stored bit for bit, entries past half the
    # float maximum (where (A + A^dagger)/2 overflows) included
    exact = random_hermitian(rng, 2)
    assert np.array_equal(QuantumSystem(exact, (CouplingChannel(exact),)).channels[0].Q, exact)
    huge = np.array([[1.5e308, 1e308 - 1e308j, 0.0], [1e308 + 1e308j, 0.0, 0.5], [0.0, 0.5, -1.5e308]])
    assert np.array_equal(QuantumSystem(huge).H, huge)
    assert np.array_equal(CouplingChannel(huge).Q, huge)
