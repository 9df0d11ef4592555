import numpy as np
import pytest

from thermoqme import (
    HeatBath,
    IntegratorConfig,
    MonitorTolerances,
    QuantumSystem,
    TwoLevelParams,
    bloch_equilibrium,
    pauli_compose,
    pauli_decompose,
    simulate,
    step,
    two_level_bath,
    two_level_system,
    von_neumann_entropy,
)
from thermoqme.integrator import COMPLETED, MONITOR_VIOLATION, _observe
from thermoqme.two_level import SIGMA

from conftest import random_density

S1, S2, S3 = SIGMA
I2 = np.eye(2, dtype=complex)


def _finite_bath_setup(gamma0=1.0, omega=1.0, C_e=10.0, H_e0=10.0):
    p = TwoLevelParams(omega=omega, gamma0=gamma0, T_e=H_e0 / C_e)
    system = two_level_system(p)
    bath = HeatBath.finite(C_e=C_e, H_e=H_e0, gamma0=gamma0, omega_ref=omega)
    return system, bath


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        IntegratorConfig(dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError, match="t_end"):
        IntegratorConfig(dt=1.0, t_end=0.5)
    with pytest.raises(ValueError, match="method"):
        IntegratorConfig(dt=0.1, t_end=1.0, method="rk5")
    with pytest.raises(ValueError, match="monitor_every"):
        IntegratorConfig(dt=0.1, t_end=1.0, monitor_every=0)
    with pytest.raises(ValueError, match="positive"):
        MonitorTolerances(trace=0.0)


def test_commuting_initial_state_is_stationary():
    # gamma0 = 0 and [rho0, H] = 0: nothing moves
    p = TwoLevelParams(omega=1.0, gamma0=0.0, T_e=1.0)
    system = two_level_system(p)
    bath = two_level_bath(p)
    rho = np.diag([0.75, 0.25]).astype(complex)
    out = rho
    for _ in range(50):
        out, bath = step(out, bath, system, 0.05)
    assert np.max(np.abs(out - rho)) < 1e-15


def test_unitary_evolution_is_isospectral(rng):
    # RK4 contracts the rotating coherence at O((omega dt)^6) per step, so
    # dt = 0.01 keeps the spectrum fixed to well below 1e-10 over t = 2
    p = TwoLevelParams(omega=1.0, gamma0=0.0, T_e=1.0)
    system = two_level_system(p)
    bath = two_level_bath(p)
    rho = random_density(rng, 2)
    w0 = np.linalg.eigvalsh(rho)
    for _ in range(200):
        rho, bath = step(rho, bath, system, 0.01)
    assert np.max(np.abs(np.linalg.eigvalsh(rho) - w0)) < 1e-10


def test_step_returns_hermitian(rng):
    system, bath = _finite_bath_setup()
    rho, _ = step(random_density(rng, 2), bath, system, 1e-3)
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0


def test_rk4_order_via_richardson():
    # relaxation scenario, measured against a dt/8 reference
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.5)
    system = two_level_system(p)
    rho0 = pauli_compose(1.0, np.array([0.6, 0.0, 0.3]))

    def run(dt, t_end=4.0):
        rho, bath = rho0, two_level_bath(p)
        for _ in range(int(round(t_end / dt))):
            rho, bath = step(rho, bath, system, dt)
        return rho

    ref = run(0.05 / 8.0)
    e1 = np.max(np.abs(run(0.05) - ref))
    e2 = np.max(np.abs(run(0.025) - ref))
    assert 14.0 <= e1 / e2 <= 18.0


def test_euler_order_via_richardson():
    # successive-difference Richardson: |y(dt) - y(dt/2)| / |y(dt/2) - y(dt/4)|
    # converges to 2^order without needing a fine reference run
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.5)
    system = two_level_system(p)
    rho0 = pauli_compose(1.0, np.array([0.6, 0.0, 0.3]))

    def run(dt, t_end=1.0):
        rho, bath = rho0, two_level_bath(p)
        for _ in range(int(round(t_end / dt))):
            rho, bath = step(rho, bath, system, dt, method="euler")
        return rho

    y1, y2, y4 = run(4e-3), run(2e-3), run(1e-3)
    ratio = np.max(np.abs(y1 - y2)) / np.max(np.abs(y2 - y4))
    assert 1.8 <= ratio <= 2.2


def test_simulate_two_level_relaxation():
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.5)  # x = 1
    cfg = IntegratorConfig(dt=0.01, t_end=20.0, monitor_every=20)
    traj = simulate(I2 / 2, two_level_bath(p), two_level_system(p), cfg)
    assert traj.termination == COMPLETED
    m = pauli_decompose(traj.final.rho, tol=1e-8).a
    assert np.max(np.abs(m - bloch_equilibrium(p))) < 1e-6
    assert abs(traj.final.t - 20.0) < 1e-12
    times = traj.times()
    assert np.all(np.diff(times) > 0.0)


def test_simulate_monitors_and_trace(rng):
    system, bath = _finite_bath_setup()
    cfg = IntegratorConfig(dt=2e-3, t_end=2.0, monitor_every=50)
    traj = simulate(random_density(rng, 2), bath, system, cfg)
    assert traj.termination == COMPLETED
    assert np.max(traj.monitor_series("trace_err")) < 1e-12
    assert np.max(traj.monitor_series("herm_err")) < 1e-14
    assert np.min(traj.monitor_series("min_eig")) > -1e-12
    for point in traj.points:
        assert point.env is not None
        assert all(np.isfinite(v) for v in point.monitors.values())
        assert abs(point.env.T_e - point.env.H_e / 10.0) < 1e-12


def test_finite_bath_energy_conservation(rng):
    system, bath = _finite_bath_setup(gamma0=1.0)
    cfg = IntegratorConfig(dt=2e-3, t_end=5.0, monitor_every=100)
    traj = simulate(pauli_compose(1.0, np.array([0.5, 0.0, 0.4])), bath, system, cfg)
    energy = traj.monitor_series("total_energy")
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-11


def test_total_entropy_nondecreasing_on_heat_bath_run():
    system, bath = _finite_bath_setup(gamma0=0.5)
    cfg = IntegratorConfig(dt=2e-3, t_end=8.0, monitor_every=20)
    traj = simulate(pauli_compose(1.0, np.array([0.0, 0.6, -0.3])), bath, system, cfg)
    entropy = traj.monitor_series("total_entropy")
    assert np.min(np.diff(entropy)) > -1e-9


def test_energy_exchanged_with_infinite_bath_is_booked():
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.5)
    cfg = IntegratorConfig(dt=0.01, t_end=10.0, monitor_every=10)
    traj = simulate(I2 / 2, two_level_bath(p), two_level_system(p), cfg)
    energy = traj.monitor_series("total_energy")
    # subsystem energy change is mirrored in the bath ledger
    assert np.max(np.abs(energy - energy[0])) < 1e-11
    assert traj.final.env.H_e > 0.1  # bath absorbed the polarization energy


def test_linearized_run_leaves_state_space_and_is_flagged():
    # x = 10: the linearized steady state has magnitude 10, so the trajectory
    # crosses the unit ball and the positivity monitor must fire
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.05)
    cfg = IntegratorConfig(dt=1e-3, t_end=5.0, monitor_every=10)
    traj = simulate(I2 / 2, two_level_bath(p), two_level_system(p), cfg, nonlinear=False)
    assert traj.termination == MONITOR_VIOLATION
    assert "positivity" in traj.violation
    assert traj.final.t < 5.0  # terminated early
    assert traj.final.monitors["min_eig"] < -cfg.tolerances.positivity
    # the nonlinear variant on the same grid stays inside
    traj_nl = simulate(
        I2 / 2, two_level_bath(p), two_level_system(p),
        IntegratorConfig(dt=1e-4, t_end=1.25, monitor_every=10), nonlinear=True,
    )
    assert traj_nl.termination == COMPLETED
    assert np.min(traj_nl.monitor_series("min_eig")) > -1e-12


def test_simulate_rejects_invalid_initial_state():
    system, bath = _finite_bath_setup()
    cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    with pytest.raises(ValueError, match="trace"):
        simulate(np.diag([0.8, 0.8]).astype(complex), bath, system, cfg)


def test_violation_point_is_kept():
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.05)
    cfg = IntegratorConfig(dt=1e-3, t_end=5.0, monitor_every=10)
    traj = simulate(I2 / 2, two_level_bath(p), two_level_system(p), cfg, nonlinear=False)
    assert traj.points[-1].monitors["min_eig"] < 0.0
    assert np.min([p.monitors["min_eig"] for p in traj.points[:-1]]) >= -cfg.tolerances.positivity


def test_linearized_finite_bath_conserves_total_energy():
    # the bath's rate comes from the linearized drho/dt itself, so the closed
    # total is conserved in this variant as well
    system, bath = _finite_bath_setup(gamma0=1.0)
    cfg = IntegratorConfig(dt=0.01, t_end=20.0, monitor_every=50)
    traj = simulate(pauli_compose(1.0, np.array([0.5, 0.0, 0.4])), bath, system, cfg, nonlinear=False)
    assert traj.termination == COMPLETED
    energy = traj.monitor_series("total_energy")
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-11


def test_drained_finite_bath_is_flagged():
    # a tiny bath cannot absorb the energy the subsystem gives up
    system, bath = _finite_bath_setup(C_e=0.01, H_e0=0.01)
    cfg = IntegratorConfig(dt=0.1, t_end=2.0, monitor_every=1)
    traj = simulate(pauli_compose(1.0, np.array([0.0, 0.0, -0.99])), bath, system, cfg)
    assert traj.termination == MONITOR_VIOLATION
    assert "H_e=" in traj.violation and "t=" in traj.violation
    assert traj.final.t < 2.0
    assert len(traj.points) == round(traj.final.t / 0.1) + 1
    assert all(p.env.H_e > 0.0 for p in traj.points)


@pytest.mark.parametrize("nonlinear, expected", [(True, 4), (False, 0)])
def test_one_decomposition_per_stage(monkeypatch, rng, nonlinear, expected):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    system, bath = _finite_bath_setup()
    monkeypatch.setattr(np.linalg, "eigh", counting)
    step(random_density(rng, 2), bath, system, 1e-3, nonlinear=nonlinear)
    assert len(calls) == expected


@pytest.mark.parametrize("nonlinear, eigh_calls", [(True, 1), (False, 0)])
def test_one_eigvalsh_per_observation(monkeypatch, rng, nonlinear, eigh_calls):
    # min_eig and the entropy share one spectrum; only the flux stage decomposes again
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls[name] += 1
            return original(a, *args, **kwargs)

        return wrapper

    system, bath = _finite_bath_setup()
    rho = random_density(rng, 2)
    w = np.linalg.eigvalsh(rho)
    entropy = bath.entropy() + von_neumann_entropy(rho)
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    point, violation = _observe(0.0, rho, bath, system, nonlinear, None, MonitorTolerances())
    assert calls == {"eigh": eigh_calls, "eigvalsh": 1}
    assert violation is None
    assert point.monitors["min_eig"] == w[0]
    assert point.monitors["total_entropy"] == entropy
