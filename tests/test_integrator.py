import itertools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermoqme import (
    CouplingChannel,
    HeatBath,
    IntegratorConfig,
    MonitorTolerances,
    QuantumSystem,
    TwoLevelParams,
    bloch_equilibrium,
    build_run,
    energy_expectation,
    equilibrium_state,
    pauli_compose,
    parse_config,
    pauli_decompose,
    simulate,
    step,
    two_level_bath,
    two_level_system,
    von_neumann_entropy,
)
from thermoqme import environment, integrator, master_equation
from thermoqme.environment import _bind
from thermoqme.integrator import COMPLETED, MONITOR_VIOLATION, _array_advance, _observe, _two_level_advance
from thermoqme.master_equation import _exactly_hermitian
from thermoqme.operators import PhysicalConstants, _two_level_entries, _two_level_matrix, hermitianize
from thermoqme.two_level import SIGMA

import oracles
from conftest import joint_rhs, random_density, random_hermitian, random_unitary

S1, S2, S3 = SIGMA
I2 = np.eye(2, dtype=complex)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _closure_setup():
    """finite_bath_closure.json through build_run, at dt 0.01 to t 30."""
    cfg = json.loads((CONFIG_DIR / "finite_bath_closure.json").read_text(encoding="utf-8"))
    cfg["integrator"].update(dt=0.01, t_end=30.0)
    return build_run(parse_config(cfg))


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
    # a horizon off the dt grid would end early at round(t_end/dt) * dt
    with pytest.raises(ValueError, match="whole number of dt"):
        IntegratorConfig(dt=0.7, t_end=1.0)
    with pytest.raises(ValueError, match=r"whole number of dt = 0.3 steps \(the nearest step ends at t = 0.9\)"):
        IntegratorConfig(dt=0.3, t_end=1.0)
    assert IntegratorConfig(dt=1e-3, t_end=6e-3).n_steps == 6
    with pytest.raises(ValueError, match="positive"):
        MonitorTolerances(trace=0.0)
    # NaN compares false with everything, so each check is written to fail on it
    with pytest.raises(ValueError, match="positive"):
        MonitorTolerances(energy=float("nan"))
    with pytest.raises(ValueError, match="dt must be positive"):
        IntegratorConfig(dt=float("nan"), t_end=1.0)
    with pytest.raises(ValueError, match="t_end must exceed dt"):
        IntegratorConfig(dt=0.1, t_end=float("nan"))
    with pytest.raises(ValueError, match="t_end must be finite"):
        IntegratorConfig(dt=0.1, t_end=float("inf"))


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


def _spin_three_halves():
    """A spin-3/2 ladder, H = J_z with bath-coupled channels J_x and J_y, and a
    seeded full-rank initial state."""
    m = np.array([1.5, 0.5, -0.5, -1.5])
    jp = np.diag(np.sqrt(3.75 - m[1:] * (m[1:] + 1.0)), 1).astype(complex)  # J_+
    jx, jy, jz = 0.5 * (jp + jp.T), -0.5j * (jp - jp.T), np.diag(m).astype(complex)
    system = QuantumSystem(jz, (CouplingChannel(jx, bath_coupled=True), CouplingChannel(jy, bath_coupled=True)))
    return system, random_density(np.random.default_rng(20260810), 4)


def test_spin_three_halves_relaxes_to_the_gibbs_state():
    # the generic engine above two levels against the Gibbs oracle: the
    # spin-3/2 ladder at T_e = 1, from a seeded full-rank state; the
    # nonlinear variant reaches exp(-H/T_e)/Z, the linearized one settles
    # measurably elsewhere
    system, rho0 = _spin_three_halves()
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    cfg = IntegratorConfig(dt=0.01, t_end=15.0, method="rk4", monitor_every=1500)
    gibbs = equilibrium_state(system.H, 1.0)
    gaps = {}
    for nonlinear in (True, False):
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == COMPLETED
        gaps[nonlinear] = float(np.max(np.abs(traj.final.rho - gibbs)))
    assert gaps[True] <= 1e-8
    assert gaps[False] >= 1e-3


def _joint_equilibrium_gaps(rho0, bath, system, cfg):
    """{nonlinear: (|T - T_f|, max|rho - Gibbs(T_f)|)} at the end of each
    variant's closed finite-bath run, where T_f is the temperature of
    maximum total entropy at the run's initial total energy."""
    gaps = {}
    for nonlinear in (True, False):
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == COMPLETED
        energy = traj.points[0].monitors["total_energy"]
        T_f = oracles.joint_equilibrium_temperature(system.H, bath.C_e, energy, system.constants)
        gibbs = equilibrium_state(system.H, T_f, system.constants)
        gaps[nonlinear] = (abs(traj.final.env.T_e - T_f), float(np.max(np.abs(traj.final.rho - gibbs))))
    return gaps


def test_closed_two_level_run_ends_at_maximum_total_entropy():
    # the paper's proper equilibrium: a two-level system closed with a finite
    # bath relaxes, in the nonlinear variant, to the joint state of largest
    # total entropy at its energy; the linearized variant settles elsewhere
    setup = _closure_setup()
    gaps = _joint_equilibrium_gaps(setup.rho0, setup.bath, setup.system, setup.integrator)
    assert gaps[True][0] <= 1e-12 and gaps[True][1] <= 1e-12
    assert gaps[False][0] >= 1e-4


def test_closed_spin_three_halves_run_ends_at_maximum_total_entropy():
    # the same above two levels: the spin-3/2 ladder with a finite bath
    system, rho0 = _spin_three_halves()
    bath = HeatBath.finite(C_e=4.0, H_e=4.0, gamma0=1.0, omega_ref=1.0)
    cfg = IntegratorConfig(dt=0.01, t_end=15.0, method="rk4", monitor_every=1500)
    gaps = _joint_equilibrium_gaps(rho0, bath, system, cfg)
    assert gaps[True][0] <= 1e-10 and gaps[True][1] <= 1e-10
    assert gaps[False][0] >= 1e-3


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


@pytest.mark.parametrize(
    "entry, tolerance, message",
    [
        ((0, 0), "trace", "trace drift 5.000e-11 exceeds 1.0e-11 at t=0"),
        ((0, 1), "hermiticity", "hermiticity error 5.000e-11 exceeds 1.0e-11 at t=0"),
    ],
)
def test_trace_and_hermiticity_monitors_fire(rng, entry, tolerance, message):
    # a rho0 off by 5e-11 passes simulate's 1e-10 input check, and a tighter
    # monitor tolerance flags it at the first point (at n = 3, where the
    # hermiticity error reads both triangles)
    system = QuantumSystem(random_hermitian(rng, 3), (CouplingChannel(random_hermitian(rng, 3), 0.2, 0.3),))
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho0[entry] += 5e-11
    cfg = IntegratorConfig(dt=0.01, t_end=1.0, tolerances=MonitorTolerances(**{tolerance: 1e-11}))
    traj = simulate(rho0, bath, system, cfg)
    assert traj.termination == MONITOR_VIOLATION
    assert len(traj.points) == 1
    assert traj.violation == message


@pytest.mark.parametrize("dim", [2, 3])
def test_nearly_hermitian_start_state_runs_from_its_hermitian_part(rng, dim):
    # rho0 off by 5e-11 passes the 1e-10 input check; the stages start from
    # its Hermitian part at every n, so every point after t = 0 is that run's
    system = QuantumSystem(random_hermitian(rng, dim), (CouplingChannel(random_hermitian(rng, dim), 0.2, 0.3),))
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    rho0 = random_density(rng, dim, min_eig=0.1)
    rho0[0, 1] += 5e-11
    cfg = IntegratorConfig(dt=0.01, t_end=0.2, monitor_every=3)
    for nonlinear in (True, False):
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        ref = simulate(hermitianize(rho0), bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == ref.termination == COMPLETED
        assert len(traj.points) == len(ref.points) == 8
        for p, q in zip(traj.points[1:], ref.points[1:]):
            assert p.t == q.t and np.array_equal(p.rho, q.rho)
            assert p.monitors == q.monitors and p.env == q.env
        # the start point observes rho0 as given, which above n = 2 shows its hermiticity error
        herm_err = traj.points[0].monitors["herm_err"]
        assert herm_err == (0.0 if dim == 2 else pytest.approx(5e-11, rel=1e-3))


@pytest.mark.parametrize("dim", [3, 16])
def test_herm_err_after_the_start_is_exactly_zero(rng, dim):
    # above n = 2 the state is exactly Hermitian after t = 0 by construction,
    # so every later point reads herm_err 0.0, in both variants, with a
    # bath-coupled and a fixed-rate channel and a finite bath; the t = 0
    # point still measures the input, Hermitian only to 1e-11
    h, q1, q2 = (random_hermitian(rng, dim, scale=1.0 / dim) for _ in range(3))
    system = QuantumSystem(h, (CouplingChannel(q1, bath_coupled=True), CouplingChannel(q2, 0.2, 0.3)))
    bath = HeatBath.finite(C_e=3.0, H_e=2.0, gamma0=1.0, omega_ref=1.0)
    rho0 = random_density(rng, dim, min_eig=0.5 / dim)
    rho0[1, 0] += 1e-11
    cfg = IntegratorConfig(dt=0.01, t_end=0.1, monitor_every=2)
    for nonlinear in (True, False):
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == COMPLETED and len(traj.points) == 6
        assert traj.points[0].monitors["herm_err"] == pytest.approx(1e-11, rel=1e-3)
        assert [point.monitors["herm_err"] for point in traj.points[1:]] == [0.0] * 5


def test_herm_err_of_a_state_hermitian_by_construction():
    # an exactly Hermitian rho with a non-finite entry: herm_err is NaN, as
    # max|rho - rho^dagger| reads it, so the violation text is the same
    # whether _observe measures it or takes rho as Hermitian by construction
    system = QuantumSystem(np.diag([1.0, 0.0, -1.0]), (CouplingChannel(np.ones((3, 3)), 0.2, 0.3),))
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    nan, inf = math.nan, math.inf
    for entry, off_diagonal in [(nan, False), (inf, True), (complex(1.0, inf), True), (complex(nan, inf), True)]:
        rho = np.eye(3, dtype=complex) / 3
        if off_diagonal:
            rho[0, 2], rho[2, 0] = entry, np.conj(entry)
        else:
            rho[1, 1] = entry
        w = np.full(3, nan)  # a spectrum, as a stage's eigh would have made it
        with np.errstate(invalid="ignore"):
            texts = [
                _observe(0.5, rho, 0.0, bath, system, None, MonitorTolerances(), 0.0, w, hermitian)[1]
                for hermitian in (False, True)
            ]
        assert texts[0] == texts[1]
        assert "herm_err=nan, min_eig=nan" in texts[1]
    assert texts[1] == "non-finite monitor herm_err=nan, min_eig=nan, total_energy=nan at t=0.5"
    # a finite rho taken as Hermitian by construction is not measured
    rho = np.eye(3, dtype=complex) / 3
    rho[1, 0] += 1e-11
    monitors = [
        _observe(0.5, rho, 0.0, bath, system, None, MonitorTolerances(), 0.0, None, hermitian)[0].monitors
        for hermitian in (False, True)
    ]
    assert monitors[0]["herm_err"] == pytest.approx(1e-11, rel=1e-3) and monitors[1]["herm_err"] == 0.0


def test_total_energy_monitor_fires():
    # the closure run conserves total energy to rounding, so only a tolerance
    # below rounding flags its drift, at the first sampled point where it is not 0
    setup = _closure_setup()
    cfg = replace(setup.integrator, tolerances=replace(setup.integrator.tolerances, energy=1e-300))
    traj = simulate(setup.rho0, setup.bath, setup.system, cfg)
    assert traj.termination == MONITOR_VIOLATION
    assert re.fullmatch(r"total energy drift \S+ exceeds tolerance at t=\S+ \(reference 10\.2\)", traj.violation)
    energy = traj.monitor_series("total_energy")
    assert np.all(energy[:-1] == energy[0]) and energy[-1] != energy[0]


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


def _three_level_setup(gamma0=1.0, C_e=10.0, H_e0=10.0):
    # a spin-1 ladder coupled through J_x and J_y, so n = 3 takes the LAPACK path
    jp = np.diag([np.sqrt(2.0), np.sqrt(2.0)], 1)
    system = QuantumSystem(
        np.diag([1.0, 0.0, -1.0]),
        (
            CouplingChannel(0.5 * (jp + jp.T), bath_coupled=True),
            CouplingChannel(-0.5j * (jp - jp.T), bath_coupled=True),
        ),
    )
    return system, HeatBath.finite(C_e=C_e, H_e=H_e0, gamma0=gamma0, omega_ref=1.0)


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that it records the shape of each call's first argument."""
    calls = []
    original = getattr(owner, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_decompositions(monkeypatch):
    """Call records of the two ways a stage decomposes rho: the closed-form
    2x2 eigenvalues master_equation._two_level_spectrum, and np.linalg.eigh."""
    return (
        _count_calls(monkeypatch, master_equation, "_two_level_spectrum"),
        _count_calls(monkeypatch, np.linalg, "eigh"),
    )


def _decompositions(dim, want):
    """The call records of ``want`` decompositions of rho: at n = 2 one
    closed-form spectrum each and no LAPACK call, at n = 3 one eigh each."""
    return ([()] * want, []) if dim == 2 else ([], [(dim, dim)] * want)


DIMENSIONS = ((2, _finite_bath_setup), (3, _three_level_setup))


@pytest.mark.parametrize("nonlinear, expected", [(True, 4), (False, 0)])
def test_one_decomposition_per_stage(monkeypatch, rng, nonlinear, expected):
    bases, eighs = _count_decompositions(monkeypatch)
    for dim, setup in DIMENSIONS:
        system, bath = setup()
        # no friction anywhere, so no stage decomposes rho: gamma0 = 0, and
        # bath-coupled channels of weight 0 at gamma0 > 0
        weightless = QuantumSystem(
            system.H, tuple(CouplingChannel(ch.Q, bath_coupled=True, weight=0.0) for ch in system.channels)
        )
        cases = [((system, bath), expected), (setup(gamma0=0.0), 0), ((weightless, bath), 0)]
        for (sys_, bath_), want in cases:
            bases.clear()
            eighs.clear()
            step(random_density(rng, dim), bath_, sys_, 1e-3, nonlinear=nonlinear)
            assert (bases, eighs) == _decompositions(dim, want)


@pytest.mark.parametrize("nonlinear, decompositions", [(True, 1), (False, 0)])
def test_one_eigvalsh_per_observation(monkeypatch, rng, nonlinear, decompositions):
    # above n = 2, min_eig and the entropy share one spectrum; at n = 2 they
    # come from the closed form, with no LAPACK call, and equal the
    # closed-form reference exactly; the flux stage, which decomposes rho
    # again, is evaluated by the caller, not inside _observe
    for dim, setup in DIMENSIONS:
        system, bath = setup()
        rho = random_density(rng, dim)
        if dim == 2:
            min_eig, entropy, energy = oracles.two_level_monitors(rho, system.H)
            calls = []
        else:
            min_eig, entropy, energy = np.linalg.eigvalsh(rho)[0], von_neumann_entropy(rho), None
            calls = [(dim, dim)]
        with monkeypatch.context() as patch:
            bases, eighs = _count_decompositions(patch)
            flux = joint_rhs(rho, bath.H_e, bath, system, nonlinear)[1]
        assert (bases, eighs) == _decompositions(dim, decompositions)
        with monkeypatch.context() as patch:
            bases, eighs = _count_decompositions(patch)
            eigvalsh = _count_calls(patch, np.linalg, "eigvalsh")
            point, violation = _observe(0.0, rho, bath.H_e, bath, system, None, MonitorTolerances(), flux)
        assert (bases, eighs) == _decompositions(dim, 0)
        assert eigvalsh == calls
        assert violation is None
        assert point.monitors["min_eig"] == min_eig
        assert point.monitors["total_entropy"] == bath.entropy() + entropy
        if energy is not None:
            assert point.monitors["total_energy"] == energy + bath.H_e


LAPACK_DECOMPOSITIONS = ("eig", "eigh", "eigvals", "eigvalsh", "svd")


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_two_level_simulate_makes_no_lapack_decomposition(monkeypatch, rng, method, nonlinear):
    # a whole n = 2 run, every step sampled, with a finite and an infinite
    # bath: the start state's validation, the stages and the monitors are
    # closed forms, so np.linalg is not asked for one decomposition
    cfg = IntegratorConfig(dt=1e-2, t_end=0.2, method=method, monitor_every=1)
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=1.0)
    for system, bath in (_finite_bath_setup(), (two_level_system(p), two_level_bath(p))):
        rho0 = random_density(rng, 2)
        with monkeypatch.context() as patch:
            calls = {name: _count_calls(patch, np.linalg, name) for name in LAPACK_DECOMPOSITIONS}
            traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == COMPLETED and len(traj.points) == 21
        assert calls == {name: [] for name in LAPACK_DECOMPOSITIONS}


def _stored_state(rng, w):
    """u diag(w) u^dagger for a random unitary u, as simulate builds an n = 2
    state: exactly Hermitian from its four reals."""
    u = random_unitary(rng, 2)
    return _two_level_matrix(*_two_level_entries((u * np.asarray(w, dtype=float)) @ u.conj().T))


def test_two_level_monitors_match_lapack(rng):
    # the closed-form n = 2 monitors against the numpy ones (eigvalsh, the
    # clip/mask/log/sum entropy and np.trace(H @ rho)) on random, near-pure,
    # diagonal pure and negative-eigenvalue states, with a random H; bounds
    # fixed before measuring:
    # - min_eig within 4 eps max(1, l1) of eigvalsh's, l1 the larger eigenvalue;
    # - the entropy within 1e-13 absolute: an eigenvalue moved by
    #   delta <= 4 eps moves p ln p by at most about delta |ln delta| = 3.1e-14;
    # - tr(H rho) within 4 eps (|H00 rho00| + |H11 rho11| + 2 |H10| |rho10|)
    eps = np.finfo(float).eps
    system = QuantumSystem(random_hermitian(rng, 2))
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0, H_e=0.0)
    states = [_two_level_matrix(*_two_level_entries(random_density(rng, 2, min_eig=0.0))) for _ in range(2000)]
    states += [_stored_state(rng, [1.0 - p, p]) for p in (1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 1e-16)]
    states += [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    negative = [_stored_state(rng, [1.0 + p, -p]) for p in (1e-12, 1e-9, 1e-6, 0.1)]
    for rho in states + negative:
        point, _ = _observe(0.0, rho, bath.H_e, bath, system, None, MonitorTolerances(), 0.0)
        w = np.linalg.eigvalsh(rho)
        assert abs(point.monitors["min_eig"] - w[0]) <= 4.0 * eps * max(1.0, w[1])
        nz = np.clip(w, 0.0, 1.0)
        nz = nz[nz > 0.0]
        assert abs(point.monitors["total_entropy"] - float(-np.sum(nz * np.log(nz)))) <= 1e-13
        H = system.H
        scale = abs(H[0, 0] * rho[0, 0]) + abs(H[1, 1] * rho[1, 1]) + 2.0 * abs(H[1, 0]) * abs(rho[1, 0])
        assert abs(point.monitors["total_energy"] - np.trace(H @ rho).real) <= 4.0 * eps * scale
        assert point.monitors["herm_err"] == 0.0
    for rho in negative:  # reported unclipped
        assert _observe(0.0, rho, bath.H_e, bath, system, None, MonitorTolerances(), 0.0)[0].monitors["min_eig"] < 0.0
    # near-pure diagonal states, whose eigenvalues eigvalsh returns exactly:
    # min_eig keeps its relative precision, 4 eps, where (tr - |m|)/2 would not
    for p in (1e-6, 1e-10, 1e-13, 1e-300):
        rho = np.diag([1.0 - p, p]).astype(complex)
        point, _ = _observe(0.0, rho, bath.H_e, bath, system, None, MonitorTolerances(), 0.0)
        assert abs(point.monitors["min_eig"] - p) <= 4.0 * eps * p
    # a NaN state: the violation text the numpy monitors give
    nan = math.nan
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=1.0)
    bath, system = two_level_bath(p), two_level_system(p)
    texts = {
        (nan, nan, nan, nan): "trace_err=nan, herm_err=nan, min_eig=nan, total_energy=nan",
        (0.5, 0.5, nan, 0.0): "herm_err=nan, min_eig=nan, total_energy=nan",
        (0.5, 0.5, 0.0, nan): "herm_err=nan, min_eig=nan, total_energy=nan",
    }
    for entries, text in texts.items():
        rho = _two_level_matrix(*entries)
        _, violation = _observe(0.5, rho, bath.H_e, bath, system, None, MonitorTolerances(), 0.0)
        assert violation == f"non-finite monitor {text} at t=0.5"


@pytest.mark.parametrize("nonlinear", [True, False])
def test_point_reads_its_stage_spectrum(monkeypatch, rng, nonlinear):
    # above n = 2 a nonlinear point after t = 0 takes min_eig and the entropy
    # from the eigh its stage made of that rho, and tr(H rho) as an n^2
    # inner product: against eigvalsh and energy_expectation of the recorded
    # rho, on a seeded N = 4 run with a finite bath (a bath-coupled and a
    # fixed-rate channel); bounds fixed before measuring: 1e-15 absolute in
    # min_eig and total_energy, 1e-14 in total_entropy
    q1, q2 = random_hermitian(rng, 4, 0.3), random_hermitian(rng, 4, 0.3)
    system = QuantumSystem(random_hermitian(rng, 4), (CouplingChannel(q1, bath_coupled=True), CouplingChannel(q2, 0.3, 0.2)))
    bath = HeatBath.finite(C_e=1.0, H_e=1.0, gamma0=0.8, omega_ref=1.0)
    cfg = IntegratorConfig(dt=0.01, t_end=0.5, monitor_every=5)
    eigvalsh = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    traj = simulate(random_density(rng, 4), bath, system, cfg, nonlinear=nonlinear)
    assert traj.termination == COMPLETED and len(traj.points) == 11
    # the start state's validation, then the t = 0 point, then (linearized,
    # with no decomposition to read) every later point
    assert len(eigvalsh) == (2 if nonlinear else 12)
    monkeypatch.undo()
    for point in traj.points:
        w = np.linalg.eigvalsh(point.rho)
        entropy = point.env.S_e + von_neumann_entropy(point.rho)
        energy = energy_expectation(point.rho, system.H) + point.env.H_e
        assert abs(point.monitors["min_eig"] - w[0]) <= 1e-15
        assert abs(point.monitors["total_entropy"] - entropy) <= 1e-14
        assert abs(point.monitors["total_energy"] - energy) <= 1e-15


def test_friction_free_point_decomposes_its_own_rho(monkeypatch, rng):
    # no friction, so the nonlinear stage makes no eigh and every point
    # takes eigvalsh of its own rho, bit for bit
    system = QuantumSystem(random_hermitian(rng, 3), (CouplingChannel(random_hermitian(rng, 3), 0.0, 0.3),))
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    cfg = IntegratorConfig(dt=0.01, t_end=0.2, monitor_every=4)
    eigvalsh = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    traj = simulate(random_density(rng, 3), bath, system, cfg, nonlinear=True)
    assert traj.termination == COMPLETED and len(eigvalsh) == 1 + len(traj.points)
    monkeypatch.undo()
    for point in traj.points:
        assert point.monitors["min_eig"] == np.linalg.eigvalsh(point.rho)[0]
        assert point.monitors["total_entropy"] == point.env.S_e + von_neumann_entropy(point.rho)


@pytest.mark.parametrize("nonlinear, per_step", [(True, 4), (False, 0)])
def test_sampled_stage_is_the_next_first_stage(monkeypatch, rng, nonlinear, per_step):
    # every step hands the stage at its end state to the next step, and a
    # sampled point reads its flux from that stage, so N RK4 steps cost
    # 4N + 1 decompositions (N + 1 with Euler), not 5N + 1, whether every
    # step is sampled or, with monitor_every = 4 over 6 steps, steps 1-3
    # and 5 are not
    bases, eighs = _count_decompositions(monkeypatch)
    for method, stages in (("rk4", per_step), ("euler", per_step // 4)):
        for every, n_points in ((1, 7), (4, 3)):
            cfg = IntegratorConfig(dt=1e-3, t_end=6e-3, method=method, monitor_every=every)
            for dim, setup in DIMENSIONS:
                system, bath = setup()
                rho0 = random_density(rng, dim)
                bases.clear()
                eighs.clear()
                traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
                assert traj.termination == COMPLETED and len(traj.points) == n_points
                want = stages * cfg.n_steps + (1 if nonlinear else 0)
                assert (bases, eighs) == _decompositions(dim, want)


@pytest.mark.parametrize("nonlinear", [True, False])
def test_sampled_flux_is_the_stage_at_the_point(rng, nonlinear):
    system, bath0 = _finite_bath_setup(gamma0=0.7)
    cfg = IntegratorConfig(dt=5e-3, t_end=0.2, monitor_every=3)
    traj = simulate(random_density(rng, 2), bath0, system, cfg, nonlinear=nonlinear)
    assert traj.termination == COMPLETED
    for point in traj.points:
        bath = bath0.with_energy(point.env.H_e)
        _, rate = joint_rhs(point.rho, bath.H_e, bath, system, nonlinear)
        assert point.env.energy_flux_to_quantum == -rate


def _given_first_step(rho, bath, system, dt, method, nonlinear):
    """The step as simulate takes it: the advance of the run's dimension with
    its first stage evaluated beforehand and handed over."""
    stage = _bind(bath, system, nonlinear)
    if system.dim == 2:
        r = _two_level_entries(rho)
        *r, h = _two_level_advance(*r, bath.H_e, stage, dt, method, stage(*r, bath.H_e), 1)
        return _two_level_matrix(*r), bath.with_energy(h)
    rho, h = _array_advance(rho, bath.H_e, stage, dt, method, stage(rho, bath.H_e), 1)
    return rho, bath.with_energy(h)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_step_with_given_first_stage_is_bit_identical(rng, method, nonlinear):
    # two steps, each handed the stage at the previous end state as its first
    # stage (as simulate hands it over), against two steps that evaluate it;
    # step starts from the exactly Hermitian form of rho, which
    # random_density builds Hermitian only to rounding
    system, bath = _finite_bath_setup()
    rho = random_density(rng, 2)
    rho_a, bath_a = step(*step(rho, bath, system, 1e-2, method, nonlinear), system, 1e-2, method, nonlinear)
    stage = _bind(bath, system, nonlinear)
    state = (*_two_level_entries(_exactly_hermitian(rho)), bath.H_e)
    for _ in range(2):
        state = _two_level_advance(*state, stage, 1e-2, method, stage(*state), 1)
    assert np.array_equal(rho_a, _two_level_matrix(*state[:4]))
    assert bath_a == bath.with_energy(state[4])


def _unit_norm_system(rng, dim):
    """H and two channels of unit Frobenius norm, one with fixed rates and one
    bath-coupled, with hbar = 0.8 and k_B = 1.3."""
    H, Q1, Q2 = (a / np.linalg.norm(a) for a in (random_hermitian(rng, dim) for _ in range(3)))
    channels = (CouplingChannel(Q1, 0.3, 0.4), CouplingChannel(Q2, bath_coupled=True, weight=0.7))
    return QuantumSystem(H, channels, PhysicalConstants(hbar=0.8, kB=1.3))


@pytest.mark.parametrize("dim", [2, 3, 16])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_simulate_is_a_loop_of_step_from_a_nearly_hermitian_rho0(rng, dim, nonlinear):
    # rho0 Hermitian only to rounding, as random_density builds it: simulate
    # and a loop of step both start from its exactly Hermitian form, so every
    # recorded rho and H_e is step's, bit for bit (unit-norm operators keep
    # rho positive under RK4 at dt = 0.01 at n = 16)
    system = _unit_norm_system(rng, dim)
    bath = HeatBath.finite(C_e=4.0, H_e=3.0, gamma0=0.8, omega_ref=1.1)
    cfg = IntegratorConfig(dt=0.01, t_end=0.1, monitor_every=3)
    for _ in range(5):
        rho0 = random_density(rng, dim)
        assert not np.array_equal(rho0, rho0.conj().T)
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == COMPLETED
        assert [point.t for point in traj.points] == [k * cfg.dt for k in (0, 3, 6, 9, 10)]
        rho, b, points = rho0, bath, iter(traj.points[1:])
        for k in range(1, cfg.n_steps + 1):
            rho, b = step(rho, b, system, cfg.dt, cfg.method, nonlinear)
            if k % cfg.monitor_every == 0 or k == cfg.n_steps:
                point = next(points)
                assert np.array_equal(point.rho, rho) and point.env.H_e == b.H_e


@pytest.mark.parametrize("dim", [3, 4, 16])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_states_above_two_levels_stay_exactly_hermitian(monkeypatch, rng, dim, nonlinear):
    # with no re-Hermitization, every state a stage sees, every drho/dt it
    # returns, every point after t = 0 and every step output is exactly
    # Hermitian: fixed and bath-coupled channels, hbar and k_B != 1, an
    # infinite and a finite bath, RK4 and Euler, from rho0 Hermitian only
    # to rounding
    seen = []

    def recording_bind(*args):
        stage = _bind(*args)

        def recorded(rho, H_e):
            out = stage(rho, H_e)
            seen.extend((rho, out[0]))
            return out

        return recorded

    monkeypatch.setattr(integrator, "_bind", recording_bind)
    system = _unit_norm_system(rng, dim)
    baths = (
        HeatBath.infinite(T_e=0.9, gamma0=0.8, omega_ref=1.1, H_e=0.3),
        HeatBath.finite(C_e=4.0, H_e=3.0, gamma0=0.8, omega_ref=1.1),
    )
    for bath in baths:
        for method in ("rk4", "euler"):
            rho0 = random_density(rng, dim)
            cfg = IntegratorConfig(dt=0.01, t_end=0.1, method=method, monitor_every=3)
            traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
            assert traj.termination == COMPLETED
            seen.extend(point.rho for point in traj.points[1:])
            rho, b = rho0, bath
            for _ in range(5):
                rho, b = step(rho, b, system, cfg.dt, method, nonlinear)
                seen.append(rho)
    # per bath, RK4: 41 + 20 stages, 4 points, 5 steps; Euler: 11 + 5 stages, 4 points, 5 steps
    assert len(seen) == 2 * (2 * 61 + 9 + 2 * 16 + 9)
    for x in seen:
        assert np.array_equal(x, x.conj().T)


@pytest.mark.parametrize("dim, setup", DIMENSIONS)
def test_step_rejects_unknown_method(rng, dim, setup):
    system, bath = setup()
    rho = random_density(rng, dim)
    for advance in (step, _given_first_step):
        with pytest.raises(ValueError, match="unknown method 'midpoint'"):
            advance(rho, bath, system, 1e-2, "midpoint", True)


def _array_step(rho, bath, system, dt, method, nonlinear, first):
    """The step on numpy arrays at any n, every stage bound anew by
    joint_rhs, and the first one evaluated here when ``first`` is None: the
    reference for the float-carried dim-2 step."""

    def stage(rho, H_e):
        return joint_rhs(rho, H_e, bath, system, nonlinear)

    if first is None:
        first = stage(rho, bath.H_e)
    rho, h = _array_advance(rho, bath.H_e, stage, dt, method, first, 1)
    return rho, bath.with_energy(h)


def _two_level_step_cases(rng):
    """(system, bath) pairs for the dim-2 step with random Hermitian H and Q,
    hbar = 0.8 and k_B = 1.3: fixed-rate channels; bath-coupled channels,
    one of weight 0, next to a fixed one; each with an infinite and a finite
    bath."""
    consts = PhysicalConstants(hbar=0.8, kB=1.3)
    h = random_hermitian(rng, 2)
    qs = [random_hermitian(rng, 2) for _ in range(3)]
    fixed = QuantumSystem(h, tuple(CouplingChannel(q, 0.4, 0.3) for q in qs), consts)
    coupled = QuantumSystem(
        h,
        (
            CouplingChannel(qs[0], bath_coupled=True, weight=0.7),
            CouplingChannel(qs[1], bath_coupled=True, weight=0.0),
            CouplingChannel(qs[2], 0.2, 0.5),
        ),
        consts,
    )
    baths = (
        HeatBath.infinite(T_e=0.6, gamma0=0.9, omega_ref=1.1, H_e=0.3),
        HeatBath.finite(C_e=4.0, H_e=2.5, gamma0=0.9, omega_ref=1.1),
    )
    return [(system, bath) for system in (fixed, coupled) for bath in baths]


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_two_level_step_matches_array_step(rng, method, nonlinear):
    # the scalar dim-2 step against the array step at n = 2; they differ only
    # in how the closure flux is summed (np.vdot against a Python sum);
    # bound fixed before measuring: 1e-14 relative to max(1, max|ref|)
    for system, bath in _two_level_step_cases(rng):
        rho = random_density(rng, 2)
        first = joint_rhs(rho, bath.H_e, bath, system, nonlinear)
        for given, advance in ((None, step), (first, _given_first_step)):
            ref, ref_bath = _array_step(rho, bath, system, 0.05, method, nonlinear, given)
            out, out_bath = advance(rho, bath, system, 0.05, method, nonlinear)
            assert out.shape == (2, 2) and out.dtype == complex
            assert np.max(np.abs(out - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
            assert abs(out_bath.H_e - ref_bath.H_e) <= 1e-14 * max(1.0, abs(ref_bath.H_e))
            assert out_bath == ref_bath.with_energy(out_bath.H_e)


def _bits(values):
    """A flat tuple of floats as hex, which tells -0.0 from 0.0."""
    return [float.hex(v) for v in values]


def test_two_level_kernel_is_bitwise_the_oracle(monkeypatch, rng):
    # the fused dim-2 stage and RK step against the stage and step written as
    # separate functions (tests/oracles.py), bit for bit: infinite and finite
    # baths, with and without bath-coupled channels, and without friction
    # (gamma0 = 0, and bath-coupled channels of weight 0 only)
    consts = PhysicalConstants(hbar=0.8, kB=1.3)
    h = random_hermitian(rng, 2)
    qs = [random_hermitian(rng, 2) for _ in range(3)]
    fixed = QuantumSystem(h, tuple(CouplingChannel(q, 0.4, 0.3) for q in qs), consts)
    coupled = QuantumSystem(
        h,
        (
            CouplingChannel(qs[0], bath_coupled=True, weight=0.7),
            CouplingChannel(qs[1], bath_coupled=True, weight=0.0),
            CouplingChannel(qs[2], 0.2, 0.5),
        ),
        consts,
    )
    weightless = QuantumSystem(h, tuple(CouplingChannel(q, bath_coupled=True, weight=0.0) for q in qs), consts)
    infinite = HeatBath.infinite(T_e=0.6, gamma0=0.9, omega_ref=1.1, H_e=0.3)
    finite = HeatBath.finite(C_e=4.0, H_e=2.5, gamma0=0.9, omega_ref=1.1)
    cases = [(system, bath) for system in (fixed, coupled, weightless) for bath in (infinite, finite)]
    cases += [(coupled, HeatBath.infinite(T_e=0.6, gamma0=0.0, omega_ref=1.1))]
    cases += [(coupled, HeatBath.finite(C_e=4.0, H_e=2.5, gamma0=0.0, omega_ref=1.1))]
    u = random_unitary(rng, 2)
    near_pure = (u * [1.0 - 1e-13, 1e-13]) @ u.conj().T
    states = [(0.5, 0.5, 0.0, 0.0), (1.0 - 1e-13, 1e-13, 0.0, 0.0), master_equation._two_level_entries(near_pure)]
    states += [master_equation._two_level_entries(random_density(rng, 2)) for _ in range(3)]
    for system, bath in cases:
        for nonlinear in (True, False):
            stage = _bind(bath, system, nonlinear)
            with monkeypatch.context() as patch:
                patch.setattr(environment, "_bind_rates", oracles.two_level_bound_stage)
                oracle = _bind(bath, system, nonlinear)
            for r in states:
                first = stage(*r, bath.H_e)
                assert _bits(first) == _bits(oracle(*r, bath.H_e))
                for method, steps in itertools.product(("rk4", "euler"), (1, 2, 5)):
                    # an advance of 1, 2 and 5 steps against as many oracle steps:
                    # the first evaluates its own first stage or is given the
                    # fused one, and the later ones evaluate their own
                    out = integrator._two_level_advance(*r, bath.H_e, stage, 0.05, method, first, steps)
                    for given in (None, first):
                        ref = (*r, bath.H_e)
                        for _ in range(steps):
                            ref = oracles.two_level_advance(*ref, oracle, 0.05, method, given)
                            given = None
                        assert _bits(out) == _bits(ref)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_two_level_step_invariants(rng, method, nonlinear):
    # a random non-diagonal H and a finite bath, step after step: the returned
    # rho is exactly Hermitian, its trace drifts by at most 4 ulp of 1 per
    # step, and tr(H rho) + H_e moves by at most 1e-15 relative to
    # |tr(H rho)| + H_e per step (bounds fixed before measuring)
    consts = PhysicalConstants(hbar=0.8, kB=1.3)
    h = random_hermitian(rng, 2)
    channels = (
        CouplingChannel(random_hermitian(rng, 2), bath_coupled=True),
        CouplingChannel(random_hermitian(rng, 2), 0.2, 0.5),
    )
    system = QuantumSystem(h, channels, consts)
    rho, bath = random_density(rng, 2), HeatBath.finite(C_e=4.0, H_e=2.5, gamma0=0.9, omega_ref=1.1)
    eps = np.finfo(float).eps
    for _ in range(300):
        energy = energy_expectation(rho, h)
        rho_new, bath_new = step(rho, bath, system, 0.01, method, nonlinear)
        assert np.array_equal(rho_new, rho_new.conj().T)
        assert abs(np.trace(rho_new) - np.trace(rho)) <= 4.0 * eps
        drift = energy_expectation(rho_new, h) + bath_new.H_e - (energy + bath.H_e)
        assert abs(drift) <= 1e-15 * (abs(energy) + bath.H_e)
        rho, bath = rho_new, bath_new


@pytest.mark.parametrize("nonlinear", [True, False])
def test_non_finite_state_is_a_violation(nonlinear):
    # NaN compares false with every tolerance; the monitor must still fire
    system, bath = _finite_bath_setup()
    rho = np.full((2, 2), np.nan, dtype=complex)
    flux = joint_rhs(rho, bath.H_e, bath, system, nonlinear)[1]
    point, violation = _observe(0.5, rho, bath.H_e, bath, system, None, MonitorTolerances(), flux)
    assert violation is not None and violation.startswith("non-finite monitor")
    for key in ("trace_err", "herm_err", "min_eig"):
        assert f"{key}=nan" in violation
    assert "total_energy" in violation and "t=0.5" in violation
    # a finite state with a non-finite carried bath energy, as simulate
    # carries it: only the total is bad
    infinite = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    flux = joint_rhs(I2 / 2, np.inf, infinite, system, nonlinear)[1]
    _, violation = _observe(0.5, I2 / 2, np.inf, infinite, system, None, MonitorTolerances(), flux)
    assert violation == "non-finite monitor total_energy=inf at t=0.5"


@pytest.mark.parametrize("nonlinear", [True, False])
def test_simulate_flags_a_state_gone_non_finite(monkeypatch, nonlinear):
    # simulate steps a dim-2 state through the float-carried step it binds
    # at the start of the run, so that is where the NaN goes in
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=1.0)
    nan = (np.nan,) * 4
    advance = integrator._two_level_advance
    monkeypatch.setattr(integrator, "_two_level_advance", lambda r00, r11, x, y, h, *args: (*nan, h))
    cfg = IntegratorConfig(dt=0.01, t_end=1.0, monitor_every=3)
    traj = simulate(I2 / 2, two_level_bath(p), two_level_system(p), cfg, nonlinear=nonlinear)
    assert traj.termination == MONITOR_VIOLATION
    assert "non-finite monitor trace_err=nan" in traj.violation
    # the first sampled point after the first step is the offending one, and is kept
    assert [point.t for point in traj.points] == [0.0, 0.03]
    assert np.isnan(traj.final.rho).all()
    # with a finite bath the NaN reaches the bath energy inside the step; the
    # violation names the non-finite state, not a drained bath
    system, bath = _finite_bath_setup()

    def nan_step(r00, r11, x, y, h, stage, dt, method, first, steps):
        return advance(*nan, h, stage, dt, method, stage(*nan, h), steps)

    monkeypatch.setattr(integrator, "_two_level_advance", nan_step)
    traj = simulate(I2 / 2, bath, system, cfg, nonlinear=nonlinear)
    assert traj.termination == MONITOR_VIOLATION
    assert traj.violation == "state went non-finite: finite bath energy H_e=nan in the step to t=0.01"
    assert [point.t for point in traj.points] == [0.0]


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_simulate_matches_array_step_loop(rng, method, nonlinear):
    # simulate carries the dim-2 state as floats between sampled points, with
    # the rates bound once; a loop of the array step, which binds at every
    # stage and builds every step's matrix and bath snapshot, and _observe
    # with the flux of a stage bound afresh at every point, must give the
    # same points and the same termination over 240 steps: random
    # non-diagonal H and Q, hbar = 0.8, k_B = 1.3, a weight-0 bath-coupled
    # channel next to a weighted one and two fixed ones, with an infinite
    # and with a finite bath (temperature 2,
    # and a start away from the Bloch sphere, so that the linearized variant
    # stays inside it); bound fixed before measuring: 1e-13 in rho and in H_e
    # and the flux (relative to max(1, |value|))
    consts = PhysicalConstants(hbar=0.8, kB=1.3)
    qs = [random_hermitian(rng, 2) for _ in range(4)]
    system = QuantumSystem(
        random_hermitian(rng, 2),
        (
            CouplingChannel(qs[0], 0.2, 0.5),
            CouplingChannel(qs[1], bath_coupled=True, weight=0.0),
            CouplingChannel(qs[2], bath_coupled=True, weight=0.7),
            CouplingChannel(qs[3], 0.3, 0.9),
        ),
        consts,
    )
    baths = (
        HeatBath.infinite(T_e=2.0, gamma0=0.9, omega_ref=1.1, H_e=0.3),
        HeatBath.finite(C_e=4.0, H_e=8.0, gamma0=0.9, omega_ref=1.1),
    )
    cfg = IntegratorConfig(dt=0.01, t_end=2.4, method=method, monitor_every=7)
    for bath in baths:
        rho0 = 0.5 * (random_density(rng, 2) + I2 / 2)
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == COMPLETED
        rho, ref_bath, energy_ref, reference = rho0, bath, None, []
        for k in range(cfg.n_steps + 1):
            if k:
                rho, ref_bath = _array_step(rho, ref_bath, system, cfg.dt, method, nonlinear, None)
            if k % cfg.monitor_every == 0 or k == cfg.n_steps:
                flux = joint_rhs(rho, ref_bath.H_e, ref_bath, system, nonlinear)[1]
                point, violation = _observe(
                    k * cfg.dt, rho, ref_bath.H_e, ref_bath, system, energy_ref, cfg.tolerances, flux
                )
                assert violation is None
                reference.append(point)
                energy_ref = reference[0].monitors["total_energy"]
        assert len(traj.points) == len(reference) == 36
        for out, ref in zip(traj.points, reference):
            assert out.t == ref.t
            assert np.max(np.abs(out.rho - ref.rho)) <= 1e-13
            for key in ("H_e", "energy_flux_to_quantum"):
                a, b = getattr(out.env, key), getattr(ref.env, key)
                assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


def _point_bits(point):
    """A recorded point as bytes and float hex: t, rho, the env fields and
    the monitors, so that two points compare bit for bit."""
    env = point.env
    monitors = point.monitors
    return (
        float.hex(point.t),
        point.rho.tobytes(),
        _bits((env.H_e, env.T_e, env.S_e, env.energy_flux_to_quantum)),
        list(monitors),
        _bits(monitors.values()),
    )


@pytest.mark.parametrize("dim, setup", DIMENSIONS)
@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_sampling_cadence_does_not_change_the_arithmetic(rng, dim, setup, method, nonlinear):
    # simulate advances a whole sampled interval per call: at monitor_every
    # 1, 7 and n_steps, every point at a shared t is the same, bit for bit,
    # with an infinite and with a finite bath
    system, finite = setup()
    infinite = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    rho0 = random_density(rng, dim)
    for bath in (infinite, finite):
        runs = []
        for every in (1, 7, 60):
            cfg = IntegratorConfig(dt=0.01, t_end=0.6, method=method, monitor_every=every)
            traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
            assert traj.termination == COMPLETED
            runs.append(traj.points)
        assert [len(points) for points in runs] == [61, 10, 2]
        dense = {point.t: _point_bits(point) for point in runs[0]}
        for points in runs[1:]:
            for point in points:
                assert _point_bits(point) == dense[point.t]


def _blow_up_setup():
    """An n = 3 system that RK4 at dt = 1 cannot follow: one fixed channel with
    friction = diffusion = 5 and an infinite bath; its state overflows between
    the points sampled every 50 steps, where LAPACK cannot decompose it."""
    system = QuantumSystem(np.diag([1.0, 0.0, -1.0]), (CouplingChannel(2.0 * np.ones((3, 3)), 5.0, 5.0),))
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    return np.eye(3, dtype=complex) / 3, bath, system, IntegratorConfig(dt=1.0, t_end=200.0, monitor_every=50)


@pytest.mark.parametrize("nonlinear", [True, False])
def test_state_gone_non_finite_above_two_levels_is_a_violation(nonlinear):
    # nonlinear, a stage's eigh fails inside a step; linearized, the stages
    # decompose nothing and the sampled point's eigvalsh fails; either way the
    # run ends as a violation with the points recorded before, not a traceback
    rho0, bath, system, cfg = _blow_up_setup()
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
    assert traj.termination == MONITOR_VIOLATION
    prefix = "state went non-finite: eigendecomposition failed (Eigenvalues did not converge) by t="
    assert traj.violation.startswith(prefix)
    assert 0 < float(traj.violation[len(prefix):]) <= 50
    assert [point.t for point in traj.points] == [0.0]


@pytest.mark.parametrize("dim, wrong", [(2, 3), (3, 2)])
def test_rho_of_the_wrong_dimension_is_rejected(rng, dim, wrong):
    system, bath = dict(DIMENSIONS)[dim]()
    rho = random_density(rng, wrong)
    message = rf"dimension mismatch: rho \({wrong}, {wrong}\) vs H \({dim}, {dim}\)"
    with pytest.raises(ValueError, match=message):
        simulate(rho, bath, system, IntegratorConfig(dt=0.01, t_end=0.1))
    with pytest.raises(ValueError, match=message):
        step(rho, bath, system, 0.01)


def test_simulate_builds_bath_snapshots_only_at_sampled_points(monkeypatch):
    # 1,000 dim-2 steps sampled every 100: the HeatBath snapshot is built for
    # the 11 recorded points, not for every step
    system, bath = _finite_bath_setup()
    built = _count_calls(monkeypatch, HeatBath, "__post_init__")
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, monitor_every=100)
    traj = simulate(I2 / 2, bath, system, cfg)
    assert traj.termination == COMPLETED and len(traj.points) == 11
    assert len(built) <= len(traj.points) + 2


def _heated(system, bath):
    """The system with its channels replaced by one fixed channel on the first
    coupling operator (friction 0.1, diffusion 1.0, so temperature 10): it
    heats the subsystem at any bath temperature, and the closure draws the
    heat from the bath until a small finite bath is drained."""
    return QuantumSystem(system.H, (CouplingChannel(system.channels[0].Q, 0.1, 1.0),)), bath


# (dim, nonlinear, method) -> (violation, number of points, last recorded H_e),
# as the loop over step gave them, with monitor_every=4, dt=0.05
DRAINED = {
    (2, True, "rk4"): ("H_e=-0.0015102 in the step to t=0.55", 3, 0.042551615563457434),
    (2, True, "euler"): ("H_e=-0.00557756 in the step to t=0.55", 3, 0.03905075104058656),
    (2, False, "rk4"): ("H_e=-0.00561274 in the step to t=0.6", 3, 0.04505042847972897),
    (2, False, "euler"): ("H_e=-0.00266396 in the step to t=0.55", 3, 0.041807602705859384),
    (3, True, "rk4"): ("H_e=-0.0113941 in the step to t=0.25", 2, 0.02627019677251277),
    (3, True, "euler"): ("H_e=-0.0169433 in the step to t=0.25", 2, 0.021441214229442285),
    (3, False, "rk4"): ("H_e=-0.00749331 in the step to t=0.25", 2, 0.02971915892339689),
    (3, False, "euler"): ("H_e=-0.012383 in the step to t=0.25", 2, 0.02554406520578123),
}


@pytest.mark.parametrize("dim, nonlinear, method", DRAINED)
def test_drained_bath_between_sampled_points(dim, nonlinear, method):
    # the bath drains in a step between recorded points (with euler, only at
    # the end of the step): the run ends where stepping bath snapshots did,
    # with the same text, the same points and the same last bath energy;
    # so does a run whose last step is the draining one
    violation, n_points, last_H_e = DRAINED[dim, nonlinear, method]
    setup, rho0 = {
        2: (_finite_bath_setup, pauli_compose(1.0, np.array([0.0, 0.0, -0.99]))),
        3: (_three_level_setup, np.diag([0.001, 0.001, 0.998]).astype(complex)),
    }[dim]
    system, bath = _heated(*setup(C_e=1.0, H_e0=0.2))
    t_drained = float(violation.rsplit("t=", 1)[1])
    k_d = round(t_drained / 0.05)  # the draining step
    for t_end in (10.0, t_drained):
        cfg = IntegratorConfig(dt=0.05, t_end=t_end, method=method, monitor_every=4)
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == MONITOR_VIOLATION
        assert traj.violation == f"finite bath energy must stay positive, got {violation}"
        assert len(traj.points) == n_points
        assert traj.final.env.H_e == last_H_e
        # the draining step alone, first, in the middle and last in its
        # sampled interval: the same text, and the points of the run sampled
        # at every step at the same times, bit for bit
        runs = []
        for every in (1, k_d - 1, k_d, k_d + 1, cfg.n_steps):
            cadence = IntegratorConfig(dt=0.05, t_end=t_end, method=method, monitor_every=every)
            runs.append(simulate(rho0, bath, system, cadence, nonlinear=nonlinear))
        dense = {point.t: _point_bits(point) for point in runs[0].points}
        for run in runs + [traj]:
            assert (run.termination, run.violation) == (traj.termination, traj.violation)
            assert all(_point_bits(point) == dense[point.t] for point in run.points)
