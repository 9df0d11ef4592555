import json
import math
import re
import types
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
    load_config,
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
from thermoqme.integrator import COMPLETED, MONITOR_VIOLATION, _observe
from thermoqme.master_equation import _exactly_hermitian, _rate_column, _rates
from thermoqme.operators import PhysicalConstants, _two_level_entries, _two_level_matrix, hermitianize
from thermoqme.two_level import SIGMA

import oracles
from conftest import joint_rhs, random_density, random_hermitian, random_unitary, spin_three_halves

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
    # RK4 is the one method; the field stays so that configs may name it
    for method in ("rk5", "euler"):
        with pytest.raises(ValueError, match=f"^method must be 'rk4', got '{method}'$"):
            IntegratorConfig(dt=0.1, t_end=1.0, method=method)
    # an int, not a bool, as a config's monitor_every: a float, even 2.0,
    # would fail later in range(steps)
    for every in (2.0, math.inf, math.nan, True, 0, -1):
        with pytest.raises(ValueError, match="^monitor_every must be a positive integer$"):
            IntegratorConfig(dt=0.1, t_end=1.0, monitor_every=every)
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
    # t_end / dt overflows a float: no step count, rather than an OverflowError from round()
    for dt, t_end in ((1e-300, 1e300), (5e-324, 1.0)):
        with pytest.raises(ValueError, match=r"^the step count t_end / dt = .* is not finite$"):
            IntegratorConfig(dt=dt, t_end=t_end)


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


def test_spin_three_halves_relaxes_to_the_gibbs_state():
    # the generic engine above two levels against the Gibbs oracle: the
    # spin-3/2 ladder at T_e = 1, from a seeded full-rank state; the
    # nonlinear variant reaches exp(-H/T_e)/Z, the linearized one settles
    # measurably elsewhere
    system, rho0 = spin_three_halves()
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


def _entropy_drop(traj):
    """(largest drop of total_entropy between consecutive sampled points, and
    the rounding bound fixed before measuring: 1e-13 times max(1, the
    largest |total_entropy|))."""
    entropy = traj.monitor_series("total_entropy")
    return float(np.max(entropy[:-1] - entropy[1:])), 1e-13 * max(1.0, float(np.max(np.abs(entropy))))


def test_nonlinear_runs_never_lower_the_total_entropy():
    # with an infinite bath, total_entropy is S(rho) + H_e/T = (E - F)/T,
    # E = tr(H rho) + H_e conserved and F = tr(H rho) - T S(rho), so the
    # nonlinear gradient flow never lowers it beyond rounding: the two-level
    # configs at x = 1 and x = 5, and the spin-3/2 ladder at T = 1 and 0.5;
    # the linearized variant does lower it, at x = 1 and for the ladder at
    # T = 0.5
    for name in ("two_level_x1.json", "two_level_x5.json"):
        setup = build_run(load_config(CONFIG_DIR / name))
        traj = simulate(setup.rho0, setup.bath, setup.system, setup.integrator, nonlinear=True)
        assert traj.termination == COMPLETED
        drop, bound = _entropy_drop(traj)
        assert drop <= bound
        if name == "two_level_x1.json":
            drop, bound = _entropy_drop(simulate(setup.rho0, setup.bath, setup.system, setup.integrator, False))
            assert drop > bound
    system, rho0 = spin_three_halves()
    cfg = IntegratorConfig(dt=0.01, t_end=10.0, monitor_every=10)
    for T in (1.0, 0.5):
        bath = HeatBath.infinite(T_e=T, gamma0=1.0, omega_ref=1.0)
        traj = simulate(rho0, bath, system, cfg, nonlinear=True)
        assert traj.termination == COMPLETED
        drop, bound = _entropy_drop(traj)
        assert drop <= bound
    # bath is still the T = 0.5 one
    drop, bound = _entropy_drop(simulate(rho0, bath, system, cfg, nonlinear=False))
    assert drop > bound


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
    system, rho0 = spin_three_halves()
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
        # the start point observes rho0 as given, which shows its hermiticity error at every n
        assert traj.points[0].monitors["herm_err"] == pytest.approx(5e-11, rel=1e-3)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "entry, offset, herm_err, trace_err",
    [((0, 1), 5e-11, 5e-11, 0.0), ((0, 0), 5e-11j, 1e-10, 5e-11)],
    ids=["off_diagonal", "imaginary_diagonal"],
)
def test_start_point_reads_every_entry_at_every_dimension(dim, entry, offset, herm_err, trace_err):
    # rho0 = I/n with one entry off by 5e-11 passes the 1e-10 input check;
    # the t = 0 point reads herm_err as max|rho_ij - conj(rho_ji)| and
    # trace_err as |tr rho - 1| in complex arithmetic from every entry at
    # every n, so n = 2 and n = 3 give the same values and the same verdict
    q = np.zeros((dim, dim))
    q[0, 1] = q[1, 0] = 0.5
    system = QuantumSystem(np.diag(np.arange(dim, dtype=float)), (CouplingChannel(q, bath_coupled=True),))
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    rho0 = np.eye(dim, dtype=complex) / dim
    rho0[entry] += offset
    cfg = IntegratorConfig(dt=0.01, t_end=0.1, tolerances=MonitorTolerances(hermiticity=1e-11))
    traj = simulate(rho0, bath, system, cfg)
    assert traj.termination == MONITOR_VIOLATION
    assert traj.violation == f"hermiticity error {herm_err:.3e} exceeds 1.0e-11 at t=0"
    assert len(traj.points) == 1
    assert traj.points[0].monitors["herm_err"] == herm_err
    assert traj.points[0].monitors["trace_err"] == trace_err


def test_two_level_start_point_records_rho0_as_given(rng):
    # at n = 2 too, the t = 0 point records rho0 itself, entry (0, 1) off by
    # 5e-11 included, not the Hermitian matrix the stages start from
    system = QuantumSystem(random_hermitian(rng, 2), (CouplingChannel(random_hermitian(rng, 2), 0.2, 0.3),))
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    rho0 = random_density(rng, 2, min_eig=0.1)
    rho0[0, 1] += 5e-11
    traj = simulate(rho0, bath, system, IntegratorConfig(dt=0.01, t_end=0.1, monitor_every=5))
    assert traj.termination == COMPLETED
    assert np.array_equal(traj.points[0].rho, rho0)


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
    # max|rho - rho^dagger| reads it, and the violation names it
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
            text = _observe(0.5, rho, 0.0, bath, system, None, MonitorTolerances(), 0.0, w)[1]
        assert "herm_err=nan, min_eig=nan" in text
    assert text == "non-finite monitor herm_err=nan, min_eig=nan, total_energy=nan at t=0.5"
    # a finite rho is measured
    rho = np.eye(3, dtype=complex) / 3
    rho[1, 0] += 1e-11
    monitors = _observe(0.5, rho, 0.0, bath, system, None, MonitorTolerances(), 0.0, None)[0].monitors
    assert monitors["herm_err"] == pytest.approx(1e-11, rel=1e-3)


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
    """Call records of the two ways a stage decomposes rho: at n = 2 the
    closed-form spectrum the stage computes inline, recorded as the names of
    its math.hypot (the Bloch length) and math.log1p or math.log (the
    log-mean weight) calls, and np.linalg.eigh above.  The n = 2 stage takes
    those functions from master_equation's ``math`` when it is bound, so
    the counting stand-in goes there first; operators' own ``math``, which
    the monitors' spectrum uses, is not counted."""
    names = []

    def recording(name):
        original = getattr(math, name)

        def counting(*args):
            names.append(name)
            return original(*args)

        return counting

    stand_in = types.SimpleNamespace(**vars(math))
    for name in ("hypot", "log1p", "log"):
        setattr(stand_in, name, recording(name))
    monkeypatch.setattr(master_equation, "math", stand_in)
    return names, _count_calls(monkeypatch, np.linalg, "eigh")


def _decompositions(dim, want):
    """The call records of ``want`` decompositions of rho: at n = 2 one
    Bloch length and one log-mean (log1p, for states with both eigenvalues
    positive and a normal ratio) each and no LAPACK call, at n = 3 one eigh
    each."""
    return (["hypot", "log1p"] * want, []) if dim == 2 else ([], [(dim, dim)] * want)


DIMENSIONS = ((2, _finite_bath_setup), (3, _three_level_setup))
# the nonlinear and the linearized variant; the ids name the integration method, RK4, as well
VARIANTS = pytest.mark.parametrize("nonlinear", [True, False], ids=lambda nonlinear: f"{nonlinear}-rk4")


@pytest.mark.parametrize("nonlinear, expected", [(True, 5), (False, 0)])
def test_one_decomposition_per_stage(monkeypatch, rng, nonlinear, expected):
    # a step is one advance call, whose 5 stages (4, and the end stage it
    # returns and step discards) each decompose rho once
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


@VARIANTS
def test_two_level_simulate_makes_no_lapack_decomposition(monkeypatch, rng, nonlinear):
    # a whole n = 2 run, every step sampled, with a finite and an infinite
    # bath: the start state's validation is one eigvalsh, as at every n,
    # and the stages and the monitors are closed forms, so np.linalg is
    # asked for no other decomposition
    cfg = IntegratorConfig(dt=1e-2, t_end=0.2, monitor_every=1)
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=1.0)
    for system, bath in (_finite_bath_setup(), (two_level_system(p), two_level_bath(p))):
        rho0 = random_density(rng, 2)
        with monkeypatch.context() as patch:
            calls = {name: _count_calls(patch, np.linalg, name) for name in LAPACK_DECOMPOSITIONS}
            traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == COMPLETED and len(traj.points) == 21
        assert calls == {name: [(2, 2)] if name == "eigvalsh" else [] for name in LAPACK_DECOMPOSITIONS}


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
    # 4N + 1 decompositions, not 5N + 1, whether every step is sampled or,
    # with monitor_every = 4 over 6 steps, steps 1-3 and 5 are not
    bases, eighs = _count_decompositions(monkeypatch)
    for every, n_points in ((1, 7), (4, 3)):
        cfg = IntegratorConfig(dt=1e-3, t_end=6e-3, monitor_every=every)
        for dim, setup in DIMENSIONS:
            system, bath = setup()
            rho0 = random_density(rng, dim)
            bases.clear()
            eighs.clear()
            traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
            assert traj.termination == COMPLETED and len(traj.points) == n_points
            want = per_step * cfg.n_steps + (1 if nonlinear else 0)
            assert (bases, eighs) == _decompositions(dim, want)


@pytest.mark.parametrize("dim, setup", DIMENSIONS)
@pytest.mark.parametrize("every, intervals", [(1, [0, 1, 1, 1, 1, 1, 1]), (4, [0, 4, 2])])
def test_one_advance_call_per_recorded_point(monkeypatch, rng, dim, setup, every, intervals):
    # the advance returns the end stage with the state, so simulate calls it
    # once per recorded point: with no step for t = 0, then once per sampled
    # interval, handed the stage the previous call returned
    calls = []
    bind = integrator._bind

    def counting(*args):
        advance = bind(*args)

        def counted(rho, h, *rest):
            calls.append(rest[2] if rest else 0)  # the steps the call takes
            return advance(rho, h, *rest)

        return counted

    monkeypatch.setattr(integrator, "_bind", counting)
    system, bath = setup()
    cfg = IntegratorConfig(dt=1e-3, t_end=6e-3, monitor_every=every)
    traj = simulate(random_density(rng, dim), bath, system, cfg)
    assert traj.termination == COMPLETED
    assert calls == intervals and len(traj.points) == len(calls)


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


def _given_first_step(rho, bath, system, dt, nonlinear):
    """The step as simulate takes it: the run's advance over one step, handed
    its first stage, the stage of the advance's zero-step call, evaluated beforehand."""
    advance = _bind(bath, system, nonlinear)
    rho, h, _ = advance(rho, bath.H_e, dt, advance(rho, bath.H_e)[2], 1)
    return rho, bath.with_energy(h)


@pytest.mark.parametrize("dim", [2, 3, 16])
@VARIANTS
def test_step_with_given_first_stage_is_bit_identical(rng, nonlinear, dim):
    # two steps, each handed the stage at the previous end state as its first
    # stage (as simulate hands it over: the end stage the previous call
    # returned, the first from a zero-step call), against two steps that
    # evaluate it, through the one advance signature at every n; step starts
    # from the exactly Hermitian form of rho, which random_density builds
    # Hermitian only to rounding
    if dim == 2:
        system, bath = _finite_bath_setup()
    else:
        system = _unit_norm_system(rng, dim)
        bath = HeatBath.finite(C_e=4.0, H_e=3.0, gamma0=0.8, omega_ref=1.1)
    rho = random_density(rng, dim)
    rho_a, bath_a = step(*step(rho, bath, system, 1e-2, nonlinear=nonlinear), system, 1e-2, nonlinear=nonlinear)
    advance = _bind(bath, system, nonlinear)
    state = advance(_exactly_hermitian(rho), bath.H_e)
    for _ in range(2):
        state = advance(*state[:2], 1e-2, state[2], 1)
    assert np.array_equal(rho_a, state[0])
    assert bath_a == bath.with_energy(state[1])
    if dim > 2:
        # above n = 2 the end stage a step returns, and the stage a
        # zero-step call at the returned state returns with that state
        # unchanged, are _lapack_stage's drho/dt and spectrum at the
        # stage's own T = H_e/C_e, with the closure flux -Re tr(H k), bit
        # for bit
        zero = advance(*state[:2])
        assert zero[0] is state[0] and zero[1] == state[1]
        friction, diffusion, per_T = map(_rate_column, _rates(system, bath._friction_rate(system.constants)))
        diffusion = diffusion + (state[1] / bath.C_e) * per_T
        k, w = master_equation._lapack_stage(state[0], system, friction, diffusion, nonlinear)
        for stage in (state[2], zero[2]):
            assert np.array_equal(stage[0], k)
            if nonlinear:
                assert np.array_equal(stage[1], w)
            else:
                assert stage[1] is None and w is None
            assert stage[2] == -float(np.vdot(system.H, k).real)


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
            rho, b = step(rho, b, system, cfg.dt, nonlinear=nonlinear)
            if k % cfg.monitor_every == 0 or k == cfg.n_steps:
                point = next(points)
                assert np.array_equal(point.rho, rho) and point.env.H_e == b.H_e


@pytest.mark.parametrize("dim", [3, 4, 16])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_states_above_two_levels_stay_exactly_hermitian(monkeypatch, rng, dim, nonlinear):
    # with no re-Hermitization, every state a stage sees, every drho/dt it
    # returns, every point after t = 0 and every step output is exactly
    # Hermitian: fixed and bath-coupled channels, hbar and k_B != 1, an
    # infinite and a finite bath, from rho0 Hermitian only to rounding
    seen = []
    lapack_stage = master_equation._lapack_stage

    def recorded(rho, *args):
        out = lapack_stage(rho, *args)
        seen.extend((rho, out[0]))
        return out

    monkeypatch.setattr(master_equation, "_lapack_stage", recorded)
    system = _unit_norm_system(rng, dim)
    baths = (
        HeatBath.infinite(T_e=0.9, gamma0=0.8, omega_ref=1.1, H_e=0.3),
        HeatBath.finite(C_e=4.0, H_e=3.0, gamma0=0.8, omega_ref=1.1),
    )
    for bath in baths:
        rho0 = random_density(rng, dim)
        cfg = IntegratorConfig(dt=0.01, t_end=0.1, monitor_every=3)
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == COMPLETED
        seen.extend(point.rho for point in traj.points[1:])
        rho, b = rho0, bath
        for _ in range(5):
            rho, b = step(rho, b, system, cfg.dt, nonlinear=nonlinear)
            seen.append(rho)
    # per bath: 41 + 25 stages (each step also evaluates the end stage it
    # discards), 4 points, 5 steps
    assert len(seen) == 2 * (2 * 66 + 9)
    for x in seen:
        assert np.array_equal(x, x.conj().T)


@pytest.mark.parametrize("dim, setup", DIMENSIONS)
def test_step_rejects_unknown_method(rng, dim, setup):
    # step takes no method, and the variant only by keyword: a method passed
    # after dt is a TypeError, not read as the variant
    system, bath = setup()
    rho = random_density(rng, dim)
    with pytest.raises(TypeError, match="positional"):
        step(rho, bath, system, 1e-2, "euler")


def _array_step(rho, bath, system, dt, nonlinear, first):
    """The step on numpy arrays at any n, every stage bound anew by
    joint_rhs, and the first one evaluated when ``first`` is None: the
    reference for the float-carried dim-2 step."""

    def stage(rho, H_e):
        return joint_rhs(rho, H_e, bath, system, nonlinear)

    rho, h = oracles.array_rk4_step(rho, bath.H_e, stage, dt, first)
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


@VARIANTS
def test_two_level_step_matches_array_step(rng, nonlinear):
    # the scalar dim-2 step against the array step at n = 2; they differ only
    # in how the closure flux is summed (np.vdot against a Python sum);
    # bound fixed before measuring: 1e-14 relative to max(1, max|ref|)
    for system, bath in _two_level_step_cases(rng):
        rho = random_density(rng, 2)
        first = joint_rhs(rho, bath.H_e, bath, system, nonlinear)
        for given, advance in ((None, step), (first, _given_first_step)):
            ref, ref_bath = _array_step(rho, bath, system, 0.05, nonlinear, given)
            out, out_bath = advance(rho, bath, system, 0.05, nonlinear=nonlinear)
            assert out.shape == (2, 2) and out.dtype == complex
            assert np.max(np.abs(out - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
            assert abs(out_bath.H_e - ref_bath.H_e) <= 1e-14 * max(1.0, abs(ref_bath.H_e))
            assert out_bath == ref_bath.with_energy(out_bath.H_e)


def _bits(values):
    """A flat tuple of floats as hex, which tells -0.0 from 0.0."""
    return [float.hex(v) for v in values]


def _state_bits(rho, h):
    """The real and imaginary parts of every entry of a complex rho, then h, as :func:`_bits`."""
    return _bits([*rho.view(float).ravel().tolist(), h])


def test_two_level_kernel_is_bitwise_the_oracle(monkeypatch, rng):
    # the dim-2 advance, which returns the stage at the state it returns,
    # against the stage and RK step written as separate functions over rho's
    # four reals (tests/oracles.py), bit for bit: infinite and finite baths,
    # with and without bath-coupled channels, and without friction
    # (gamma0 = 0, and bath-coupled channels of weight 0 only); the advance
    # takes rho and returns it, so its reading of rho's four reals and its
    # building of the returned rho are checked too, signed zeros included
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
    # every other branch of the spectrum: exactly pure (l2 = 0), a subnormal
    # smaller eigenvalue (m/l2 overflows to inf), a negative smaller
    # eigenvalue, and no positive eigenvalue (l1 < 0, and l1 = 0 at rho = 0)
    states += [(1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.0), (1.0, 5e-324, 0.0, 0.0)]
    states += [(1.1, -0.1, 0.0, 0.0), master_equation._two_level_entries((u * [1.2, -0.2]) @ u.conj().T)]
    states += [(-0.3, -0.2, 0.1, 0.05), (0.0, 0.0, 0.0, 0.0)]
    # signed zeros, which the advance must carry through rho unchanged
    states += [(0.5, 0.5, -0.0, -0.0), (1.0, -0.0, 0.0, -0.0), (-0.0, 1.0, -0.0, 0.0), (-0.0, -0.0, -0.0, -0.0)]
    for system, bath in cases:
        for nonlinear in (True, False):
            advance = _bind(bath, system, nonlinear)
            with monkeypatch.context() as patch:
                patch.setattr(environment, "_bind_rates", oracles.two_level_bound_stage)
                oracle = _bind(bath, system, nonlinear)
            for r in states:
                rho = _two_level_matrix(*r)
                # zero steps: rho and H_e as given, and the stage at them
                zero = advance(rho, bath.H_e, 0.05, None, 0)
                assert zero[0] is rho and zero[1] == bath.H_e
                first = zero[2]
                assert _bits(first) == _bits(oracle(*r, bath.H_e))
                assert _bits(advance(rho, bath.H_e)[2]) == _bits(first)
                for steps in (1, 2, 5):
                    # an advance of 1, 2 and 5 steps, given its first stage or
                    # evaluating it, and as many one-step advances chained
                    # through the rho each returns, evaluating their first
                    # stage or handed the end stage the previous one returned,
                    # against as many oracle steps: the first evaluates its
                    # own first stage or is given the advance's, and the later
                    # ones evaluate their own; each returns the oracle's stage
                    # at the state it returns
                    outs = [advance(rho, bath.H_e, 0.05, first, steps), advance(rho, bath.H_e, 0.05, None, steps)]
                    chained, handed = (rho, bath.H_e), zero
                    for _ in range(steps):
                        chained = advance(*chained[:2], 0.05, None, 1)
                        handed = advance(*handed[:2], 0.05, handed[2], 1)
                    outs += [chained, handed]
                    for given in (None, first):
                        ref = (*r, bath.H_e)
                        for _ in range(steps):
                            ref = oracles.two_level_advance(*ref, oracle, 0.05, given)
                            given = None
                        for out in outs:
                            assert _state_bits(*out[:2]) == _state_bits(_two_level_matrix(*ref[:4]), ref[4])
                            assert _bits(out[2]) == _bits(oracle(*ref))


@VARIANTS
def test_two_level_step_invariants(rng, nonlinear):
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
        rho_new, bath_new = step(rho, bath, system, 0.01, nonlinear=nonlinear)
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
    # simulate steps a dim-2 rho through the advance it binds at the start of
    # the run, so that is where the NaN goes in; its zero-step call, the
    # stage at t = 0, stays as bound
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=1.0)
    nan = _two_level_matrix(*(np.nan,) * 4)
    bind = integrator._bind

    def bind_stepping(stepping):
        def binding(*args):
            advance = bind(*args)
            return lambda rho, h, dt, first, steps: (
                stepping(advance, h, dt, first, steps) if steps else advance(rho, h, dt, first, steps)
            )

        return binding

    # a NaN rho, with the stage at it
    monkeypatch.setattr(integrator, "_bind", bind_stepping(lambda advance, h, dt, first, steps: advance(nan, h)))
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

    def nan_step(advance, h, dt, first, steps):
        return advance(nan, h, dt, advance(nan, h)[2], steps)

    monkeypatch.setattr(integrator, "_bind", bind_stepping(nan_step))
    traj = simulate(I2 / 2, bath, system, cfg, nonlinear=nonlinear)
    assert traj.termination == MONITOR_VIOLATION
    assert traj.violation == "state went non-finite: finite bath energy H_e=nan in the step to t=0.01"
    assert [point.t for point in traj.points] == [0.0]


@VARIANTS
def test_simulate_matches_array_step_loop(rng, nonlinear):
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
    cfg = IntegratorConfig(dt=0.01, t_end=2.4, monitor_every=7)
    for bath in baths:
        rho0 = 0.5 * (random_density(rng, 2) + I2 / 2)
        traj = simulate(rho0, bath, system, cfg, nonlinear=nonlinear)
        assert traj.termination == COMPLETED
        rho, ref_bath, energy_ref, reference = rho0, bath, None, []
        for k in range(cfg.n_steps + 1):
            if k:
                rho, ref_bath = _array_step(rho, ref_bath, system, cfg.dt, nonlinear, None)
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
@VARIANTS
def test_sampling_cadence_does_not_change_the_arithmetic(rng, dim, setup, nonlinear):
    # simulate advances a whole sampled interval per call: at monitor_every
    # 1, 7 and n_steps, every point at a shared t is the same, bit for bit,
    # with an infinite and with a finite bath
    system, finite = setup()
    infinite = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    rho0 = random_density(rng, dim)
    for bath in (infinite, finite):
        runs = []
        for every in (1, 7, 60):
            cfg = IntegratorConfig(dt=0.01, t_end=0.6, monitor_every=every)
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


# (dim, nonlinear) -> (violation, number of points, last recorded H_e),
# as the loop over step gave them, with monitor_every=4, dt=0.05
DRAINED = {
    (2, True): ("H_e=-0.0015102 in the step to t=0.55", 3, 0.042551615563457434),
    (2, False): ("H_e=-0.00561274 in the step to t=0.6", 3, 0.04505042847972897),
    (3, True): ("H_e=-0.0113941 in the step to t=0.25", 2, 0.02627019677251277),
    (3, False): ("H_e=-0.00749331 in the step to t=0.25", 2, 0.02971915892339689),
}


@pytest.mark.parametrize("dim, nonlinear", DRAINED, ids=[f"{dim}-{nonlinear}-rk4" for dim, nonlinear in DRAINED])
def test_drained_bath_between_sampled_points(dim, nonlinear):
    # the bath drains in a step between recorded points: the run ends where
    # stepping bath snapshots did, with the same text, the same points and
    # the same last bath energy; so does a run whose last step is the
    # draining one
    violation, n_points, last_H_e = DRAINED[dim, nonlinear]
    setup, rho0 = {
        2: (_finite_bath_setup, pauli_compose(1.0, np.array([0.0, 0.0, -0.99]))),
        3: (_three_level_setup, np.diag([0.001, 0.001, 0.998]).astype(complex)),
    }[dim]
    system, bath = _heated(*setup(C_e=1.0, H_e0=0.2))
    t_drained = float(violation.rsplit("t=", 1)[1])
    k_d = round(t_drained / 0.05)  # the draining step
    for t_end in (10.0, t_drained):
        cfg = IntegratorConfig(dt=0.05, t_end=t_end, monitor_every=4)
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
            cadence = IntegratorConfig(dt=0.05, t_end=t_end, monitor_every=every)
            runs.append(simulate(rho0, bath, system, cadence, nonlinear=nonlinear))
        dense = {point.t: _point_bits(point) for point in runs[0].points}
        for run in runs + [traj]:
            assert (run.termination, run.violation) == (traj.termination, traj.violation)
            assert all(_point_bits(point) == dense[point.t] for point in run.points)
