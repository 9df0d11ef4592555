"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see
them).  Scenario-type criteria load the checked-in configuration files under
configs/.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from thermoqme import (
    CouplingChannel,
    QuantumSystem,
    TwoLevelParams,
    bloch_linearized_matrix,
    bloch_rhs,
    commutator,
    equilibrium_state,
    load_config,
    master_rhs,
    modified_operator,
    mu,
    pauli_decompose,
    simulate,
    step,
    two_level_bath,
    two_level_system,
)
from thermoqme.cli import main as cli_main
from thermoqme.config import build_run
from thermoqme.integrator import COMPLETED

from conftest import random_density, random_hermitian
from oracles import log_density, modified_operator_quadrature

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RELAXATION_CONFIGS = {
    0.1: "two_level_x0p1.json",
    0.5: "two_level_x0p5.json",
    1.0: "two_level_x1.json",
    2.0: "two_level_x2.json",
    5.0: "two_level_x5.json",
}


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _simulate_config(name):
    setup = build_run(load_config(CONFIG_DIR / name))
    return setup, simulate(setup.rho0, setup.bath, setup.system, setup.integrator, setup.nonlinear)


@pytest.fixture(scope="module")
def relaxation_runs():
    runs = {}
    start = time.monotonic()
    for x, name in RELAXATION_CONFIGS.items():
        runs[x] = _simulate_config(name)
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def closure_run():
    start = time.monotonic()
    setup, traj = _simulate_config("finite_bath_closure.json")
    return setup, traj, time.monotonic() - start


def test_criterion_1_equilibrium_fixed_point(rng):
    start = time.monotonic()
    temperatures = (0.25, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for k in range(20):
        dim = 2 + k % 4
        h = random_hermitian(rng, dim)
        h /= np.linalg.norm(h, 2)
        couplings = [random_hermitian(rng, dim) for _ in range(2)]
        for temperature in temperatures:
            base = 0.3
            channels = tuple(
                CouplingChannel(q, friction_rate=base, diffusion_rate=base * temperature)
                for q in couplings
            )
            system = QuantumSystem(h, channels)
            rho_eq = equilibrium_state(h, temperature)
            worst = max(worst, float(np.linalg.norm(master_rhs(rho_eq, system))))
    elapsed = time.monotonic() - start
    _report(
        1,
        "Gibbs state is a fixed point for bracket-consistent rates (20 systems x 5 temperatures)",
        worst <= 1e-10 and elapsed < 10.0,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_equilibrium_magnetization(relaxation_runs):
    runs, elapsed = relaxation_runs
    worst = 0.0
    for x, (setup, traj) in runs.items():
        assert traj.termination == COMPLETED
        m3 = pauli_decompose(traj.final.rho, tol=1e-8).a[2]
        worst = max(worst, abs(m3 + math.tanh(x)))
    _report(
        2,
        "simulated m3(30/gamma0) matches -tanh(x) to 1e-6 for x in {0.1, 0.5, 1, 2, 5}",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_engine_matches_bloch_oracle():
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.5)
    system = two_level_system(p)
    dt, t_end = 0.01, 20.0
    n = int(round(t_end / dt))
    m = np.array([0.6, 0.0, 0.3])
    rho = 0.5 * (np.eye(2, dtype=complex) + m[0] * np.array([[0, 1], [1, 0]])
                 + m[2] * np.array([[1, 0], [0, -1]]))
    bath = two_level_bath(p)
    worst = 0.0
    for _ in range(n):
        rho, bath = step(rho, bath, system, dt)
        k1 = bloch_rhs(m, p)
        k2 = bloch_rhs(m + 0.5 * dt * k1, p)
        k3 = bloch_rhs(m + 0.5 * dt * k2, p)
        k4 = bloch_rhs(m + dt * k3, p)
        m = m + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        engine_m = pauli_decompose(rho, tol=1e-8).a
        worst = max(worst, float(np.max(np.abs(engine_m - m))))
    _report(
        3,
        "generic engine trajectory equals the analytic magnetization oracle (same RK4, same dt)",
        worst <= 1e-8,
        f"max |dm| {worst:.2e} over t in [0, 20]",
    )


def test_criterion_4_modified_operator_correctness(rng):
    worst_quad = 0.0
    worst_identity = 0.0
    for k in range(100):
        dim = 2 + k % 4
        rho = random_density(rng, dim, min_eig=1e-3)
        a = random_hermitian(rng, dim)
        direct = modified_operator(rho, a)
        worst_quad = max(
            worst_quad, float(np.linalg.norm(direct - modified_operator_quadrature(rho, a, 64)))
        )
        lhs = commutator(a, rho)
        rhs = commutator(direct, log_density(rho))
        worst_identity = max(worst_identity, float(np.linalg.norm(lhs - rhs)))
    _report(
        4,
        "divided differences match 64-node quadrature (1e-10) and the log commutation identity (1e-9) "
        "on 100 full-rank pairs",
        worst_quad <= 1e-10 and worst_identity <= 1e-9,
        f"quadrature {worst_quad:.2e}, identity {worst_identity:.2e}",
    )


def test_criterion_5_energy_closure(closure_run):
    setup, traj, elapsed = closure_run
    assert traj.termination == COMPLETED
    energy = traj.monitor_series("total_energy")
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    _report(
        5,
        "closed finite-bath total energy drifts < 1e-8 relative over t_end = 50/gamma0 at dt = 1e-3/gamma0",
        drift <= 1e-8,
        f"relative drift {drift:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_entropy_monitor(closure_run, relaxation_runs):
    worst_drop = 0.0
    _, closure_traj, _ = closure_run
    trajectories = [closure_traj] + [traj for _, traj in relaxation_runs[0].values()]
    for traj in trajectories:
        entropy = traj.monitor_series("total_entropy")
        worst_drop = min(worst_drop, float(np.min(np.diff(entropy))))
    _report(
        6,
        "total entropy (bath + von Neumann) never decreases along heat-bath runs",
        worst_drop >= -1e-9,
        f"worst step change {worst_drop:.2e}",
    )


def test_criterion_7_confinement_vs_linearized_pathology(tmp_path, relaxation_runs):
    setup, traj = _simulate_config("sphere_nonlinear_x10.json")
    assert traj.termination == COMPLETED
    radii = [float(np.linalg.norm(pauli_decompose(p.rho, tol=1e-6).a)) for p in traj.points]
    for x, (_, run) in relaxation_runs[0].items():
        radii.extend(
            float(np.linalg.norm(pauli_decompose(p.rho, tol=1e-6).a)) for p in run.points
        )
    max_radius = max(radii)
    deep = min(pauli_decompose(p.rho, tol=1e-6).a[2] for p in traj.points)

    lin_out = tmp_path / "linearized_x10.csv"
    code = cli_main(
        ["run", "--config", str(CONFIG_DIR / "sphere_linearized_x10.json"), "--out", str(lin_out)]
    )
    _report(
        7,
        "nonlinear trajectories stay in the Bloch ball for x up to 10; the linearized x = 10 run "
        "exits and terminates with the positivity flag (exit code 2)",
        max_radius <= 1.0 + 1e-9 and deep < -0.9 and code == 2 and lin_out.exists(),
        f"max |m| - 1 = {max_radius - 1.0:.2e}, linearized exit code {code}",
    )


def test_criterion_8_mu_curve():
    v_small = mu(1e-6)
    v_half = mu(0.5)
    grid = np.linspace(0.0, 0.999, 2000)
    values = np.array([mu(float(m)) for m in grid])
    monotone = bool(np.all(np.diff(values) > 0.0))
    approach = [1.0 - mu(1.0 - 10.0**-k) for k in range(3, 13)]
    toward_one = all(g > 0 for g in approach) and all(
        g1 > g2 for g1, g2 in zip(approach, approach[1:])
    ) and approach[-1] < 0.08
    _report(
        8,
        "mu(1e-6) = 1/3 +- 1e-9, mu(0.5) = 0.359043 +- 1e-6, monotone on [0, 0.999], limit toward 1",
        abs(v_small - 1.0 / 3.0) <= 1e-9
        and abs(v_half - 0.359043) <= 1e-6
        and monotone
        and toward_one,
        f"mu(0.5) = {v_half:.6f}, 1 - mu(1 - 1e-12) = {approach[-1]:.3f}",
    )


def test_criterion_9_linearization_consistency():
    h = 1e-6
    worst_fd = 0.0
    worst_real = -np.inf
    for x in (0.1, 0.25, 0.5, 1.0, 1.5):
        for ratio in (0.01, 0.05, 0.2, 0.5, 1.0):
            p = TwoLevelParams(omega=1.0, gamma0=ratio, T_e=1.0 / (2.0 * x))
            m_eq = np.array([0.0, 0.0, -math.tanh(x)])
            jac = bloch_linearized_matrix(p)
            for k in range(3):
                dm = np.zeros(3)
                dm[k] = h
                fd = (bloch_rhs(m_eq + dm, p) - bloch_rhs(m_eq - dm, p)) / (2.0 * h)
                worst_fd = max(worst_fd, float(np.max(np.abs(jac[:, k] - fd))))
            worst_real = max(worst_real, float(np.max(np.linalg.eigvals(jac).real)))
    _report(
        9,
        "analytic Jacobian matches central differences (1e-7) with no unstable mode over a "
        "5x5 (x, gamma0/omega) grid",
        worst_fd <= 1e-7 and worst_real <= 1e-12,
        f"worst FD gap {worst_fd:.2e}, max Re(eig) {worst_real:.2e}",
    )


def test_criterion_10_rk4_order():
    p = TwoLevelParams(omega=1.0, gamma0=1.0, T_e=0.5)
    system = two_level_system(p)
    rho0 = 0.5 * (np.eye(2, dtype=complex) + 0.6 * np.array([[0, 1], [1, 0]])
                  + 0.3 * np.array([[1, 0], [0, -1]]))

    def run(dt, t_end=4.0):
        rho, bath = rho0, two_level_bath(p)
        for _ in range(int(round(t_end / dt))):
            rho, bath = step(rho, bath, system, dt)
        return rho

    ref = run(0.05 / 8.0)
    e1 = float(np.max(np.abs(run(0.05) - ref)))
    e2 = float(np.max(np.abs(run(0.025) - ref)))
    ratio = e1 / e2
    _report(
        10,
        "halving dt on the relaxation scenario reduces the global error 16 +- 2 times",
        14.0 <= ratio <= 18.0,
        f"Richardson ratio {ratio:.2f}",
    )
