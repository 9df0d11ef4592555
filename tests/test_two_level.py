import math

import numpy as np
import pytest

from thermoqme import (
    CouplingChannel,
    PauliVector,
    TwoLevelParams,
    bloch_equilibrium,
    bloch_linearized_matrix,
    bloch_nonlinear_part,
    bloch_rhs,
    check_bath_equilibrium,
    commutator,
    energy_expectation,
    mu,
    mu_derivative,
    nonlinear_part,
    pauli_compose,
    pauli_decompose,
    validate_density_matrix,
)
from thermoqme.two_level import SIGMA, _MU_SERIES, _MU_SERIES_SWITCH

from oracles import (
    bloch_nonlinear_part_uniform_form,
    pauli_anticommutator,
    pauli_commutator,
    pauli_function,
)

S1, S2, S3 = SIGMA
I2 = np.eye(2, dtype=complex)
Q3 = np.array([0.0, 0.0, 1.0])

MU_HALF = 0.35904309349265073  # 4 - 1/(0.5 artanh 0.5), scalar oracle


def _params(omega=1.0, gamma0=1.0, T_e=0.5, **kw):
    return TwoLevelParams(omega=omega, gamma0=gamma0, T_e=T_e, **kw)


def test_pauli_compose_examples():
    assert np.allclose(pauli_compose(0.0, [0.0, 0.0, 2.0]), S3)
    assert np.allclose(pauli_compose(2.0, np.zeros(3)), I2)


def test_pauli_round_trip_exact(rng):
    for _ in range(20):
        alpha = rng.normal()
        a = rng.normal(size=3)
        back = pauli_decompose(pauli_compose(alpha, a))
        assert abs(back.alpha - alpha) <= 1e-15 * max(1.0, abs(alpha))
        assert np.max(np.abs(back.a - a)) <= 1e-15 * max(1.0, np.max(np.abs(a)))


def test_pauli_density_iff_inside_ball(rng):
    inside = pauli_compose(1.0, [0.3, -0.2, 0.6])
    validate_density_matrix(inside)
    outside = pauli_compose(1.0, [0.9, 0.0, 0.9])
    assert np.linalg.eigvalsh(outside)[0] < 0.0


def test_pauli_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pauli_commutator_matches_matrices(rng):
    a = PauliVector(0.0, np.array([2.0, 0.0, 0.0]))
    b = PauliVector(0.0, np.array([0.0, 2.0, 0.0]))
    c = pauli_commutator(a, b)
    assert np.allclose(c.a, [0.0, 0.0, 4.0])
    assert np.allclose(1j * c.to_matrix(), commutator(S1, S2))
    # parallel vectors commute
    par = pauli_commutator(PauliVector(1.0, np.array([1.0, 2.0, 3.0])), PauliVector(0.0, np.array([2.0, 4.0, 6.0])))
    assert np.allclose(par.a, 0.0)
    for _ in range(10):
        x = PauliVector(rng.normal(), rng.normal(size=3))
        y = PauliVector(rng.normal(), rng.normal(size=3))
        assert np.allclose(
            1j * pauli_commutator(x, y).to_matrix(),
            commutator(x.to_matrix(), y.to_matrix()),
            atol=1e-13,
        )


def test_pauli_double_commutator_identity(rng):
    # [A, [A, B]] = compose(0, [a^2 I - a a].b)
    for _ in range(10):
        x = PauliVector(rng.normal(), rng.normal(size=3))
        y = PauliVector(rng.normal(), rng.normal(size=3))
        a, b = x.a, y.a
        vec = np.dot(a, a) * b - a * np.dot(a, b)
        xm, ym = x.to_matrix(), y.to_matrix()
        assert np.allclose(commutator(xm, commutator(xm, ym)), pauli_compose(0.0, vec), atol=1e-12)


def test_pauli_anticommutator_and_trace_identity(rng):
    for _ in range(10):
        x = PauliVector(rng.normal(), rng.normal(size=3))
        y = PauliVector(rng.normal(), rng.normal(size=3))
        anti = pauli_anticommutator(x, y)
        xm, ym = x.to_matrix(), y.to_matrix()
        assert np.allclose(anti.to_matrix(), xm @ ym + ym @ xm, atol=1e-13)
        # 2 tr(AB) = alpha beta + a.b
        lhs = 2.0 * np.trace(xm @ ym).real
        rhs = x.alpha * y.alpha + float(np.dot(x.a, y.a))
        assert abs(lhs - rhs) < 1e-13


def test_pauli_function_examples(rng):
    x = PauliVector(0.4, np.array([0.1, -0.7, 0.3]))
    ident = pauli_function(x, lambda v: v)
    assert abs(ident.alpha - x.alpha) < 1e-14
    assert np.allclose(ident.a, x.a, atol=1e-14)
    # exp of sigma3: eigenvalues +-1
    out = pauli_function(PauliVector(0.0, np.array([0.0, 0.0, 2.0])), math.exp)
    assert np.allclose(out.to_matrix(), np.diag([math.e, 1.0 / math.e]), atol=1e-14)
    # zero-vector branch
    out0 = pauli_function(PauliVector(2.0, np.zeros(3)), math.exp)
    assert np.allclose(out0.to_matrix(), math.e * I2, atol=1e-14)
    with pytest.raises(ValueError, match="not defined"):
        pauli_function(PauliVector(0.0, np.array([0.0, 0.0, 2.0])), lambda v: math.log(v))


def test_pauli_function_power_matches_matrix_power(rng):
    # rho^lambda through the closed form equals the spectral computation
    for _ in range(10):
        m = rng.normal(size=3)
        m *= rng.uniform(0.05, 0.95) / np.linalg.norm(m)
        lam = rng.uniform(0.1, 0.9)
        closed = pauli_function(PauliVector(1.0, m), lambda p: p**lam).to_matrix()
        rho = pauli_compose(1.0, m)
        w, u = np.linalg.eigh(rho)
        spectral = (u * w**lam) @ u.conj().T
        assert np.max(np.abs(closed - spectral)) < 1e-12


def test_mu_small_magnetization_limit():
    assert abs(mu(1e-6) - 1.0 / 3.0) < 1e-9
    assert abs(mu(0.0) - 1.0 / 3.0) < 1e-15


def test_mu_frozen_value():
    assert abs(mu(0.5) - MU_HALF) < 1e-12
    oracle = 1.0 / 0.25 - 1.0 / (0.5 * math.atanh(0.5))
    assert abs(mu(0.5) - oracle) < 1e-14


def test_mu_branch_continuity():
    m = _MU_SERIES_SWITCH
    c0, c1, c2, c3, c4 = _MU_SERIES
    m2 = m * m
    series = c0 + m2 * (c1 + m2 * (c2 + m2 * (c3 + m2 * c4)))
    closed = 1.0 / m2 - 1.0 / (m * math.atanh(m))
    assert abs(series - closed) < 1e-12
    # from the switch upward mu() takes the closed branch; 1e-12 covers the
    # rounding difference between equivalent artanh evaluations there
    assert abs(mu(m) - closed) < 1e-12


def test_mu_monotone_and_approaches_one():
    grid = np.linspace(0.0, 0.999, 1000)
    values = np.array([mu(float(m)) for m in grid])
    assert np.all(np.diff(values) > 0.0)
    # logarithmically slow approach to the boundary value 1
    for k in range(2, 13):
        m = 1.0 - 10.0**-k
        gap = 1.0 - mu(m)
        assert 0.0 < gap <= 2.2 / math.log(2.0 * 10.0**k)
    assert mu(1.0 - 1e-12) > 0.92


def test_mu_domain_errors():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="magnitude"):
            mu(bad)
        with pytest.raises(ValueError, match="magnitude"):
            mu_derivative(bad)


def test_mu_derivative_finite_difference():
    h = 1e-5
    for m in np.arange(0.1, 0.95, 0.1):
        fd = (mu(m + h) - mu(m - h)) / (2.0 * h)
        assert abs(mu_derivative(float(m)) - fd) <= 1e-7


def test_mu_derivative_limits():
    assert abs(mu_derivative(0.0)) == 0.0
    assert abs(mu_derivative(1e-6) - (8.0 / 45.0) * 1e-6) < 1e-15
    assert mu_derivative(0.5) > 0.0
    # branch agreement at the switch
    m = _MU_SERIES_SWITCH
    _, c1, c2, c3, c4 = _MU_SERIES
    m2 = m * m
    series = m * (2 * c1 + m2 * (4 * c2 + m2 * (6 * c3 + m2 * 8 * c4)))
    assert abs(series - mu_derivative(m)) < 1e-9


def test_bloch_nonlinear_part_special_cases(rng):
    zero = bloch_nonlinear_part(np.zeros(3), rng.normal(size=3))
    assert np.allclose(zero.a, 0.0) and zero.alpha == 0.0
    # a parallel to m: commuting case
    m = np.array([0.2, -0.1, 0.4])
    par = bloch_nonlinear_part(m, 3.0 * m)
    assert np.max(np.abs(par.a)) < 1e-15


def test_bloch_nonlinear_part_frozen_value():
    out = bloch_nonlinear_part(0.5 * Q3, np.array([2.0, 0.0, 0.0]))
    matrix = out.to_matrix()
    assert abs(matrix[0, 1] - (-0.08976077337316268)) < 1e-12
    assert abs(out.a[0] - (-2.0 * 0.25 * MU_HALF)) < 1e-12


def test_bloch_nonlinear_part_matches_generic_engine(rng):
    for _ in range(20):
        m = rng.normal(size=3)
        m *= rng.uniform(0.02, 0.95) / np.linalg.norm(m)
        alpha = rng.normal()
        a = rng.normal(size=3)
        closed = bloch_nonlinear_part(m, a).to_matrix()
        direct = nonlinear_part(pauli_compose(1.0, m), pauli_compose(alpha, a))
        assert np.max(np.abs(closed - direct)) < 1e-11


def test_bloch_nonlinear_part_uniform_form_equivalent(rng):
    for _ in range(20):
        m = rng.normal(size=3)
        m *= rng.uniform(0.02, 0.95) / np.linalg.norm(m)
        a = rng.normal(size=3)
        direct = bloch_nonlinear_part(m, a)
        alt = bloch_nonlinear_part_uniform_form(m, a)
        assert abs(direct.alpha - alt.alpha) < 1e-12
        assert np.max(np.abs(direct.a - alt.a)) < 1e-12


def test_bloch_rhs_equilibrium_fixed_point():
    for x in (0.1, 0.5, 1.0, 2.0, 5.0):
        p = _params(T_e=1.0 / (2.0 * x))
        m_eq = bloch_equilibrium(p)
        assert np.max(np.abs(bloch_rhs(m_eq, p))) < 1e-12
        assert np.linalg.norm(m_eq) < 1.0


def test_bloch_rhs_pure_precession(rng):
    p = _params(gamma0=0.0, omega=2.0)
    for _ in range(5):
        m = rng.normal(size=3)
        m *= 0.8 / np.linalg.norm(m)
        rhs = bloch_rhs(m, p)
        assert np.allclose(rhs, 2.0 * np.array([-m[1], m[0], 0.0]))
        assert abs(np.dot(m, rhs)) < 1e-15  # |m| exactly conserved


def test_bloch_rhs_at_origin():
    p = _params(gamma0=0.7)
    assert np.allclose(bloch_rhs(np.zeros(3), p), -0.7 * Q3)


def test_bloch_rhs_isotropic_flag():
    # transverse and longitudinal damping coincide once the third channel is on
    p_iso = _params(isotropic=True)
    kT_term = p_iso.gamma0 * p_iso.T_e / p_iso.omega
    m_perp = np.array([0.4, 0.0, 0.0])
    rhs = bloch_rhs(m_perp, p_iso)
    # remove precession before comparing
    rhs_damp = rhs - p_iso.omega * np.array([-m_perp[1], m_perp[0], 0.0])
    expected = -2.0 * kT_term * m_perp + 0.5 * p_iso.gamma0 * mu(0.4) * (0.16 * Q3) - p_iso.gamma0 * Q3
    assert np.allclose(rhs_damp, expected, atol=1e-14)
    # equilibrium unchanged by the isotropic option
    assert np.max(np.abs(bloch_rhs(bloch_equilibrium(p_iso), p_iso))) < 1e-12


def test_bloch_equilibrium_values():
    p = _params(T_e=0.5)  # x = 1
    assert np.allclose(bloch_equilibrium(p), [0.0, 0.0, -math.tanh(1.0)])
    assert abs(bloch_equilibrium(p)[2] + 0.7615941559557649) < 1e-15
    hot = _params(T_e=1e12)
    assert np.max(np.abs(bloch_equilibrium(hot))) < 1e-9
    # cold limit: the equilibrium hugs the boundary from inside (x = 15 is
    # the coldest point where 1 - tanh(x) is still resolvable in float64),
    # while the linearized steady state sits at magnitude x far outside
    m_eq15 = bloch_equilibrium(_params(T_e=1.0 / 30.0))
    assert 0.0 < 1.0 - np.linalg.norm(m_eq15) < 1e-9
    # at x = 50, tanh underflows onto the boundary itself, never beyond
    m_eq50 = bloch_equilibrium(_params(T_e=0.01))
    assert np.linalg.norm(m_eq50) <= 1.0
    linearized_steady = 50.0  # |m| of -q3 * x
    assert linearized_steady > 1.0


# cold x = hbar omega / (2 k_B T_e): tanh x rounds to 1 from x = 19.06 on
COLD = (7.0, 10.0, 19.0, 20.0, 100.0)


def _longitudinal_rate(p):
    """-gamma0 sinh(2x)/(2x^2), the closed-form longitudinal entry of the
    Jacobian at the x the matrix is built for (hbar = omega = k_B = 1)."""
    x = 1.0 / (2.0 * p.T_e)
    return -p.gamma0 * math.sinh(2.0 * x) / (2.0 * x * x)


def test_bloch_linearized_matrix_finite_differences():
    # against central differences of bloch_rhs; at cold x, where the
    # equilibrium sits within 1e-6 of the boundary (or on it) and no
    # difference resolves the stiff longitudinal mode, the (3, 3) entry
    # against its closed form, transverse and isotropic (bound fixed before
    # measuring: 1e-15 relative)
    h = 1e-6
    for x in (0.1, 0.5, 1.0, 1.5) + COLD:
        for ratio in (0.05, 0.5):
            p = _params(gamma0=ratio, T_e=1.0 / (2.0 * x))
            if x in COLD:
                for q in (p, _params(gamma0=ratio, T_e=p.T_e, isotropic=True)):
                    ref = _longitudinal_rate(q)
                    assert abs(bloch_linearized_matrix(q)[2, 2] - ref) <= 1e-15 * abs(ref)
                continue
            m_eq = bloch_equilibrium(p)
            jac = bloch_linearized_matrix(p)
            for k in range(3):
                dm = np.zeros(3)
                dm[k] = h
                fd = (bloch_rhs(m_eq + dm, p) - bloch_rhs(m_eq - dm, p)) / (2.0 * h)
                assert np.max(np.abs(jac[:, k] - fd)) < 1e-7


def test_bloch_linearized_matrix_rotation_limit():
    p = _params(gamma0=0.0, omega=1.7)
    eig = np.linalg.eigvals(bloch_linearized_matrix(p))
    assert np.allclose(sorted(eig.imag), [-1.7, 0.0, 1.7], atol=1e-14)
    assert np.allclose(eig.real, 0.0, atol=1e-14)


def test_bloch_linearized_matrix_stable(rng):
    for x in (0.1, 0.5, 1.0, 2.0, 5.0) + COLD:
        for ratio in (0.01, 0.1, 1.0, 3.0):
            p = _params(gamma0=ratio, T_e=1.0 / (2.0 * x))
            jac = bloch_linearized_matrix(p)
            eig = np.linalg.eigvals(jac)
            assert np.max(eig.real) <= 1e-12
            if x in COLD:  # bound fixed before measuring: 1e-15 relative
                ref = _longitudinal_rate(p)
                assert abs(jac[2, 2] - ref) <= 1e-15 * abs(ref)


def test_dissipative_outflow_near_boundary(rng):
    # d|m|^2/dt <= 0 on the sphere of radius 1 - 1e-9 whenever the
    # equilibrium magnetization tanh(x) lies inside that radius (x <= ~10.7);
    # at larger x the flow may legitimately point outward toward the
    # equilibrium, which still sits inside the unit ball.
    radius = 1.0 - 1e-9
    directions = [np.array(v, dtype=float) for v in [
        (0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0),
        (0.6, 0.0, 0.8), (0.6, 0.0, -0.8), (-0.5, 0.5, -np.sqrt(0.5)),
    ]]
    for x in (0.1, 1.0, 5.0, 10.0):
        assert math.tanh(x) < radius
        p = _params(T_e=1.0 / (2.0 * x))
        for direction in directions:
            m = radius * direction / np.linalg.norm(direction)
            deriv = 2.0 * float(np.dot(m, bloch_rhs(m, p)))
            assert deriv <= 1e-12, (x, direction, deriv)


def test_outflow_never_positive_on_exact_boundary():
    # on |m| = 1 the pump and the nonlinearity cancel and only the damping
    # survives: d|m|^2/dt = -2 gamma0 (k_B T/hbar omega)(1 + m3^2) < 0
    p = _params(T_e=0.05)
    for direction in [(0, 0, -1.0), (0, 0, 1.0), (1.0, 0, 0), (0.6, 0, -0.8)]:
        m = np.array(direction) / np.linalg.norm(direction)
        deriv = 2.0 * float(np.dot(m, bloch_rhs(m, p)))
        expected = -2.0 * p.gamma0 * (p.T_e / p.omega) * (1.0 + m[2] ** 2)
        assert abs(deriv - expected) < 1e-12
        assert deriv < 0.0


def test_bloch_rhs_rejects_outside_ball():
    p = _params()
    with pytest.raises(ValueError, match="outside"):
        bloch_rhs(np.array([0.0, 0.0, 1.1]), p)


def test_two_level_params_validation():
    with pytest.raises(ValueError, match="omega"):
        TwoLevelParams(omega=0.0, gamma0=1.0, T_e=1.0)
    with pytest.raises(ValueError, match="T_e"):
        TwoLevelParams(omega=1.0, gamma0=1.0, T_e=-1.0)
    with pytest.raises(ValueError, match="gamma0"):
        TwoLevelParams(omega=1.0, gamma0=-0.1, T_e=1.0)
    with pytest.raises(ValueError, match="T_e"):
        TwoLevelParams(omega=1.0, gamma0=1.0, T_e=math.nan)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: check_bath_equilibrium(CouplingChannel(S1, 1.0, 1.0), 0.0), "temperature must be positive"),
        (lambda: energy_expectation(I2 / 2, np.eye(3)), "dimension mismatch"),
        (lambda: PauliVector(1.0, [0.0, 0.0]), r"shape \(3,\)"),
        (lambda: pauli_compose(1.0, [0.0, 0.0, 0.0, 0.0]), r"shape \(3,\)"),
        (lambda: pauli_decompose(np.eye(3)), "expected a 2x2 matrix"),
        (lambda: pauli_decompose([[math.nan, 0.0], [0.0, 1.0]]), r"^matrix: entry \(0, 0\) is not finite"),
        (lambda: pauli_decompose([[1.0, 0.0], [0.0, -math.inf]]), r"^matrix: entry \(1, 1\) is not finite"),
        (lambda: _params(isotropic=True, q3_weight=-1.0), "q3_weight must be nonnegative"),
        (lambda: bloch_nonlinear_part([0.6, 0.0, 0.8], Q3), "strictly inside the unit ball"),
    ],
    ids=[
        "bath_equilibrium_T0",
        "energy_shapes",
        "pauli_vector_shape",
        "pauli_compose_shape",
        "pauli_decompose_shape",
        "pauli_decompose_nan",
        "pauli_decompose_inf",
        "q3_weight_negative",
        "nonlinear_part_on_sphere",
    ],
)
def test_input_checks(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
