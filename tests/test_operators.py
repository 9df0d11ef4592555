import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from thermoqme import (
    NATURAL,
    PhysicalConstants,
    canonical_correlation,
    commutator,
    log_density,
    modified_operator,
    modified_operator_quadrature,
    nonlinear_part,
    operator_function,
    spectral_decompose,
    validate_density_matrix,
    validate_hermitian,
    von_neumann_entropy,
)
from thermoqme.operators import _pairwise_log_mean
from thermoqme.two_level import SIGMA, pauli_compose, pauli_function, PauliVector

from conftest import random_density, random_hermitian

S1, S2, S3 = SIGMA
I2 = np.eye(2, dtype=complex)

# Logarithmic mean of the populations 0.75, 0.25, frozen from the scalar
# oracle 0.5 / ln 3 and cross-checked below against 64-node quadrature.
LOG_MEAN_75_25 = 0.45511961331341866


def test_physical_constants_validation():
    assert NATURAL.hbar == 1.0 and NATURAL.kB == 1.0
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(kB=-1.0)


def test_commutator_pauli_pair():
    assert np.allclose(commutator(S1, S2), 2j * S3, atol=1e-15)


def test_commutator_trivial_cases(rng):
    a = random_hermitian(rng, 4)
    assert np.allclose(commutator(a, a), 0.0, atol=1e-14)
    assert np.allclose(commutator(S3, I2), 0.0)


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutator(S1, np.eye(3))


def test_commutator_anti_hermitian(rng):
    for dim in (2, 3, 5):
        c = commutator(random_hermitian(rng, dim), random_hermitian(rng, dim))
        assert np.max(np.abs(c + c.conj().T)) < 1e-13


def test_spectral_decompose_diagonal_inputs():
    w, u = spectral_decompose(S3)
    assert np.allclose(w, [1.0, -1.0])
    assert np.allclose(u @ u.conj().T, I2, atol=1e-12)
    w, _ = spectral_decompose(np.diag([0.75, 0.25]).astype(complex))
    assert np.allclose(w, [0.75, 0.25])


def test_spectral_decompose_two_level_eigenvalues(rng):
    # eigenvalues of (alpha I + a.sigma)/2 are (alpha +- |a|)/2
    for _ in range(10):
        alpha = rng.normal()
        a = rng.normal(size=3)
        w, _ = spectral_decompose(pauli_compose(alpha, a))
        norm = np.linalg.norm(a)
        assert np.allclose(w, [(alpha + norm) / 2, (alpha - norm) / 2], atol=1e-12)


def test_spectral_decompose_invariants(rng):
    for dim in (2, 3, 4, 6):
        a = random_hermitian(rng, dim)
        dec = spectral_decompose(a)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-14)
        assert np.max(np.abs(dec.reconstruct() - a)) < 1e-10
        u = dec.eigenvectors
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10


def test_spectral_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_operator_function_identity(rng):
    a = random_hermitian(rng, 3)
    assert np.allclose(operator_function(a, lambda x: x), a, atol=1e-12)


def test_operator_function_exp_diagonal():
    out = operator_function(np.diag([0.0, math.log(2.0)]).astype(complex), math.exp)
    assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-14)


def test_operator_function_commutes_with_input(rng):
    a = random_hermitian(rng, 4)
    out = operator_function(a, math.exp)
    assert np.max(np.abs(commutator(out, a))) < 1e-11


def test_operator_function_matches_two_level_closed_form(rng):
    for _ in range(10):
        alpha = rng.normal()
        a = rng.normal(size=3)
        matrix = pauli_compose(alpha, a)
        shift = abs(alpha) + np.linalg.norm(a)  # keep the spectrum positive for log
        via_spectrum = operator_function(matrix, lambda x: math.log(x + shift + 1.0))
        via_pauli = pauli_function(
            PauliVector(alpha, a), lambda x: math.log(x + shift + 1.0)
        ).to_matrix()
        assert np.max(np.abs(via_spectrum - via_pauli)) < 1e-12


def test_operator_function_domain_error():
    with pytest.raises(ValueError, match="not defined"):
        operator_function(np.diag([1.0, 0.0]).astype(complex), math.log)


def test_modified_operator_maximally_mixed(rng):
    a = random_hermitian(rng, 2)
    assert np.allclose(modified_operator(I2 / 2, a), a / 2, atol=1e-14)


def test_modified_operator_commuting_case(rng):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    a = np.diag(rng.normal(size=3)).astype(complex)
    assert np.allclose(modified_operator(rho, a), a @ rho, atol=1e-14)


def test_modified_operator_frozen_value():
    out = modified_operator(np.diag([0.75, 0.25]).astype(complex), S1)
    assert abs(out[0, 1] - LOG_MEAN_75_25) < 1e-14
    assert abs(out[1, 0] - LOG_MEAN_75_25) < 1e-14
    assert abs(out[0, 0]) < 1e-14 and abs(out[1, 1]) < 1e-14
    # same number from the independent quadrature oracle
    via_quad = modified_operator_quadrature(np.diag([0.75, 0.25]).astype(complex), S1, 64)
    assert np.max(np.abs(out - via_quad)) < 1e-12


def _log_mean_reference(p: float, q: float) -> float:
    """(p - q)/(ln p - ln q) in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = Decimal(p), Decimal(q)
        return float(a if a == b else (a - b) / (a.ln() - b.ln()))


@pytest.mark.parametrize(
    "gap", [1e-15, 1e-14, 1e-13, 1e-12, 3e-12, 1e-11, 1e-10, 1e-9, 1e-7, 1e-4, 1e-2, 1e-1, 1e1, 1e6, 1e300]
)
@pytest.mark.parametrize("p", [0.5, 0.3, 1e-6, 5e-324])
def test_log_mean_near_degenerate_precision(p, gap):
    q = p * (1.0 + gap)
    expected = _log_mean_reference(p, q)
    d = _pairwise_log_mean(np.array([p, q]))
    assert d[0, 1] == d[1, 0]
    assert abs(d[0, 1] - expected) <= 1e-14 * expected
    # and through the modified operator of the normalized state
    rho = np.diag(np.array([p, q]) / (p + q)).astype(complex)
    out = modified_operator(rho, S1)
    expected = _log_mean_reference(p / (p + q), q / (p + q))
    assert abs(out[0, 1] - expected) <= 1e-14 * expected


@pytest.mark.parametrize("p, q", [(5e-324, 1.0), (1e-310, 1e300), (5e-324, 0.3)])
def test_log_mean_extreme_ratio(p, q):
    # (q - p)/p overflows here; the mean must still be finite, exact and symmetric
    d = _pairwise_log_mean(np.array([q, p]))
    assert d[0, 1] == d[1, 0]
    assert abs(d[0, 1] - _log_mean_reference(p, q)) <= 1e-14 * _log_mean_reference(p, q)
    assert d[0, 0] == q and d[1, 1] == p


def test_modified_operator_trace_and_hermiticity(rng):
    for dim in (2, 3, 5):
        rho = random_density(rng, dim)
        a = random_hermitian(rng, dim)
        out = modified_operator(rho, a)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert abs(np.trace(out) - np.trace(a @ rho)) < 1e-12


def test_modified_operator_linear_in_observable(rng):
    rho = random_density(rng, 4)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    c = rng.normal()
    lhs = modified_operator(rho, c * a + b)
    rhs = c * modified_operator(rho, a) + modified_operator(rho, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_modified_operator_matches_quadrature(rng):
    for dim in (2, 3, 4, 5):
        for _ in range(5):
            rho = random_density(rng, dim)
            a = random_hermitian(rng, dim)
            direct = modified_operator(rho, a)
            quad = modified_operator_quadrature(rho, a, 64)
            assert np.linalg.norm(direct - quad) < 1e-10


def test_modified_operator_log_identity(rng):
    # [A, rho] = [modified(A), ln rho] on full-rank states
    for dim in (2, 3, 4, 5):
        rho = random_density(rng, dim, min_eig=1e-2)
        a = random_hermitian(rng, dim)
        lhs = commutator(a, rho)
        rhs = commutator(modified_operator(rho, a), log_density(rho))
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_quadrature_maximally_mixed(rng):
    a = random_hermitian(rng, 3)
    out = modified_operator_quadrature(np.eye(3, dtype=complex) / 3, a, 32)
    assert np.allclose(out, a / 3, atol=1e-13)


def test_quadrature_pure_state(rng):
    # d(1, 0) = 0 kills coherences; only the populated diagonal entry survives
    rho = np.diag([1.0, 0.0]).astype(complex)
    a = random_hermitian(rng, 2)
    expected = np.diag([a[0, 0], 0.0])
    assert np.allclose(modified_operator_quadrature(rho, a, 64), expected, atol=1e-13)
    assert np.allclose(modified_operator(rho, a), expected, atol=1e-13)


def test_quadrature_converges_with_nodes(rng):
    # near-pure state: the quadrature closes in on the divided-difference
    # value as the node count grows
    rho = np.diag([1.0 - 1e-6, 1e-6]).astype(complex)
    target = modified_operator(rho, S1)
    errors = [
        np.linalg.norm(modified_operator_quadrature(rho, S1, n) - target) for n in (4, 8, 12, 64)
    ]
    # superexponential convergence until the roundoff floor
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-12 and errors[3] < 1e-12


def test_quadrature_rejects_bad_node_count(rng):
    with pytest.raises(ValueError, match="nodes"):
        modified_operator_quadrature(I2 / 2, S1, 1)


def test_nonlinear_part_maximally_mixed(rng):
    a = random_hermitian(rng, 2)
    assert np.allclose(nonlinear_part(I2 / 2, a), 0.0, atol=1e-14)


def test_nonlinear_part_frozen_value():
    out = nonlinear_part(np.diag([0.75, 0.25]).astype(complex), S1)
    assert abs(out[0, 1] - (2 * LOG_MEAN_75_25 - 1.0)) < 1e-14
    assert abs(out[0, 1] - (-0.08976077337316268)) < 1e-14


def test_nonlinear_part_traceless(rng):
    for dim in (2, 4):
        out = nonlinear_part(random_density(rng, dim), random_hermitian(rng, dim))
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_nonlinear_part_vanishes_when_commuting(rng):
    rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
    a = np.diag(rng.normal(size=3)).astype(complex)
    assert np.max(np.abs(nonlinear_part(rho, a))) < 1e-12


def test_canonical_correlation_reduces_to_average(rng):
    for dim in (2, 3):
        rho = random_density(rng, dim)
        a = random_hermitian(rng, dim)
        assert abs(
            canonical_correlation(rho, a, np.eye(dim)) - np.trace(a @ rho).real
        ) < 1e-12


def test_canonical_correlation_frozen_value():
    rho = np.diag([0.75, 0.25]).astype(complex)
    assert abs(canonical_correlation(rho, S1, S1) - 2 * LOG_MEAN_75_25) < 1e-13
    assert abs(canonical_correlation(rho, S1, S1) - 0.9102392266268373) < 1e-13


def test_canonical_correlation_symmetry_and_positivity(rng):
    for _ in range(10):
        rho = random_density(rng, 3)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        assert abs(canonical_correlation(rho, a, b) - canonical_correlation(rho, b, a)) < 1e-12
        assert canonical_correlation(rho, a, a) >= -1e-12


def test_log_density_examples():
    rho = np.diag([math.exp(-1.0), 1.0 - math.exp(-1.0)]).astype(complex)
    out = log_density(rho)
    assert np.allclose(np.sort(np.diagonal(out).real), sorted([-1.0, math.log(1 - math.exp(-1.0))]), atol=1e-12)
    assert np.allclose(log_density(I2 / 2), -math.log(2.0) * I2, atol=1e-13)


def test_log_density_floor_on_pure_state():
    out = log_density(np.diag([1.0, 0.0]).astype(complex), floor=1e-14)
    assert np.allclose(sorted(np.diagonal(out).real), [math.log(1e-14), 0.0], atol=1e-12)
    with pytest.raises(ValueError, match="floor"):
        log_density(I2 / 2, floor=0.0)


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert abs(von_neumann_entropy(I2 / 2) - math.log(2.0)) < 1e-14
    assert abs(von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex)) - 0.5623351446188083) < 1e-14
    # k_B scaling
    k2 = PhysicalConstants(kB=2.0)
    assert abs(von_neumann_entropy(I2 / 2, k2) - 2.0 * math.log(2.0)) < 1e-14


def test_von_neumann_entropy_bounds(rng):
    for dim in (2, 3, 5):
        s = von_neumann_entropy(random_density(rng, dim))
        assert 0.0 <= s <= math.log(dim) + 1e-12


def test_validate_hermitian_rejects_bad_input():
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="dimension"):
        validate_hermitian(np.array([[1.0]]))
    with pytest.raises(ValueError, match="square"):
        validate_hermitian(np.ones((2, 3)))


def test_validate_density_matrix(rng):
    rho = random_density(rng, 3)
    validate_density_matrix(rho)
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.diag([0.5, 0.3]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))
