import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from thermoqme import (
    NATURAL,
    HeatBath,
    IntegratorConfig,
    PhysicalConstants,
    canonical_correlation,
    commutator,
    equilibrium_state,
    modified_operator,
    nonlinear_part,
    simulate,
    validate_density_matrix,
    validate_hermitian,
    von_neumann_entropy,
)
from thermoqme.master_equation import CouplingChannel, QuantumSystem, _lapack_stage, _rate_column, _rates
from thermoqme import operators
from thermoqme.operators import _masked_log_mean, _pairwise_log_mean, _two_level_spectrum
from thermoqme.two_level import SIGMA, pauli_compose, PauliVector

from conftest import random_density, random_hermitian, stage_rhs
from oracles import (
    _log_mean,
    log_density,
    modified_operator_quadrature,
    operator_function,
    pauli_function,
    spectral_decompose,
    two_level_weights,
)

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
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=math.nan)


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
    # the same rule on Python floats (the oracle)
    assert _log_mean(p, q) == _log_mean(q, p)
    assert abs(_log_mean(p, q) - expected) <= 1e-14 * expected
    # and through the modified operator of the normalized state, on both paths
    rho = np.diag(np.array([p, q]) / (p + q)).astype(complex)
    expected = _log_mean_reference(p / (p + q), q / (p + q))
    assert abs(modified_operator(rho, S1)[0, 1] - expected) <= 1e-14 * expected
    # the 2x2 path's off-diagonal weight, which is that entry for a diagonal state
    x, z = rho[0, 0].real, rho[1, 1].real
    assert abs(_two_level_spectrum(x, z, 0.0, 0.0, abs(x - z))[2] - expected) <= 1e-14 * expected


@pytest.mark.parametrize("p, q", [(5e-324, 1.0), (1e-310, 1e300), (5e-324, 0.3)])
def test_log_mean_extreme_ratio(p, q):
    # (q - p)/p overflows here; the mean must still be finite, exact and symmetric
    expected = _log_mean_reference(p, q)
    d = _pairwise_log_mean(np.array([q, p]))
    assert d[0, 1] == d[1, 0]
    assert abs(d[0, 1] - expected) <= 1e-14 * expected
    assert d[0, 0] == q and d[1, 1] == p
    # the same rule on Python floats, and the 2x2 path on the unnormalized diag(q, p)
    assert _log_mean(p, q) == _log_mean(q, p)
    assert abs(_log_mean(p, q) - expected) <= 1e-14 * expected
    assert abs(_two_level_spectrum(q, p, 0.0, 0.0, q - p)[2] - expected) <= 1e-14 * expected


def _log_mean_spectra(rng):
    """Ascending spectra with every member positive and no ratio past the
    float maximum: seeded density matrices' spectra from n = 2 to 16, exact
    ties (I/n, and a doubly degenerate level), neighbours one ulp apart, and
    subnormal members."""
    spectra = [np.linalg.eigvalsh(random_density(rng, dim)) for dim in (2, 3, 4, 8, 16)]
    spectra += [np.full(dim, 1.0 / dim) for dim in (2, 3, 16)]
    p = np.linalg.eigvalsh(random_density(rng, 6))
    spectra.append(np.sort(np.concatenate([p, p[1:3]])))
    spectra.append(np.sort(np.concatenate([p, np.nextafter(p, 1.0), np.nextafter(p, 0.0)])))
    spectra.append(np.array([5e-324, np.nextafter(5e-324, 1.0), 1e-310, 1e-300]))
    return spectra


def test_log_mean_direct_path_is_the_masked_path_bitwise(monkeypatch, rng):
    # positive spectra take the direct formula, which must give the masked
    # path's bits; a nonpositive member or an overflowing ratio takes the
    # masked path itself
    masked = []
    monkeypatch.setattr(operators, "_masked_log_mean", lambda p: masked.append(p) or _masked_log_mean(p))
    for p in _log_mean_spectra(rng):
        d = _pairwise_log_mean(p)
        assert not masked
        assert d.tobytes() == _masked_log_mean(p).tobytes()
        assert np.array_equal(np.diagonal(d), p)
    for p in (np.array([0.0, 0.4, 0.6]), np.array([-1e-17, 0.5, 0.5]), np.array([5e-324, 0.3, 1.0])):
        assert _pairwise_log_mean(p).tobytes() == _masked_log_mean(p).tobytes()
        assert masked.pop() is p


def _bloch_entries(length, theta, phi):
    """The four reals (rho00, rho11, Re rho10, Im rho10) of (I + m . sigma)/2,
    m of the given length along polar angle theta and azimuth phi."""
    mx = length * math.sin(theta) * math.cos(phi)
    my = length * math.sin(theta) * math.sin(phi)
    mz = length * math.cos(theta)
    return 0.5 + 0.5 * mz, 0.5 - 0.5 * mz, 0.5 * mx, 0.5 * my


ANGLES = ((0.0, 0.0), (0.7, 2.3), (1.9, -0.4))  # the pole, and off it

TWO_LEVEL_SPECTRA = {
    **{f"near_pure_pole_{p:g}": (1.0 - p, p, 0.0, 0.0) for p in (1e-3, 1e-8, 1e-12, 1e-16, 1e-20, 1e-100)},
    **{
        f"near_pure_{p:g}_{k}": _bloch_entries(1.0 - 2.0 * p, *angles)
        for p in (1e-3, 1e-6, 1e-9, 1e-12)
        for k, angles in enumerate(ANGLES[1:])
    },
    **{
        f"gap_{gap:g}_{k}": _bloch_entries(gap, *angles)
        for gap in (1e-15, 1e-14, 1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e-1)
        for k, angles in enumerate(ANGLES)
    },
    "degenerate": (0.5, 0.5, 0.0, 0.0),
    "degenerate_unnormalized": (0.3, 0.3, 0.0, 0.0),
    # m/l2 subnormal, and m/l2 underflowing to 0
    "subnormal_gap": (0.7, 0.7, 1e-315, 0.0),
    "underflowing_gap": (4.0, 4.0, 5e-324, 0.0),
    "subnormal_min": (1.0, 5e-324, 0.0, 0.0),
    "subnormal": (0.5, 1e-310, 0.0, 0.0),
    "subnormal_huge_ratio": (1e300, 1e-310, 0.0, 0.0),
    # re^2 underflows: the absolute term of the l2 bound
    "subnormal_off_pole": (1.0, 1e-310, 2.0**-600, 2.0**-610),
    "huge_entry": (1.5e308, 0.5, 0.5, 0.0),
    **{f"negative_eigenvalue_{k}": _bloch_entries(1.5, *angles) for k, angles in enumerate(ANGLES)},
    # l2 = -1e-12 off the pole, where det(rho) cancels: unclipped, it is min_eig
    "negative_eigenvalue_tiny": _bloch_entries(1.0 + 2e-12, *ANGLES[1]),
    "negative_trace": (-1.0, -2.0, 0.1, 0.3),
}


def _two_level_spectrum_reference(x, z, re, im):
    """(l1, l2, d) of [[x, re - i im], [re + i im, z]] in 60-digit decimal
    arithmetic from the exact float entries: l1 = (tr + gap)/2 with
    gap = sqrt((x - z)^2 + 4 |rho10|^2), l2 = det/l1, and d their
    logarithmic mean (0 unless both are positive); l1 and l2 unclipped."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, z, re, im = map(Decimal, (x, z, re, im))
        gap = ((x - z) ** 2 + 4 * (re * re + im * im)).sqrt()
        l1 = (x + z + gap) / 2
        if not l1 > 0:
            return l1, (x + z - gap) / 2, Decimal(0)
        l2 = (x * z - re * re - im * im) / l1
        r = gap / l2 if l2 > 0 else None
        if r is None:
            d = Decimal(0)
        elif r < Decimal("1e-20"):  # l2 r/ln(1 + r), where ln l1 - ln l2 would cancel
            d = l2 * (1 + r / 2 - r * r / 12)
        else:
            d = gap / (l1.ln() - l2.ln())
        return l1, l2, d


EPS = 2.0**-52


@pytest.mark.parametrize("entries", TWO_LEVEL_SPECTRA.values(), ids=TWO_LEVEL_SPECTRA.keys())
def test_two_level_weights_lose_no_digits(entries):
    # bounds fixed before measuring, against the decimal reference of the
    # exact float entries (clipped at zero as the weights are):
    # - l1 within 1e-14 relative;
    # - l2 within 4 eps (|x z| + re^2 + im^2)/l1, its conditioning as
    #   det(rho)/l1, plus 4 * 2**-1074 for rounding among subnormals;
    # - d within 1e-14 relative plus what l2's bound moves it by at fixed
    #   gap m, d^2/(l1 l2) times that bound (1/2 near degeneracy; near a pure
    #   state off the pole, det(rho) itself cancels and d follows);
    # - the unclipped _two_level_spectrum, which the weights clip: where
    #   l1 > 0, l2 (negative too) within the same bound as above; where
    #   l1 <= 0, both within 4 eps (|x| + |z| + m), the rounding of
    #   (tr rho +- m)/2
    x, z, re, im = entries
    m = math.hypot(2.0 * re, 2.0 * im, x - z)
    l1, l2, d = two_level_weights(x, z, re, im, m)
    s1, s2, sd = _two_level_spectrum(x, z, re, im, m)
    assert (l1, l2) == ((s1, max(s2, 0.0)) if s1 > 0.0 else (0.0, 0.0))
    assert d == sd
    r1, r2, rd = _two_level_spectrum_reference(x, z, re, im)
    with localcontext() as ctx:
        ctx.prec = 60
        if r1 > 0:
            b2 = Decimal(4 * EPS) * (abs(Decimal(x) * Decimal(z)) + Decimal(re) ** 2 + Decimal(im) ** 2) / r1
            assert abs(Decimal(s2) - r2) <= b2 + 4 * Decimal(2.0**-1074)
        else:
            b = Decimal(4 * EPS) * (abs(Decimal(x)) + abs(Decimal(z)) + Decimal(m))
            assert abs(Decimal(s1) - r1) <= b and abs(Decimal(s2) - r2) <= b
        r1, r2 = max(r1, Decimal(0)), max(r2, Decimal(0))
        assert abs(Decimal(l1) - r1) <= Decimal(1e-14) * r1
        if r1 == 0:
            assert (l1, l2, d) == (0.0, 0.0, 0.0)
            return
        b2 = Decimal(4 * EPS) * (abs(Decimal(x) * Decimal(z)) + Decimal(re) ** 2 + Decimal(im) ** 2) / r1
        b2 += 4 * Decimal(2.0**-1074)
        assert abs(Decimal(l2) - r2) <= b2
        if r2 == 0:
            assert d == 0.0
            return
        bd = Decimal(1e-14) * rd + rd * rd / (r1 * r2) * b2
        assert abs(Decimal(d) - rd) <= bd


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_two_level_weights_take_non_finite_input(bad):
    # no exception on any entry or on m; what comes back is not checked
    # (the stage reads the non-finite Bloch vector as well)
    for k in range(5):
        args = [0.7, 0.3, 0.1, -0.2, 0.5]
        args[k] = bad
        out = _two_level_spectrum(*args)
        assert len(out) == 3 and all(isinstance(v, float) for v in out)
    # the unclipped spectrum, which min_eig reports, is not finite for a
    # non-finite entry and the Bloch length that follows from the entries
    for k in range(4):
        args = [0.7, 0.3, 0.1, -0.2]
        args[k] = bad
        x, z, re, im = args
        assert not math.isfinite(_two_level_spectrum(x, z, re, im, math.hypot(2.0 * re, 2.0 * im, x - z))[1])
    assert len(_two_level_spectrum(bad, bad, bad, bad, bad)) == 3


def _state(w, phase=0.0, angle=0.3):
    """rho = u diag(w) u^dagger for a complex unitary u, a rotation by
    ``angle`` whose off-diagonal carries the phase e^{i phase}."""
    c, s = np.cos(angle), np.sin(angle)
    u = np.array([[c, -s * np.exp(-1j * phase)], [s * np.exp(1j * phase), c]])
    rho = (u * np.asarray(w, dtype=float)) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def _gap_state(gap):
    w = np.array([0.4, 0.4 + gap])
    return _state(w / w.sum(), phase=0.7)


TWO_BY_TWO_STATES = {
    "maximally_mixed": I2 / 2,
    **{f"gap_{gap:g}": _gap_state(gap) for gap in (1e-4, 1e-8, 1e-12, 1e-16)},
    "pure_real": np.full((2, 2), 0.5, dtype=complex),
    "pure_complex": np.array([[0.5, -0.5j], [0.5j, 0.5]]),
    "negative_eigenvalue": _state([-1e-12, 1.0 + 1e-12], phase=2.0),
    **{f"phase_{k}": _state([0.8, 0.2], phase=k * np.pi / 4) for k in range(8)},
    "diagonal": np.diag([0.7, 0.3]).astype(complex),
    "diagonal_ascending": np.diag([0.3, 0.7]).astype(complex),
    # near-pure: the smaller eigenvalue must come from the entries, not (tr -/+ |m|)/2
    **{f"near_pure_{p:g}": np.diag([1.0 - p, p]).astype(complex) for p in (4.5e-5, 2e-9, 1e-13)},
    **{f"near_pure_{p:g}_rotated": _state([1.0 - p, p], phase=1.1, angle=1e-3) for p in (4.5e-5, 2e-9, 1e-13)},
}


def _two_level_stage_cases(rng):
    """(system, friction/k_B, diffusion) triples for the n = 2 stage kernel,
    in the form the rate rule hands them over, with hbar = 0.8, k_B = 1.3:
    three fixed channels (one a random Q); no friction at all; and
    bath-coupled channels of weight 0, whose rates are exactly 0, next to a
    weighted one (bath bracket 0.9, temperature 0.6)."""
    consts = PhysicalConstants(hbar=0.8, kB=1.3)
    h = random_hermitian(rng, 2)
    qs = (0.5 * S1, 0.5 * S2, random_hermitian(rng, 2))
    fixed = QuantumSystem(h, tuple(CouplingChannel(q, 0.4, 0.3) for q in qs), consts)
    weights = (0.0, 0.7, 0.0)
    coupled = QuantumSystem(
        h, tuple(CouplingChannel(q, bath_coupled=True, weight=w) for q, w in zip(qs, weights)), consts
    )
    g = 0.9
    return [
        (fixed, *_rates(fixed)[:2]),
        (fixed, None, (0.3, 0.2, 0.1)),
        (coupled, (0.0, 0.7 * g / consts.kB, 0.0), (0.0, 0.6 * 0.7 * g, 0.0)),
    ]


@pytest.mark.parametrize("rho", TWO_BY_TWO_STATES.values(), ids=TWO_BY_TWO_STATES.keys())
def test_two_by_two_path_matches_lapack(rng, rho):
    # the whole n = 2 stage against the LAPACK stage at n = 2, in both variants;
    # bound fixed before measuring: 1e-14 relative to max(1, max|ref|)
    for system, friction, diffusion in _two_level_stage_cases(rng):
        for nonlinear in (True, False):
            ref = _lapack_stage(rho, system, _rate_column(friction), _rate_column(diffusion), nonlinear)[0]
            out = stage_rhs(rho, system, friction, diffusion, nonlinear)
            assert out.shape == (2, 2) and out.dtype == complex
            assert np.max(np.abs(out - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def test_stack_above_two_levels_is_the_lapack_path(rng):
    for dim in (3, 4):
        h = random_hermitian(rng, dim)
        channels = tuple(CouplingChannel(random_hermitian(rng, dim), 0.4, 0.3) for _ in range(3))
        system = QuantumSystem(h, channels)
        assert system._h2 is None and system._q2 is None
        rho = random_density(rng, dim)
        for nonlinear in (True, False):
            out = stage_rhs(rho, system, *_rates(system)[:2], nonlinear)
            assert np.array_equal(out, _lapack_stage(rho, system, *map(_rate_column, _rates(system)[:2]), nonlinear)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_two_by_two_path_lets_non_finite_input_through(rng, bad):
    # as LAPACK does: no exception, and the monitors see a non-finite result
    cases = _two_level_stage_cases(rng)
    for rho in (np.array([[bad, 0.5], [0.5, 0.5]]), np.array([[0.5, bad * (1 - 1j)], [bad * (1 + 1j), 0.5]])):
        for system, friction, diffusion in cases:
            for nonlinear in (True, False):
                out = stage_rhs(rho.astype(complex), system, friction, diffusion, nonlinear)
                assert not np.isfinite(out).all()
    # an off-diagonal modulus that overflows, where abs() of a Python complex raises
    huge = np.array([[0.5, 1.5e308 * (1 - 1j)], [1.5e308 * (1 + 1j), 0.5]])
    for system, friction, diffusion in cases:
        for nonlinear in (True, False):
            stage_rhs(huge, system, friction, diffusion, nonlinear)


def test_two_by_two_path_scales_huge_entries(rng):
    # near the float maximum (tr rho + |m|)/2 overflows unless it is halved
    # term by term, and |m|/l2 overflows too; the whole n = 2 stage must agree
    # with the LAPACK stage wherever that is finite (bound as above)
    consts = PhysicalConstants(hbar=0.8, kB=1.3)
    qs = (0.5 * S1, 0.5 * S2, random_hermitian(rng, 2, scale=1e-3))
    rho = np.array([[1.5e308, 0.5], [0.5, 0.5]], dtype=complex)
    for h in (0.5 * S3, random_hermitian(rng, 2, scale=1e-3)):
        for rates in ((0.4, 0.3), (1e-3, 1e-3)):
            system = QuantumSystem(h, tuple(CouplingChannel(q, *rates) for q in qs), consts)
            for nonlinear in (True, False):
                with np.errstate(over="ignore", invalid="ignore"):
                    ref = _lapack_stage(rho, system, *map(_rate_column, _rates(system)[:2]), nonlinear)[0]
                out = stage_rhs(rho, system, *_rates(system)[:2], nonlinear)
                finite = np.isfinite(ref)
                assert finite.any()
                gap = np.max(np.abs(out[finite] - ref[finite]))
                assert gap <= 1e-14 * max(1.0, np.max(np.abs(ref[finite])))
    l1, l2, _ = _two_level_spectrum(1.5e308, 0.5, 0.5, 0.0, math.hypot(1.0, 0.0, 1.5e308 - 0.5))
    assert np.allclose((l2, l1), np.linalg.eigvalsh(rho), rtol=1e-15, atol=0.0)


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


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_modified_operator_of_the_log_commutator(rng, dim):
    # M_rho([Q, ln rho]) = [Q, rho], entry by entry in rho's eigenbasis,
    # since the log mean is L(p_i, p_j) = (p_i - p_j) / (ln p_i - ln p_j):
    # the friction of the nonlinear equation acts on the gradient of the
    # free energy; seeded full-rank states with p_min >= 1e-4, bound fixed
    # before measuring: 1e-13 relative to max|Q| (about 450 eps)
    for _ in range(10):
        rho = random_density(rng, dim, min_eig=1e-4)
        q = random_hermitian(rng, dim)
        residual = modified_operator(rho, commutator(q, log_density(rho))) - commutator(q, rho)
        assert np.max(np.abs(residual)) <= 1e-13 * np.max(np.abs(q))


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


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrices_are_rejected(rng, dim, bad):
    # a NaN deviation passes the Hermiticity tolerance, and inf - inf would
    # warn; every operator and state input names its matrix instead
    h = random_hermitian(rng, dim)
    q = random_hermitian(rng, dim)
    rho = random_density(rng, dim)
    for a in (h, q, rho):
        a[dim - 1, 0] = bad
    with pytest.raises(ValueError, match=rf"^hamiltonian: entry \({dim - 1}, 0\) is not finite"):
        QuantumSystem(h)
    with pytest.raises(ValueError, match=r"^hamiltonian: entry .* is not finite"):
        equilibrium_state(h, 1.0)
    with pytest.raises(ValueError, match=rf"^coupling operator: entry \({dim - 1}, 0\) is not finite"):
        CouplingChannel(q, 0.1, 0.1)
    with pytest.raises(ValueError, match=rf"^density matrix: entry \({dim - 1}, 0\) is not finite"):
        validate_density_matrix(rho)
    system = QuantumSystem(np.diag(np.arange(dim, dtype=float)))
    bath = HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
    with pytest.raises(ValueError, match=r"^density matrix: entry .* is not finite"):
        simulate(rho, bath, system, IntegratorConfig(dt=0.1, t_end=1.0))


def test_validate_density_matrix(rng):
    rho = random_density(rng, 3)
    validate_density_matrix(rho)
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.diag([0.5, 0.3]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_package_exports_exactly_the_modules_public_names():
    import thermoqme
    from thermoqme import config, environment, integrator, master_equation, operators, two_level

    modules = (operators, master_equation, environment, two_level, integrator, config)
    union = [name for module in modules for name in module.__all__]
    assert sorted(thermoqme.__all__) == sorted(union) and len(set(union)) == len(union)
    # every listed name resolves, and nothing public lies beyond the lists
    # (submodules aside), so no stale import survives
    public = {n for n, v in vars(thermoqme).items() if not n.startswith("_") and not isinstance(v, type(math))}
    assert public == set(union)
    # the helpers only tests use live in tests/oracles.py, nowhere in the package
    oracle_only = (
        "anticommutator", "SpectralDecomposition", "spectral_decompose", "operator_function",
        "log_density", "modified_operator_quadrature", "pauli_commutator",
        "pauli_anticommutator", "pauli_function", "bloch_nonlinear_part_uniform_form",
    )
    for module in (thermoqme, *modules):
        assert not [name for name in oracle_only if hasattr(module, name)]
