"""Reference implementations that tests compare the program against.

The general-purpose algebra first: commutator and operator-function
formulas, spectral decomposition, a quadrature of the modified operator,
the closed-form Pauli identities and the temperature at which a closed
system with a finite bath reaches its maximum total entropy.  The package
needs none of them to run; the tests check its kernels against them.

The dimension-2 kernel below is the stage and RK step written as separate
functions over tuples, the form the fused closure of
``master_equation._bind_rates`` and ``integrator._two_level_advance``
reproduce operation for operation.  The tests compare them bitwise, so a
reordering of the arithmetic fails a test instead of changing output bytes.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from thermoqme.master_equation import _bath_temperature
from thermoqme.operators import (
    NATURAL,
    _as_square_matrix,
    _require_same_dim,
    _two_level_spectrum,
    validate_hermitian,
)
from thermoqme.two_level import PauliVector, mu, pauli_compose, pauli_decompose


def anticommutator(a, b) -> np.ndarray:
    """{a, b} = ab + ba."""
    a = _as_square_matrix(a)
    b = _as_square_matrix(b)
    _require_same_dim(a, b)
    return a @ b + b @ a


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition of a self-adjoint operator.

    ``eigenvalues`` are real and sorted in descending order;
    ``eigenvectors`` holds the matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def spectral_decompose(a, tol: float = 1e-12) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix, eigenvalues descending."""
    arr = validate_hermitian(a, tol)
    try:
        w, u = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed to converge on a {arr.shape[0]}x{arr.shape[0]} matrix: {exc}"
        ) from exc
    order = np.argsort(w, kind="stable")[::-1]
    return SpectralDecomposition(w[order], u[:, order])


def operator_function(a, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns U f(diag) U^dagger; the result commutes with ``a``.  Raises
    ValueError if ``f`` is undefined (non-finite) at any eigenvalue.
    """
    arr = validate_hermitian(a)
    w, u = np.linalg.eigh(arr)
    with np.errstate(all="ignore"):
        try:
            fw = np.array([float(f(x)) for x in w])
        except (ValueError, ArithmeticError, ZeroDivisionError) as exc:
            raise ValueError(f"function not defined on the spectrum: {exc}") from exc
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)]
        raise ValueError(f"function not defined on the spectrum (eigenvalues {bad})")
    return (u * fw) @ u.conj().T


def modified_operator_quadrature(rho, a, nodes: int = 64) -> np.ndarray:
    """Direct Gauss-Legendre quadrature of the lambda average defining
    :func:`modified_operator`; retained as an independent numerical oracle.

    Matrix powers rho^lambda use the spectral decomposition with nonpositive
    eigenvalues clamped to zero (0^lambda = 0 for lambda > 0).
    """
    if int(nodes) != nodes or nodes < 2:
        raise ValueError(f"nodes must be an integer >= 2, got {nodes}")
    rho = _as_square_matrix(rho, "density matrix")
    a = _as_square_matrix(a)
    _require_same_dim(rho, a)
    w, u = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    x, gw = np.polynomial.legendre.leggauss(int(nodes))
    lam = 0.5 * (x + 1.0)
    weight = 0.5 * gw
    uh = u.conj().T
    out = np.zeros_like(a)
    for lk, wk in zip(lam, weight):
        left = (u * w**lk) @ uh
        right = (u * w ** (1.0 - lk)) @ uh
        out = out + wk * (left @ a @ right)
    return out


def log_density(rho, floor: float = 1e-14) -> np.ndarray:
    """Matrix logarithm of a density matrix with an eigenvalue floor.

    Rank-deficient states are handled by flooring populations at ``floor``
    before taking the logarithm; identities involving ln(rho) should only be
    relied on for full-rank states.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor must lie in (0, 1), got {floor}")
    return operator_function(rho, lambda p: np.log(max(p, floor)))


def pauli_commutator(x: PauliVector, y: PauliVector) -> PauliVector:
    """Coefficients c with [X, Y] = i * compose(0, c), i.e. c = a cross b."""
    return PauliVector(0.0, np.cross(x.a, y.a))


def pauli_anticommutator(x: PauliVector, y: PauliVector) -> PauliVector:
    """{X, Y} = compose(alpha beta + a.b, beta a + alpha b)."""
    return PauliVector(
        x.alpha * y.alpha + float(np.dot(x.a, y.a)),
        y.alpha * x.a + x.alpha * y.a,
    )


def pauli_function(x: PauliVector, f: Callable[[float], float]) -> PauliVector:
    """Scalar function of an observable through its two eigenvalues
    (alpha +- |a|)/2, without diagonalizing."""
    def evaluate(eigenvalue: float) -> float:
        try:
            val = float(f(eigenvalue))
        except (ValueError, ArithmeticError, ZeroDivisionError) as exc:
            raise ValueError(f"function not defined at eigenvalue {eigenvalue}: {exc}") from exc
        if not math.isfinite(val):
            raise ValueError(f"function not defined at eigenvalue {eigenvalue}")
        return val

    anorm = float(np.linalg.norm(x.a))
    if anorm == 0.0:
        return PauliVector(2.0 * evaluate(0.5 * x.alpha), np.zeros(3))
    f_plus = evaluate(0.5 * (x.alpha + anorm))
    f_minus = evaluate(0.5 * (x.alpha - anorm))
    return PauliVector(f_plus + f_minus, (f_plus - f_minus) * x.a / anorm)


def bloch_nonlinear_part_uniform_form(m, a) -> PauliVector:
    """Equivalent form built on the deviation from the uniform state.

    With D = rho - I/2 and A0 the traceless part of the observable,
    2 mu(|m|) [D tr(A0 D) - A0 tr(D^2)]; equals :func:`bloch_nonlinear_part`
    and makes explicit that the nonlinearity pulls toward the uniform state.
    """
    m = np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(m))
    if norm >= 1.0:
        raise ValueError(f"magnetization must lie strictly inside the unit ball, got |m| = {norm}")
    dev = pauli_compose(0.0, m)
    a0 = pauli_compose(0.0, a)
    prefactor = 2.0 * mu(norm)
    mat = prefactor * (
        dev * float(np.real(np.trace(a0 @ dev))) - a0 * float(np.real(np.trace(dev @ dev)))
    )
    return pauli_decompose(mat)


def joint_equilibrium_temperature(H, C_e: float, E: float, constants=NATURAL) -> float:
    """The common temperature T_f of a quantum system in its Gibbs state and a
    finite bath of heat capacity C_e whose total energy is E: the root of
    tr(H rho_G(T)) + C_e T = E, found by bisection.  The left side strictly
    increases in T, so the root is unique; among all joint states of total
    energy E this one has the largest total entropy."""
    w = np.linalg.eigvalsh(validate_hermitian(H))
    if not E > w[0]:
        raise ValueError(f"total energy {E} must exceed the ground energy {w[0]}")

    def excess(T):
        p = np.exp(-(w - w[0]) / (constants.kB * T))
        return float(np.dot(w, p) / p.sum()) + C_e * T - E

    # excess -> w[0] - E < 0 as T -> 0, and excess(hi) = tr(H rho_G) - w[0] >= 0
    lo, hi = 0.0, (E - w[0]) / C_e
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def linearized_generator(system) -> Callable[[np.ndarray], np.ndarray]:
    """The linearized equation's generator with the rates stored on the
    channels, as the complex-linear map on n x n matrices
    L(A) = -(i/hbar)[H, A]
           - sum_j [Q_j, friction_j/k_B (C_j A + A C_j)/2 + diffusion_j [Q_j, A]]
    with C_j = [Q_j, H].  On a Hermitian A it is ``master_rhs(A, system,
    nonlinear=False)``; written out here because the program's kernels
    assume a Hermitian argument (rho A = (A rho)^dagger), which a matrix
    unit E_ij is not."""
    H, hbar, kB = system.H, system.constants.hbar, system.constants.kB
    terms = [(ch.Q, ch.Q @ H - H @ ch.Q, ch.friction_rate / kB, ch.diffusion_rate) for ch in system.channels]

    def generator(a):
        out = (-1j / hbar) * (H @ a - a @ H)
        for Q, C, f, d in terms:
            x = 0.5 * f * (C @ a + a @ C) + d * (Q @ a - a @ Q)
            out = out - (Q @ x - x @ Q)
        return out

    return generator


def choi_complement_minimum(generator, n: int) -> float:
    """The smallest eigenvalue of the Choi matrix C_L = sum_ij E_ij (x) L(E_ij)
    of a Hermiticity-preserving map L on n x n matrices, on the orthogonal
    complement of the maximally entangled vector sum_i e_i (x) e_i.  exp(tL)
    is completely positive for every t >= 0 iff this is >= 0: L is then of
    Gorini-Kossakowski-Sudarshan-Lindblad form (conditional complete
    positivity; Wolf, Eisert, Cubitt & Cirac, PRL 101, 150402, 2008).  The
    complement is spanned by an orthonormal basis: the projected matrix
    P C_L P would keep an exact zero eigenvalue on the entangled vector,
    which hides a positive minimum."""
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # E_ij is units[i n + j]
    choi = sum(np.kron(e, generator(e)) for e in units)
    entangled = np.eye(n).reshape(1, n * n) / math.sqrt(n)
    basis = np.linalg.svd(entangled)[2][1:].T  # the right singular vectors orthogonal to it
    return float(np.linalg.eigvalsh(basis.T @ choi @ basis)[0])


def linearized_steady_state(system) -> tuple[np.ndarray, float]:
    """(rho, s) for the linearized generator of :func:`linearized_generator`
    as the n^2 x n^2 matrix of its action on the matrix units E_ij: rho is
    its null vector, as a Hermitian matrix of trace one, and s its
    second-smallest singular value, which is well above 0 exactly where
    that null space is one-dimensional.  Found with no integrator."""
    n = system.dim
    generator = linearized_generator(system)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # E_ij is units[i n + j]
    matrix = np.stack([generator(e).reshape(n * n) for e in units], axis=1)
    _, singular, vh = np.linalg.svd(matrix)
    rho = vh[-1].conj().reshape(n, n)
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T), float(singular[-2])


def _log_mean(p: float, q: float) -> float:
    """One entry of :func:`_pairwise_log_mean`, by the same rule, in Python floats."""
    if not (p > 0.0 and q > 0.0):
        return 0.0
    lo, hi = (p, q) if p <= q else (q, p)
    gap = hi - lo
    if not gap > 0.0:
        return lo
    ratio = gap / lo
    if ratio == math.inf:
        return gap / (math.log(hi) - math.log(lo))
    # hi and lo are distinct floats, so ratio >= 2**-53 and log1p(ratio) > 0
    return gap / math.log1p(ratio)


def two_level_monitors(rho, H, kB=1.0):
    """(min_eig, entropy, tr(H rho)) of a Hermitian 2x2 ``rho`` in closed form,
    each written out on its own: the unclipped eigenvalues of
    ``operators._two_level_spectrum`` from the Bloch length; the entropy
    -k_B sum p ln p over them, smaller first, each clipped to [0, 1], with
    0 ln 0 = 0; and tr(H rho) = H00 rho00 + H11 rho11 + 2 Re(H01 rho10),
    read from the lower triangles of H and rho."""
    x, z = rho[0, 0].real, rho[1, 1].real
    re, im = rho[1, 0].real, rho[1, 0].imag
    l1, l2, _ = _two_level_spectrum(x, z, re, im, math.hypot(2.0 * re, 2.0 * im, x - z))
    clipped = [min(max(p, 0.0), 1.0) for p in (l2, l1)]
    entropy = -kB * sum(p * math.log(p) for p in clipped if p > 0.0)
    h00, h11, h10 = H[0, 0].real, H[1, 1].real, complex(H[1, 0])
    energy = h00 * x + h11 * z + 2.0 * (h10.conjugate() * complex(rho[1, 0])).real
    return l2, entropy, energy


def two_level_weights(x, z, re, im, m):
    """The modified operator's weights (l1, l2, d) of the 2x2 Hermitian
    [[x, re - i im], [re + i im, z]] with Bloch length m: the eigenvalues
    of ``operators._two_level_spectrum`` clipped at zero, and its d."""
    l1, l2, d = _two_level_spectrum(x, z, re, im, m)
    if not l1 > 0.0:  # l2 <= l1 <= 0
        return 0.0, 0.0, 0.0
    if not l2 > 0.0:
        return l1, 0.0, 0.0
    return l1, l2, d


def two_level_map(system, friction, diffusion, per_T=None):
    """The Bloch map (a, u, p, b) of rates in ``master_equation._rates`` form,
    as tuples of Python floats: A = (2/hbar)[h]x + sum_j diffusion_j K_j,
    U = sum_j friction_j 4 q_j x c_j, P = sum_j friction_j 4 q_j c_j^T and,
    for a finite bath's bath-coupled channels, A_bath = sum_j per_T_j K_j.
    u and p are None without friction, b is None without ``per_T``."""
    cross, k, u, p = system._q2
    a = tuple((cross + np.dot(diffusion, k)).tolist())
    if friction is None:
        u = p = None
    else:
        u, p = tuple(np.dot(friction, u).tolist()), tuple(np.dot(friction, p).tolist())
    b = None if per_T is None else tuple(np.dot(per_T, k).tolist())
    return a, u, p, b


def two_level_stage(r, a, u, p, nonlinear, b=None, T=0.0):
    """dm/dt at rho given by its four reals r = (rho00, rho11, Re rho10,
    Im rho10): A m + d U + (e P n) x n with (A, U, P) = (a + T b, u, p),
    n = m/|m| (0 at m = 0), d the log-mean of the clipped eigenvalues and
    e their mean minus d; linearized, d = tr rho/2 and there is no P term."""
    r00, r11, x, y = r
    mx, my, mz = 2.0 * x, 2.0 * y, r00 - r11
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    gx, gy, gz = a0 * mx + a1 * my + a2 * mz, a3 * mx + a4 * my + a5 * mz, a6 * mx + a7 * my + a8 * mz
    if b is not None:
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        gx += T * (b0 * mx + b1 * my + b2 * mz)
        gy += T * (b3 * mx + b4 * my + b5 * mz)
        gz += T * (b6 * mx + b7 * my + b8 * mz)
    if u is None:
        return gx, gy, gz
    ux, uy, uz = u
    if not nonlinear:
        d = 0.5 * (r00 + r11)
        return gx + d * ux, gy + d * uy, gz + d * uz
    m = math.hypot(mx, my, mz)
    l1, l2, d = two_level_weights(r00, r11, x, y, m)
    gx, gy, gz = gx + d * ux, gy + d * uy, gz + d * uz
    if not m > 0.0:
        return gx, gy, gz
    nx, ny, nz = mx / m, my / m, mz / m
    e = 0.5 * (l1 + l2) - d
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = p
    px, py, pz = p0 * nx + p1 * ny + p2 * nz, p3 * nx + p4 * ny + p5 * nz, p6 * nx + p7 * ny + p8 * nz
    px, py, pz = e * px, e * py, e * pz
    return gx + (py * nz - pz * ny), gy + (pz * nx - px * nz), gz + (px * ny - py * nx)


def two_level_bound_stage(system, nonlinear, friction, diffusion, per_T=None, C_e=None):
    """The flat stage (r00, r11, x, y, H_e) -> (gx, gy, gz, dH_e/dt), g = dm/dt,
    of ``master_equation._bind_rates`` at n = 2, with the same arguments,
    built on :func:`two_level_stage`; with a finite bath's ``C_e`` it reads
    T = H_e/C_e through ``master_equation._bath_temperature``, the stage's
    drain check."""
    hx, hy, hz = system._h2
    a, u, p, b = two_level_map(system, friction, diffusion, per_T)

    def stage(r00, r11, x, y, H_e):
        r = (r00, r11, x, y)
        if C_e is not None:
            g = two_level_stage(r, a, u, p, nonlinear, b, _bath_temperature(H_e, C_e))
        else:
            g = two_level_stage(r, a, u, p, nonlinear)
        gx, gy, gz = g
        return gx, gy, gz, -(hx * gx + hy * gy + hz * gz)

    return stage


def moved(r, s, g):
    """The four reals of rho + s drho/dt, for rho given by its four reals and
    drho/dt = (g . sigma)/2."""
    r00, r11, x, y = r
    gx, gy, gz = g
    s *= 0.5
    return r00 + s * gz, r11 - s * gz, x + s * gx, y + s * gy


def two_level_advance(r00, r11, x, y, h, stage, dt, method, first=None):
    """One RK4 or Euler step of the four reals and H_e, flat in and out, with
    the flat ``stage`` (r00, r11, x, y, H_e) -> (gx, gy, gz, dH_e/dt) and
    ``first`` its value at the start or None."""

    def at(r, h):
        *g, e = stage(*r, h)
        return g, e

    r = (r00, r11, x, y)
    if first is None:
        g1, e1 = at(r, h)
    else:
        *g1, e1 = first
    if method == "rk4":
        g2, e2 = at(moved(r, 0.5 * dt, g1), h + 0.5 * dt * e1)
        g3, e3 = at(moved(r, 0.5 * dt, g2), h + 0.5 * dt * e2)
        g4, e4 = at(moved(r, dt, g3), h + dt * e3)
        g = [a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(g1, g2, g3, g4)]
        return (*moved(r, dt / 6.0, g), h + (dt / 6.0) * (e1 + 2.0 * e2 + 2.0 * e3 + e4))
    if method == "euler":
        return (*moved(r, dt, g1), h + dt * e1)
    raise ValueError(f"unknown method {method!r}")
