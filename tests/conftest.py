import numpy as np
import pytest

from thermoqme.environment import _bind
from thermoqme.master_equation import CouplingChannel, QuantumSystem, _bind_rates, _matrix_rates


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, dim, min_eig=1e-3):
    """Full-rank density matrix with all populations >= min_eig."""
    p = rng.dirichlet(np.ones(dim))
    p = (1.0 - dim * min_eig) * p + min_eig
    u = random_unitary(rng, dim)
    return (u * p) @ u.conj().T


def spin_three_halves():
    """A spin-3/2 ladder, H = J_z with bath-coupled channels J_x and J_y, and a
    seeded full-rank initial state."""
    m = np.array([1.5, 0.5, -0.5, -1.5])
    jp = np.diag(np.sqrt(3.75 - m[1:] * (m[1:] + 1.0)), 1).astype(complex)  # J_+
    jx, jy, jz = 0.5 * (jp + jp.T), -0.5j * (jp - jp.T), np.diag(m).astype(complex)
    system = QuantumSystem(jz, (CouplingChannel(jx, bath_coupled=True), CouplingChannel(jy, bath_coupled=True)))
    return system, random_density(np.random.default_rng(20260810), 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def stage_rhs(rho, system, friction, diffusion, nonlinear):
    """drho/dt of the stage kernel bound to the given friction/k_B and
    diffusion rates (the form master_equation._rates gives them in)."""
    return _matrix_rates(_bind_rates(system, nonlinear, friction, diffusion), rho, 0.0)[0]


def joint_rhs(rho, H_e, bath, system, nonlinear):
    """(drho/dt, dH_e/dt) of a run's coupled stage at bath energy H_e."""
    return _matrix_rates(_bind(bath, system, nonlinear), rho, H_e)
