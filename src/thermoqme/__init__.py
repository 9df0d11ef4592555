"""Simulator for the nonlinear thermodynamic quantum master equation.

Integrates the density matrix of an N-level quantum subsystem coupled to a
classical heat bath, co-evolves the bath energy, and carries the closed-form
two-level algebra used to validate the generic engine.  The package exports
exactly the names in its modules' ``__all__`` lists.
"""

from . import config, environment, integrator, master_equation, operators, two_level
from .operators import *  # noqa: F403
from .master_equation import *  # noqa: F403
from .environment import *  # noqa: F403
from .two_level import *  # noqa: F403
from .integrator import *  # noqa: F403
from .config import *  # noqa: F403

__all__ = [
    name
    for module in (operators, master_equation, environment, two_level, integrator, config)
    for name in module.__all__
]

__version__ = "0.1.0"
