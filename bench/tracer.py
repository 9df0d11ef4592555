"""Call tracing installed from outside the program.

Each layer is a list of call sites: a module (or a class inside one) and
the attribute through which callers look the function up.  Wrapping that
attribute catches every call made through it without touching the
program's files.  A site whose module or attribute no longer exists is
skipped, so a refactor that deletes or renames a private helper leaves its
layer at 0 calls instead of breaking the benchmark.

Spans nest: a layer's self time is its duration minus the time covered by
traced calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

_PKG = "thermoqme"

# layer name -> sites (module, dotted attribute) through which it is called.
LAYERS = {
    "integrator.step": [(f"{_PKG}.integrator", "step")],
    "integrator.rhs": [(f"{_PKG}.integrator", "_coupled_rhs")],
    "integrator.observe": [(f"{_PKG}.integrator", "_observe")],
    "master_equation.master_rhs": [(f"{_PKG}.integrator", "master_rhs")],
    "environment.exchange_flux": [
        (f"{_PKG}.integrator", "_exchange_flux"),
        (f"{_PKG}.environment", "_exchange_flux"),
    ],
    "environment.bind_bath_rates": [
        (f"{_PKG}.integrator", "bind_bath_rates"),
        (f"{_PKG}.environment", "bind_bath_rates"),
    ],
    "environment.heat_bath": [(f"{_PKG}.environment", "HeatBath.__post_init__")],
    "operators.eigh": [("numpy.linalg", "eigh")],
    "operators.log_mean": [
        (f"{_PKG}.master_equation", "_pairwise_log_mean"),
        (f"{_PKG}.environment", "_pairwise_log_mean"),
        (f"{_PKG}.operators", "_pairwise_log_mean"),
    ],
    "operators.modified": [
        (f"{_PKG}.master_equation", "_modified_in_basis"),
        (f"{_PKG}.environment", "_modified_in_basis"),
        (f"{_PKG}.operators", "_modified_in_basis"),
    ],
    "two_level.pauli_decompose": [(f"{_PKG}.cli", "pauli_decompose")],
    "config.load_config": [(_PKG, "load_config"), (f"{_PKG}.cli", "load_config")],
    "config.build_run": [(_PKG, "build_run"), (f"{_PKG}.cli", "build_run")],
    "cli.trajectory_rows": [(f"{_PKG}.cli", "_trajectory_rows")],
    "cli.write_csv": [(f"{_PKG}.cli", "_write_csv")],
}


def _resolve(module_name: str, dotted: str):
    """(owner, attribute name) for a site, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class LayerStats:
    __slots__ = ("calls", "total_ns", "self_ns", "rebuilds")

    def __init__(self) -> None:
        self.calls = self.total_ns = self.self_ns = self.rebuilds = 0


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`remove`."""

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self._stack: list[int] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, sites in LAYERS.items():
            for module_name, dotted in sites:
                site = _resolve(module_name, dotted)
                if site is not None:
                    owner, attr = site
                    original = getattr(owner, attr)
                    setattr(owner, attr, self._wrap(original, self.stats[layer], layer))
                    self._patches.append((owner, attr, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, stat: LayerStats, layer: str):
        stack = self._stack
        # A bath-rate binding that returns a new system (instead of its
        # argument) rebuilt the channels: that is wasted work to count.
        count_rebuilds = layer == "environment.bind_bath_rates"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if count_rebuilds and args and result is not args[0]:
                stat.rebuilds += 1
            return result

        return traced
