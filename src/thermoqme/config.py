"""Configuration ingestion for simulation runs.

A run is described by one JSON document: the quantum system (a two-level
scenario or explicit matrices), the environment (infinite or finite heat
bath), unit constants, integrator settings, the variant (nonlinear or
linearized), and output options.  Complex matrices are written as nested
[re, im] pairs.  Validation errors carry the offending field path.  A
checked configuration is held as its canonical document (SimulationConfig).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .operators import PhysicalConstants, validate_density_matrix, validate_hermitian
from .master_equation import CouplingChannel, QuantumSystem
from .environment import HeatBath
from .integrator import START_STATE_TOL, IntegratorConfig, MonitorTolerances
from .two_level import TwoLevelParams, pauli_compose, two_level_system

__all__ = [
    "ConfigError",
    "SimulationConfig",
    "RunSetup",
    "parse_config",
    "config_to_dict",
    "load_config",
    "build_run",
]


class ConfigError(ValueError):
    """Schema violation; the message starts with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        # pickled (as `compare` sends it from a forked run) with the arguments it was made from
        return type(self), (self.path, self.args[0][len(self.path) + 2 :])


def _require_keys(node: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")
    for key in required:
        if key not in node:
            raise ConfigError(f"{path}.{key}", "required field is missing")
    for key in node:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _one_of(node: dict, path: str, a: str, b: str) -> str:
    """The one of the keys ``a`` and ``b`` that the object ``node`` holds; it may hold no other."""
    _require_keys(node, path, (), (a, b))
    if (a in node) == (b in node):
        raise ConfigError(path, f"exactly one of '{a}' or '{b}' must be present")
    return a if a in node else b


def _float(v) -> float:
    """The number ``v`` as a float; an integer too large for one is an infinity of its sign."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _json_int(text: str):
    """A JSON integer; one with more digits than ``int`` reads from text is an infinity."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _number(node, path, *, positive=False, nonnegative=False) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(path, f"expected a number, got {node!r}")
    value = _float(node)
    if not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value}")
    if positive and value <= 0.0:
        raise ConfigError(path, f"must be positive, got {value}")
    if nonnegative and value < 0.0:
        raise ConfigError(path, f"must be nonnegative, got {value}")
    return value


def _integer(node, path, minimum=None) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(path, f"expected an integer, got {node!r}")
    if minimum is not None and node < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {node}")
    return node


def _boolean(node, path) -> bool:
    if not isinstance(node, bool):
        raise ConfigError(path, f"expected a boolean, got {node!r}")
    return node


def _complex_matrix(node, path) -> np.ndarray:
    """Checked nested [re, im] pairs as a float array of shape (dim, dim, 2)."""
    if not isinstance(node, list) or not node:
        raise ConfigError(path, "expected a nonempty nested list of [re, im] pairs")
    dim = len(node)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"{path}[{i}]", f"expected a row of length {dim}")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
            ):
                raise ConfigError(f"{path}[{i}][{j}]", f"expected an [re, im] pair, got {entry!r}")
    pairs = np.array([[[_float(v) for v in entry] for entry in row] for row in node])
    bad = np.argwhere(~np.isfinite(pairs))
    if bad.size:
        i, j, _ = bad[0]
        raise ConfigError(f"{path}[{i}][{j}]", f"must be finite, got {pairs[i, j].tolist()}")
    return pairs


def _as_complex(pairs) -> np.ndarray:
    """Complex matrix of [re, im] pairs; a view, so every float, -0.0 included, is kept exactly."""
    return np.asarray(pairs, dtype=float).view(complex)[..., 0]


def _checked_operator(node, path, name) -> np.ndarray:
    pairs = _complex_matrix(node, path)
    try:
        validate_hermitian(_as_complex(pairs), name=name)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    return pairs


def _integrator_config(doc: dict) -> IntegratorConfig:
    return IntegratorConfig(**{**doc, "tolerances": MonitorTolerances(**doc["tolerances"])})


@dataclass(frozen=True)
class SimulationConfig:
    """A checked configuration, held as its canonical document.

    The document is the JSON object with real values as floats (the counts
    monitor_every and stride stay integers) and matrices as nested [re, im]
    float pairs.  Optional fields hold their defaults, except four that stay
    absent when not given: build_run supplies environment.*.gamma0 (0.0),
    omega_ref (1.0), H_ref (H_e0) and initial_state (I/n).  config_to_dict
    returns a copy of the document.
    """

    document: dict

    @property
    def nonlinear(self) -> bool:
        return self.document["variant"] == "nonlinear"


def _parse_two_level(node, path) -> dict:
    _require_keys(node, path, ("omega", "gamma0"), ("isotropic", "q3_multiplier"))
    return {
        "omega": _number(node["omega"], f"{path}.omega", positive=True),
        "gamma0": _number(node["gamma0"], f"{path}.gamma0", nonnegative=True),
        "isotropic": _boolean(node.get("isotropic", False), f"{path}.isotropic"),
        "q3_multiplier": _number(node.get("q3_multiplier", 1.0), f"{path}.q3_multiplier", nonnegative=True),
    }


def _parse_generic(node, path) -> dict:
    _require_keys(node, path, ("hamiltonian", "channels"))
    ham = _checked_operator(node["hamiltonian"], f"{path}.hamiltonian", "hamiltonian")
    if not isinstance(node["channels"], list):
        raise ConfigError(f"{path}.channels", "expected a list")
    channels = []
    for k, ch in enumerate(node["channels"]):
        cpath = f"{path}.channels[{k}]"
        _require_keys(ch, cpath, ("Q",), ("use_bath_bracket", "friction_rate", "diffusion_rate"))
        q = _checked_operator(ch["Q"], f"{cpath}.Q", "coupling operator")
        if q.shape != ham.shape:
            raise ConfigError(f"{cpath}.Q", f"shape {q.shape[:2]} does not match hamiltonian {ham.shape[:2]}")
        channel = {"Q": q.tolist()}
        if _boolean(ch.get("use_bath_bracket", False), f"{cpath}.use_bath_bracket"):
            if "friction_rate" in ch or "diffusion_rate" in ch:
                raise ConfigError(cpath, "fixed rates cannot be combined with use_bath_bracket")
            channel["use_bath_bracket"] = True
        else:
            if "friction_rate" not in ch or "diffusion_rate" not in ch:
                raise ConfigError(
                    cpath, "channel needs friction_rate and diffusion_rate unless use_bath_bracket is set"
                )
            for key in ("friction_rate", "diffusion_rate"):
                channel[key] = _number(ch[key], f"{cpath}.{key}", nonnegative=True)
        channels.append(channel)
    return {"hamiltonian": ham.tolist(), "channels": channels}


def _parse_environment(node, path, generic: bool) -> dict:
    kind = _one_of(node, path, "infinite", "finite")
    # gamma0/omega_ref are accepted only for generic systems; two-level runs
    # take them from the system block, and _require_keys rejects them here.
    extras = ("gamma0", "omega_ref") if generic else ()
    sub = node[kind]
    spath = f"{path}.{kind}"
    if kind == "infinite":
        _require_keys(sub, spath, ("T_e",), extras)
    else:
        _require_keys(sub, spath, ("C_e", "H_e0"), ("H_ref",) + extras)
    body = {
        key: _number(sub[key], f"{spath}.{key}", positive=key != "gamma0", nonnegative=key == "gamma0")
        for key in ("T_e", "C_e", "H_e0", "H_ref", "gamma0", "omega_ref")
        if key in sub
    }
    return {kind: body}


def _parse_integrator(node, path) -> dict:
    _require_keys(node, path, ("dt", "t_end"), ("method", "monitor_every", "tolerances"))
    tol_node = node.get("tolerances", {})
    tpath = f"{path}.tolerances"
    defaults = asdict(MonitorTolerances())
    _require_keys(tol_node, tpath, (), tuple(defaults))
    tolerances = {
        key: _number(tol_node.get(key, default), f"{tpath}.{key}", positive=True)
        for key, default in defaults.items()
    }
    doc = {
        "dt": _number(node["dt"], f"{path}.dt", positive=True),
        "t_end": _number(node["t_end"], f"{path}.t_end", positive=True),
        "method": node.get("method", "rk4"),
        "monitor_every": _integer(node.get("monitor_every", 10), f"{path}.monitor_every", minimum=1),
        "tolerances": tolerances,
    }
    try:
        _integrator_config(doc)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    return doc


def _parse_initial_state(node, path, dim: int) -> dict:
    if _one_of(node, path, "bloch", "matrix") == "bloch":
        vec = node["bloch"]
        if (
            not isinstance(vec, list)
            or len(vec) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in vec)
        ):
            raise ConfigError(f"{path}.bloch", f"expected three numbers, got {vec!r}")
        if dim != 2:
            raise ConfigError(f"{path}.bloch", "bloch initial states require a two-dimensional system")
        m = [_float(v) for v in vec]
        if not all(math.isfinite(v) for v in m):
            raise ConfigError(f"{path}.bloch", f"must be finite, got {m!r}")
        if np.linalg.norm(m) > 1.0 + 1e-12:
            raise ConfigError(f"{path}.bloch", f"|m| = {np.linalg.norm(m)} exceeds 1")
        return {"bloch": m}
    mat = _complex_matrix(node["matrix"], f"{path}.matrix")
    try:
        validate_density_matrix(_as_complex(mat), herm_tol=START_STATE_TOL, trace_tol=START_STATE_TOL)
    except ValueError as exc:
        raise ConfigError(f"{path}.matrix", str(exc)) from exc
    if mat.shape[0] != dim:
        raise ConfigError(f"{path}.matrix", f"dimension {mat.shape[0]} does not match system dimension {dim}")
    return {"matrix": mat.tolist()}


def parse_config(data: dict) -> SimulationConfig:
    """Check a configuration and fill in its defaults (see SimulationConfig)."""
    _require_keys(
        data,
        "config",
        ("system", "environment", "integrator"),
        ("constants", "variant", "output", "initial_state"),
    )
    if _one_of(data["system"], "system", "two_level", "generic") == "two_level":
        system = {"two_level": _parse_two_level(data["system"]["two_level"], "system.two_level")}
        dim, channels = 2, []
    else:
        system = {"generic": _parse_generic(data["system"]["generic"], "system.generic")}
        dim, channels = len(system["generic"]["hamiltonian"]), system["generic"]["channels"]

    environment = _parse_environment(data["environment"], "environment", "generic" in system)
    if any(ch.get("use_bath_bracket") for ch in channels):
        (env,) = environment.values()
        if "gamma0" not in env or "omega_ref" not in env:
            raise ConfigError(
                "environment",
                "channels with use_bath_bracket require gamma0 and omega_ref in the environment block",
            )

    const_node = data.get("constants", {})
    _require_keys(const_node, "constants", (), ("hbar", "kB"))
    constants = {
        "hbar": _number(const_node.get("hbar", 1.0), "constants.hbar", positive=True),
        "kB": _number(const_node.get("kB", 1.0), "constants.kB", positive=True),
    }

    integrator = _parse_integrator(data["integrator"], "integrator")

    variant = data.get("variant", "nonlinear")
    if variant not in ("nonlinear", "linearized"):
        raise ConfigError("variant", f"must be 'nonlinear' or 'linearized', got {variant!r}")

    out_node = data.get("output", {})
    _require_keys(out_node, "output", (), ("path", "stride"))
    path = out_node.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError("output.path", f"expected a string, got {path!r}")
    output = {"path": path, "stride": _integer(out_node.get("stride", 1), "output.stride", minimum=1)}

    document = {
        "system": system,
        "environment": environment,
        "constants": constants,
        "integrator": integrator,
        "variant": variant,
        "output": output,
    }
    if "initial_state" in data:
        document["initial_state"] = _parse_initial_state(data["initial_state"], "initial_state", dim)
    return SimulationConfig(document)


def config_to_dict(cfg: SimulationConfig) -> dict:
    """Canonical JSON-compatible form; parse(config_to_dict(cfg)) reproduces cfg."""
    return copy.deepcopy(cfg.document)


def load_config(path) -> SimulationConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=_json_int)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply to parse
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top-level value must be an object")
    return parse_config(data)


@dataclass(frozen=True)
class RunSetup:
    """Everything the integrator needs, assembled from a configuration."""

    rho0: np.ndarray
    bath: HeatBath
    system: QuantumSystem
    integrator: IntegratorConfig
    nonlinear: bool
    two_level: bool
    output_path: str | None
    stride: int


def build_run(cfg: SimulationConfig) -> RunSetup:
    """Assemble initial state, bath, and quantum system from a configuration."""
    doc = cfg.document
    constants = PhysicalConstants(**doc["constants"])
    ((kind, env),) = doc["environment"].items()
    two_level = "two_level" in doc["system"]
    if two_level:
        tl = doc["system"]["two_level"]
        params = TwoLevelParams(
            omega=tl["omega"],
            gamma0=tl["gamma0"],
            T_e=env["T_e"] if kind == "infinite" else env["H_e0"] / env["C_e"],
            isotropic=tl["isotropic"],
            q3_weight=tl["q3_multiplier"],
            constants=constants,
        )
        system = two_level_system(params)
        gamma0, omega_ref = tl["gamma0"], tl["omega"]
    else:
        generic = doc["system"]["generic"]
        channels = tuple(
            CouplingChannel(_as_complex(ch["Q"]), bath_coupled=True)
            if ch.get("use_bath_bracket")
            else CouplingChannel(
                _as_complex(ch["Q"]), friction_rate=ch["friction_rate"], diffusion_rate=ch["diffusion_rate"]
            )
            for ch in generic["channels"]
        )
        system = QuantumSystem(_as_complex(generic["hamiltonian"]), channels, constants)
        gamma0, omega_ref = env.get("gamma0", 0.0), env.get("omega_ref", 1.0)

    if kind == "infinite":
        bath = HeatBath.infinite(T_e=env["T_e"], gamma0=gamma0, omega_ref=omega_ref)
    else:
        bath = HeatBath.finite(
            C_e=env["C_e"], H_e=env["H_e0"], gamma0=gamma0, omega_ref=omega_ref, H_ref=env.get("H_ref")
        )

    initial = doc.get("initial_state")
    if initial is None:
        rho0 = np.eye(system.dim, dtype=complex) / system.dim
    elif "bloch" in initial:
        rho0 = pauli_compose(1.0, initial["bloch"])
    else:
        rho0 = _as_complex(initial["matrix"])

    return RunSetup(
        rho0=rho0,
        bath=bath,
        system=system,
        integrator=_integrator_config(doc["integrator"]),
        nonlinear=cfg.nonlinear,
        two_level=two_level,
        output_path=doc["output"]["path"],
        stride=doc["output"]["stride"],
    )
