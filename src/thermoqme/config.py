"""Configuration ingestion for simulation runs.

A run is described by one JSON document: the quantum system (a two-level
scenario or explicit matrices), the environment (infinite or finite heat
bath), unit constants, integrator settings, the variant (nonlinear or
linearized), and output options.  Complex matrices are written as nested
[re, im] pairs.  Validation errors carry the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .operators import (
    NATURAL,
    PhysicalConstants,
    validate_density_matrix,
    validate_hermitian,
)
from .master_equation import CouplingChannel, QuantumSystem
from .environment import HeatBath
from .integrator import IntegratorConfig, MonitorTolerances
from .two_level import (
    TwoLevelParams,
    pauli_compose,
    two_level_hamiltonian,
    two_level_channels,
)

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


def _require_keys(node: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")
    for key in required:
        if key not in node:
            raise ConfigError(f"{path}.{key}", "required field is missing")
    for key in node:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _number(node, path, *, positive=False, nonnegative=False) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(path, f"expected a number, got {node!r}")
    value = float(node)
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
    if not isinstance(node, list) or not node:
        raise ConfigError(path, "expected a nonempty nested list of [re, im] pairs")
    dim = len(node)
    out = np.zeros((dim, dim), dtype=complex)
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
            out[i, j] = complex(entry[0], entry[1])
    return out


def _matrix_to_json(arr: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(arr, complex)]


@dataclass(frozen=True)
class TwoLevelSystemConfig:
    omega: float
    gamma0: float
    isotropic: bool = False
    q3_multiplier: float = 1.0


@dataclass(frozen=True)
class GenericChannelConfig:
    Q: np.ndarray
    use_bath_bracket: bool = False
    friction_rate: float | None = None
    diffusion_rate: float | None = None


@dataclass(frozen=True)
class GenericSystemConfig:
    hamiltonian: np.ndarray
    channels: tuple[GenericChannelConfig, ...]


@dataclass(frozen=True)
class EnvironmentSettings:
    kind: str
    T_e: float | None = None
    C_e: float | None = None
    H_e0: float | None = None
    H_ref: float | None = None
    gamma0: float | None = None
    omega_ref: float | None = None


@dataclass(frozen=True)
class OutputSettings:
    path: str | None = None
    stride: int = 1


@dataclass(frozen=True)
class InitialState:
    bloch: np.ndarray | None = None
    matrix: np.ndarray | None = None


@dataclass(frozen=True)
class SimulationConfig:
    system: TwoLevelSystemConfig | GenericSystemConfig
    environment: EnvironmentSettings
    constants: PhysicalConstants
    integrator: IntegratorConfig
    variant: str = "nonlinear"
    output: OutputSettings = field(default_factory=OutputSettings)
    initial_state: InitialState | None = None

    @property
    def nonlinear(self) -> bool:
        return self.variant == "nonlinear"


def _parse_two_level(node, path) -> TwoLevelSystemConfig:
    _require_keys(node, path, ("omega", "gamma0"), ("isotropic", "q3_multiplier"))
    return TwoLevelSystemConfig(
        omega=_number(node["omega"], f"{path}.omega", positive=True),
        gamma0=_number(node["gamma0"], f"{path}.gamma0", nonnegative=True),
        isotropic=_boolean(node.get("isotropic", False), f"{path}.isotropic"),
        q3_multiplier=_number(node.get("q3_multiplier", 1.0), f"{path}.q3_multiplier", nonnegative=True),
    )


def _parse_generic(node, path) -> GenericSystemConfig:
    _require_keys(node, path, ("hamiltonian", "channels"))
    ham = _complex_matrix(node["hamiltonian"], f"{path}.hamiltonian")
    try:
        validate_hermitian(ham, name="hamiltonian")
    except ValueError as exc:
        raise ConfigError(f"{path}.hamiltonian", str(exc)) from exc
    if not isinstance(node["channels"], list):
        raise ConfigError(f"{path}.channels", "expected a list")
    channels = []
    for k, ch in enumerate(node["channels"]):
        cpath = f"{path}.channels[{k}]"
        _require_keys(ch, cpath, ("Q",), ("use_bath_bracket", "friction_rate", "diffusion_rate"))
        q = _complex_matrix(ch["Q"], f"{cpath}.Q")
        try:
            validate_hermitian(q, name="coupling operator")
        except ValueError as exc:
            raise ConfigError(f"{cpath}.Q", str(exc)) from exc
        if q.shape != ham.shape:
            raise ConfigError(f"{cpath}.Q", f"shape {q.shape} does not match hamiltonian {ham.shape}")
        use_bracket = _boolean(ch.get("use_bath_bracket", False), f"{cpath}.use_bath_bracket")
        friction = diffusion = None
        if use_bracket:
            if "friction_rate" in ch or "diffusion_rate" in ch:
                raise ConfigError(cpath, "fixed rates cannot be combined with use_bath_bracket")
        else:
            if "friction_rate" not in ch or "diffusion_rate" not in ch:
                raise ConfigError(
                    cpath, "channel needs friction_rate and diffusion_rate unless use_bath_bracket is set"
                )
            friction = _number(ch["friction_rate"], f"{cpath}.friction_rate", nonnegative=True)
            diffusion = _number(ch["diffusion_rate"], f"{cpath}.diffusion_rate", nonnegative=True)
        channels.append(
            GenericChannelConfig(
                Q=q, use_bath_bracket=use_bracket, friction_rate=friction, diffusion_rate=diffusion
            )
        )
    return GenericSystemConfig(hamiltonian=ham, channels=tuple(channels))


def _parse_environment(node, path, generic: bool) -> EnvironmentSettings:
    _require_keys(node, path, (), ("infinite", "finite"))
    if ("infinite" in node) == ("finite" in node):
        raise ConfigError(path, "exactly one of 'infinite' or 'finite' must be present")
    # gamma0/omega_ref are accepted only for generic systems; two-level runs
    # take them from the system block, and _require_keys rejects them here.
    extras = ("gamma0", "omega_ref") if generic else ()
    kind = "infinite" if "infinite" in node else "finite"
    sub = node[kind]
    spath = f"{path}.{kind}"
    if kind == "infinite":
        _require_keys(sub, spath, ("T_e",), extras)
        fields = {"T_e": _number(sub["T_e"], f"{spath}.T_e", positive=True)}
    else:
        _require_keys(sub, spath, ("C_e", "H_e0"), ("H_ref",) + extras)
        fields = {
            "C_e": _number(sub["C_e"], f"{spath}.C_e", positive=True),
            "H_e0": _number(sub["H_e0"], f"{spath}.H_e0", positive=True),
        }
        if "H_ref" in sub:
            fields["H_ref"] = _number(sub["H_ref"], f"{spath}.H_ref", positive=True)
    if "gamma0" in sub:
        fields["gamma0"] = _number(sub["gamma0"], f"{spath}.gamma0", nonnegative=True)
    if "omega_ref" in sub:
        fields["omega_ref"] = _number(sub["omega_ref"], f"{spath}.omega_ref", positive=True)
    return EnvironmentSettings(kind=kind, **fields)


def _parse_integrator(node, path) -> IntegratorConfig:
    _require_keys(node, path, ("dt", "t_end"), ("method", "monitor_every", "tolerances"))
    tol_node = node.get("tolerances", {})
    tpath = f"{path}.tolerances"
    _require_keys(tol_node, tpath, (), ("trace", "hermiticity", "positivity", "energy"))
    defaults = MonitorTolerances()
    tolerances = MonitorTolerances(
        trace=_number(tol_node.get("trace", defaults.trace), f"{tpath}.trace", positive=True),
        hermiticity=_number(
            tol_node.get("hermiticity", defaults.hermiticity), f"{tpath}.hermiticity", positive=True
        ),
        positivity=_number(
            tol_node.get("positivity", defaults.positivity), f"{tpath}.positivity", positive=True
        ),
        energy=_number(tol_node.get("energy", defaults.energy), f"{tpath}.energy", positive=True),
    )
    try:
        return IntegratorConfig(
            dt=_number(node["dt"], f"{path}.dt", positive=True),
            t_end=_number(node["t_end"], f"{path}.t_end", positive=True),
            method=node.get("method", "rk4"),
            monitor_every=_integer(node.get("monitor_every", 10), f"{path}.monitor_every", minimum=1),
            tolerances=tolerances,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_initial_state(node, path, system) -> InitialState:
    _require_keys(node, path, (), ("bloch", "matrix"))
    if ("bloch" in node) == ("matrix" in node):
        raise ConfigError(path, "exactly one of 'bloch' or 'matrix' must be present")
    if "bloch" in node:
        vec = node["bloch"]
        if (
            not isinstance(vec, list)
            or len(vec) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in vec)
        ):
            raise ConfigError(f"{path}.bloch", f"expected three numbers, got {vec!r}")
        m = np.asarray(vec, dtype=float)
        if isinstance(system, GenericSystemConfig) and system.hamiltonian.shape[0] != 2:
            raise ConfigError(f"{path}.bloch", "bloch initial states require a two-dimensional system")
        if np.linalg.norm(m) > 1.0 + 1e-12:
            raise ConfigError(f"{path}.bloch", f"|m| = {np.linalg.norm(m)} exceeds 1")
        return InitialState(bloch=m)
    mat = _complex_matrix(node["matrix"], f"{path}.matrix")
    try:
        validate_density_matrix(mat, herm_tol=1e-10, trace_tol=1e-10)
    except ValueError as exc:
        raise ConfigError(f"{path}.matrix", str(exc)) from exc
    dim = 2 if isinstance(system, TwoLevelSystemConfig) else system.hamiltonian.shape[0]
    if mat.shape[0] != dim:
        raise ConfigError(f"{path}.matrix", f"dimension {mat.shape[0]} does not match system dimension {dim}")
    return InitialState(matrix=mat)


def parse_config(data: dict) -> SimulationConfig:
    _require_keys(
        data,
        "config",
        ("system", "environment", "integrator"),
        ("constants", "variant", "output", "initial_state"),
    )
    _require_keys(data["system"], "system", (), ("two_level", "generic"))
    if ("two_level" in data["system"]) == ("generic" in data["system"]):
        raise ConfigError("system", "exactly one of 'two_level' or 'generic' must be present")
    if "two_level" in data["system"]:
        system = _parse_two_level(data["system"]["two_level"], "system.two_level")
    else:
        system = _parse_generic(data["system"]["generic"], "system.generic")
    generic = isinstance(system, GenericSystemConfig)

    environment = _parse_environment(data["environment"], "environment", generic)
    if generic and any(ch.use_bath_bracket for ch in system.channels):
        if environment.gamma0 is None or environment.omega_ref is None:
            raise ConfigError(
                "environment",
                "channels with use_bath_bracket require gamma0 and omega_ref in the environment block",
            )

    const_node = data.get("constants", {})
    _require_keys(const_node, "constants", (), ("hbar", "kB"))
    constants = PhysicalConstants(
        hbar=_number(const_node.get("hbar", 1.0), "constants.hbar", positive=True),
        kB=_number(const_node.get("kB", 1.0), "constants.kB", positive=True),
    )

    integrator = _parse_integrator(data["integrator"], "integrator")

    variant = data.get("variant", "nonlinear")
    if variant not in ("nonlinear", "linearized"):
        raise ConfigError("variant", f"must be 'nonlinear' or 'linearized', got {variant!r}")

    out_node = data.get("output", {})
    _require_keys(out_node, "output", (), ("path", "stride"))
    path = out_node.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError("output.path", f"expected a string, got {path!r}")
    output = OutputSettings(
        path=path,
        stride=_integer(out_node.get("stride", 1), "output.stride", minimum=1),
    )

    initial = None
    if "initial_state" in data:
        initial = _parse_initial_state(data["initial_state"], "initial_state", system)

    return SimulationConfig(
        system=system,
        environment=environment,
        constants=constants,
        integrator=integrator,
        variant=variant,
        output=output,
        initial_state=initial,
    )


def config_to_dict(cfg: SimulationConfig) -> dict:
    """Canonical JSON-compatible form; parse(config_to_dict(cfg)) reproduces cfg."""
    if isinstance(cfg.system, TwoLevelSystemConfig):
        system = {
            "two_level": {
                "omega": cfg.system.omega,
                "gamma0": cfg.system.gamma0,
                "isotropic": cfg.system.isotropic,
                "q3_multiplier": cfg.system.q3_multiplier,
            }
        }
    else:
        channels = []
        for ch in cfg.system.channels:
            entry: dict = {"Q": _matrix_to_json(ch.Q)}
            if ch.use_bath_bracket:
                entry["use_bath_bracket"] = True
            else:
                entry["friction_rate"] = ch.friction_rate
                entry["diffusion_rate"] = ch.diffusion_rate
            channels.append(entry)
        system = {
            "generic": {"hamiltonian": _matrix_to_json(cfg.system.hamiltonian), "channels": channels}
        }

    env = cfg.environment
    if env.kind == "infinite":
        env_body: dict = {"T_e": env.T_e}
    else:
        env_body = {"C_e": env.C_e, "H_e0": env.H_e0}
        if env.H_ref is not None:
            env_body["H_ref"] = env.H_ref
    if env.gamma0 is not None:
        env_body["gamma0"] = env.gamma0
    if env.omega_ref is not None:
        env_body["omega_ref"] = env.omega_ref

    tol = cfg.integrator.tolerances
    out: dict = {
        "system": system,
        "environment": {env.kind: env_body},
        "constants": {"hbar": cfg.constants.hbar, "kB": cfg.constants.kB},
        "integrator": {
            "dt": cfg.integrator.dt,
            "t_end": cfg.integrator.t_end,
            "method": cfg.integrator.method,
            "monitor_every": cfg.integrator.monitor_every,
            "tolerances": {
                "trace": tol.trace,
                "hermiticity": tol.hermiticity,
                "positivity": tol.positivity,
                "energy": tol.energy,
            },
        },
        "variant": cfg.variant,
        "output": {"path": cfg.output.path, "stride": cfg.output.stride},
    }
    if cfg.initial_state is not None:
        if cfg.initial_state.bloch is not None:
            out["initial_state"] = {"bloch": [float(v) for v in cfg.initial_state.bloch]}
        else:
            out["initial_state"] = {"matrix": _matrix_to_json(cfg.initial_state.matrix)}
    return out


def load_config(path) -> SimulationConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
    env = cfg.environment
    if isinstance(cfg.system, TwoLevelSystemConfig):
        t_ref = env.T_e if env.kind == "infinite" else env.H_e0 / env.C_e
        params = TwoLevelParams(
            omega=cfg.system.omega,
            gamma0=cfg.system.gamma0,
            T_e=t_ref,
            isotropic=cfg.system.isotropic,
            q3_weight=cfg.system.q3_multiplier,
            constants=cfg.constants,
        )
        system = QuantumSystem(two_level_hamiltonian(params), two_level_channels(params), cfg.constants)
        gamma0, omega_ref = cfg.system.gamma0, cfg.system.omega
        dim = 2
    else:
        channels = []
        for ch in cfg.system.channels:
            if ch.use_bath_bracket:
                channels.append(CouplingChannel(ch.Q, bath_coupled=True))
            else:
                channels.append(
                    CouplingChannel(ch.Q, friction_rate=ch.friction_rate, diffusion_rate=ch.diffusion_rate)
                )
        system = QuantumSystem(cfg.system.hamiltonian, tuple(channels), cfg.constants)
        gamma0 = env.gamma0 if env.gamma0 is not None else 0.0
        omega_ref = env.omega_ref if env.omega_ref is not None else 1.0
        dim = system.dim

    if env.kind == "infinite":
        bath = HeatBath.infinite(T_e=env.T_e, gamma0=gamma0, omega_ref=omega_ref)
    else:
        bath = HeatBath.finite(
            C_e=env.C_e, H_e=env.H_e0, gamma0=gamma0, omega_ref=omega_ref, H_ref=env.H_ref
        )

    if cfg.initial_state is None:
        rho0 = np.eye(dim, dtype=complex) / dim
    elif cfg.initial_state.bloch is not None:
        rho0 = pauli_compose(1.0, cfg.initial_state.bloch)
    else:
        rho0 = cfg.initial_state.matrix

    return RunSetup(
        rho0=rho0,
        bath=bath,
        system=system,
        integrator=cfg.integrator,
        nonlinear=cfg.nonlinear,
        two_level=isinstance(cfg.system, TwoLevelSystemConfig),
        output_path=cfg.output.path,
        stride=cfg.output.stride,
    )
