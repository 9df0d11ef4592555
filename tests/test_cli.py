import csv
import hashlib
import json
import logging
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from thermoqme import cli, config_to_dict, integrator, load_config, parse_config, pauli_decompose, simulate
from thermoqme.cli import main
from thermoqme.config import ConfigError, build_run
from thermoqme.operators import _two_level_matrix

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _two_level_config(**overrides):
    cfg = {
        "system": {"two_level": {"omega": 1.0, "gamma0": 1.0}},
        "environment": {"infinite": {"T_e": 0.5}},
        "integrator": {"dt": 0.01, "t_end": 5.0, "monitor_every": 10},
        "output": {"path": None, "stride": 1},
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def test_run_two_level(tmp_path):
    cfg = _two_level_config(integrator={"dt": 0.01, "t_end": 20.0, "monitor_every": 20})
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["t", "m1", "m2", "m3", "total_energy", "total_entropy", "min_eig", "trace_err"]
    assert rows[0][0] == 0.0
    assert abs(rows[-1][0] - 20.0) < 1e-12
    # relaxation to -tanh(hbar*omega/(2 kB T)) = -tanh(1)
    assert abs(rows[-1][3] + math.tanh(1.0)) < 1e-6


def test_two_level_rows_are_the_pauli_vector(tmp_path):
    # the m columns, read from the four reals of each point's rho, hold
    # exactly what pauli_decompose gives, -0.0 included (compared as float.hex)
    cfg = _two_level_config(initial_state={"bloch": [0.3, -0.4, 0.5]})
    setup = build_run(load_config(_write(tmp_path, cfg)))
    traj = simulate(setup.rho0, setup.bath, setup.system, setup.integrator)
    _, row_of, points = cli._trajectory_rows(traj, setup)
    for point, row in zip(traj.points, map(row_of, points)):
        assert [float(v).hex() for v in row[1:4]] == [float(v).hex() for v in pauli_decompose(point.rho).a]


def test_run_requires_output_path(tmp_path):
    cfg_path = _write(tmp_path, _two_level_config())
    assert main(["run", "--config", str(cfg_path)]) == 1


def test_run_rejects_non_hermitian_matrix(tmp_path, capsys):
    cfg = {
        "system": {
            "generic": {
                "hamiltonian": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "channels": [],
            }
        },
        "environment": {"infinite": {"T_e": 1.0}},
        "integrator": {"dt": 0.01, "t_end": 1.0},
    }
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not out.exists()
    assert "system.generic.hamiltonian" in capsys.readouterr().err


def test_run_linearized_cold_exits_with_violation(tmp_path):
    cfg_path = CONFIG_DIR / "sphere_linearized_x10.json"
    out = tmp_path / "lin.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    header, rows = _read_csv(out)
    # file still holds the trajectory up to the violation
    assert rows[-1][header.index("min_eig")] < -1e-9
    assert rows[-1][0] < 1.25


def _pairs(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _generic_finite_bath_config(dim=3, rho0=None, **integrator):
    # three-level system, fixed-rate channel, closed total; dim 4 adds a
    # fourth level coupled to the third
    h = np.array([[0.6, 0.0, 0.0], [0.0, 0.1, 0.2], [0.0, 0.2, -0.5]], dtype=complex)
    q = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    q[1, 2], q[2, 1] = complex(0.0, -1.0), complex(0.0, 1.0)
    if dim == 4:
        h = np.pad(h, (0, 1))
        q = np.pad(q, (0, 1))
        h[3, 3], h[2, 3], h[3, 2] = -0.9, 0.15, 0.15
        q[2, 3] = q[3, 2] = 1.0
    cfg = {
        "system": {"generic": {"hamiltonian": _pairs(h), "channels": [
            {"Q": _pairs(q), "friction_rate": 0.2, "diffusion_rate": 0.16},
        ]}},
        "environment": {"finite": {"C_e": 5.0, "H_e0": 4.0}},
        "integrator": {"dt": 0.005, "t_end": 3.0, "monitor_every": 20, **integrator},
    }
    if rho0 is not None:
        cfg["initial_state"] = {"matrix": rho0}
    return cfg


def test_run_generic_system_with_finite_bath(tmp_path):
    cfg_path = _write(tmp_path, _generic_finite_bath_config())
    out = tmp_path / "generic.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header[0] == "t"
    assert "rho01_re" in header and "rho22_im" in header
    assert "H_e" in header and "T_e" in header
    energy = np.array([r[header.index("total_energy")] for r in rows])
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-10


@pytest.mark.parametrize("dim", [3, 4])
def test_generic_rows_match_per_element_format(tmp_path, dim):
    # every field of a generic row is format(float(x), ".16e") of its value,
    # in header order, down to the sign of a zero imaginary part
    p = np.linspace(2.0, 1.0, dim)
    rho0 = _pairs(np.diag(p / p.sum()).astype(complex))
    rho0[0][0][1] = -0.0
    rho0[0][1], rho0[1][0] = [0.1, 0.05], [0.1, -0.05]
    cfg_path = _write(tmp_path, _generic_finite_bath_config(dim, rho0, t_end=0.5, monitor_every=5))
    out = tmp_path / "generic.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0

    setup = build_run(load_config(cfg_path))
    traj = simulate(setup.rho0, setup.bath, setup.system, setup.integrator, nonlinear=setup.nonlinear)
    upper = [(i, j) for i in range(dim) for j in range(i, dim)]
    expected = []
    for point in traj.points:
        values = [point.t]
        for i, j in upper:
            values += [point.rho[i, j].real, point.rho[i, j].imag]
        values += [point.env.H_e, point.env.T_e]
        values += [point.monitors[key] for key in ("total_energy", "total_entropy", "min_eig", "trace_err")]
        expected.append(",".join(format(float(x), ".16e") for x in values))

    header, *lines = out.read_text(encoding="utf-8").splitlines()
    assert header.split(",")[1 : 1 + 2 * len(upper)] == [
        f"rho{i}{j}_{part}" for i, j in upper for part in ("re", "im")
    ]
    assert lines == expected
    assert lines[0].split(",")[header.split(",").index("rho00_im")] == "-0.0000000000000000e+00"


def test_run_generic_bath_bracket_requires_env_rates(tmp_path):
    q = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    cfg = {
        "system": {"generic": {"hamiltonian": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
                               "channels": [{"Q": q, "use_bath_bracket": True}]}},
        "environment": {"infinite": {"T_e": 1.0}},
        "integrator": {"dt": 0.01, "t_end": 1.0},
    }
    with pytest.raises(ConfigError, match="gamma0"):
        parse_config(cfg)
    cfg["environment"]["infinite"].update({"gamma0": 0.5, "omega_ref": 1.0})
    setup = build_run(parse_config(cfg))
    assert setup.system.channels[0].bath_coupled


def test_build_run_isotropic_two_level():
    cfg = parse_config(
        _two_level_config(
            system={"two_level": {"omega": 1.0, "gamma0": 1.0, "isotropic": True, "q3_multiplier": 0.25}}
        )
    )
    setup = build_run(cfg)
    assert len(setup.system.channels) == 3
    assert setup.system.channels[2].weight == 0.25
    assert setup.system.channels[2].friction_rate == 0.25 * 1.0  # weight * gamma0 kB/(hbar omega)
    assert all(ch.bath_coupled for ch in setup.system.channels)


def test_cli_subprocess_entry(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "mu.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "thermoqme.cli", "mu-table", "--min", "0", "--max", "0.9",
         "--steps", "10", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_byte_identical_reruns(tmp_path):
    cfg_path = _write(tmp_path, _two_level_config())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_round_trip_is_fixed_point():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) >= 10
    for path in paths:
        cfg = load_config(path)
        once = config_to_dict(cfg)
        twice = config_to_dict(parse_config(once))
        assert once == twice, path.name


def _float_pairs(doc_matrix):
    return all(type(v) is float for row in doc_matrix for pair in row for v in pair)


def test_canonical_document_two_level_defaults():
    cfg = {
        "system": {"two_level": {"omega": 1, "gamma0": 2}},
        "environment": {"finite": {"C_e": 5, "H_e0": 4}},
        "integrator": {"dt": 0.01, "t_end": 1},
        "initial_state": {"bloch": [0, 0, -1]},
    }
    doc = config_to_dict(parse_config(cfg))
    assert doc == {
        "system": {"two_level": {"omega": 1.0, "gamma0": 2.0, "isotropic": False, "q3_multiplier": 1.0}},
        "environment": {"finite": {"C_e": 5.0, "H_e0": 4.0}},
        "constants": {"hbar": 1.0, "kB": 1.0},
        "integrator": {
            "dt": 0.01,
            "t_end": 1.0,
            "method": "rk4",
            "monitor_every": 10,
            "tolerances": {"trace": 1e-9, "hermiticity": 1e-9, "positivity": 1e-9, "energy": 1e-8},
        },
        "variant": "nonlinear",
        "output": {"path": None, "stride": 1},
        "initial_state": {"bloch": [0.0, 0.0, -1.0]},
    }
    assert all(type(v) is float for v in doc["initial_state"]["bloch"])
    assert type(doc["system"]["two_level"]["omega"]) is float
    assert type(doc["integrator"]["t_end"]) is float
    # the document is a copy: editing it leaves the configuration as it was
    doc["variant"] = "linearized"
    assert parse_config(cfg).nonlinear and config_to_dict(parse_config(cfg))["variant"] == "nonlinear"


def test_canonical_document_generic_matrices():
    cfg = {
        "system": {"generic": {"hamiltonian": [[[1, 0], [0, 0]], [[0, 0], [-1, -0.0]]],
                               "channels": [{"Q": _X2, "use_bath_bracket": True},
                                            {"Q": _X2, "friction_rate": 1, "diffusion_rate": 0}]}},
        "environment": {"infinite": {"T_e": 1, "gamma0": 0, "omega_ref": 2}},
        "integrator": {"dt": 0.01, "t_end": 1.0},
        "initial_state": {"matrix": [[[0.5, -0.0], [0, 0]], [[0, 0], [0.5, 0]]]},
    }
    doc = config_to_dict(parse_config(cfg))
    generic = doc["system"]["generic"]
    assert generic["hamiltonian"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    assert generic["channels"] == [
        {"Q": _X2, "use_bath_bracket": True},
        {"Q": _X2, "friction_rate": 1.0, "diffusion_rate": 0.0},
    ]
    assert doc["environment"] == {"infinite": {"T_e": 1.0, "gamma0": 0.0, "omega_ref": 2.0}}
    assert doc["initial_state"] == {"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
    matrices = [generic["hamiltonian"], doc["initial_state"]["matrix"]] + [ch["Q"] for ch in generic["channels"]]
    assert all(_float_pairs(m) for m in matrices)
    # -0.0 keeps its sign in the document and in the built run
    assert math.copysign(1.0, generic["hamiltonian"][1][1][1]) == -1.0
    assert math.copysign(1.0, doc["initial_state"]["matrix"][0][0][1]) == -1.0
    setup = build_run(parse_config(cfg))
    assert math.copysign(1.0, setup.rho0[0, 0].imag) == -1.0
    assert setup.integrator.method == "rk4" and setup.output_path is None and setup.stride == 1
    assert [ch.bath_coupled for ch in setup.system.channels] == [True, False]


def test_config_round_trip_generic(tmp_path):
    q = [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
    cfg = {
        "system": {"generic": {"hamiltonian": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
                               "channels": [{"Q": q, "friction_rate": 0.1, "diffusion_rate": 0.2}]}},
        "environment": {"finite": {"C_e": 2.0, "H_e0": 3.0, "gamma0": 0.0, "omega_ref": 1.0}},
        "integrator": {"dt": 0.01, "t_end": 1.0},
        "initial_state": {"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    }
    once = config_to_dict(parse_config(cfg))
    twice = config_to_dict(parse_config(once))
    assert once == twice


_H2 = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
_X2 = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
_I3 = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]


def _generic_config(channels=None, hamiltonian=_H2, **overrides):
    cfg = {
        "system": {"generic": {"hamiltonian": hamiltonian, "channels": [] if channels is None else channels}},
        "environment": {"infinite": {"T_e": 1.0}},
        "integrator": {"dt": 0.01, "t_end": 1.0},
    }
    cfg.update(overrides)
    return cfg


def _without(cfg, key):
    cfg = dict(cfg)
    del cfg[key]
    return cfg


# One row per `raise ConfigError` site in thermoqme.config: (input, field path,
# message fragment).  A string input is the text of a config file, read
# through load_config; a dict goes through parse_config.
CONFIG_ERRORS = {
    "not_an_object": (_two_level_config(environment=3), "environment", "expected an object, got int"),
    "missing_field": (_without(_two_level_config(), "system"), "config.system", "required field is missing"),
    "unknown_field": (_two_level_config(extra_field=1), "config.extra_field", "unknown field"),
    "two_level_bath_rates": (
        _two_level_config(environment={"infinite": {"T_e": 0.5, "gamma0": 1.0}}),
        "environment.infinite.gamma0",
        "unknown field",
    ),
    "not_a_number": (
        _two_level_config(integrator={"dt": "fast", "t_end": 1.0}),
        "integrator.dt",
        "expected a number, got 'fast'",
    ),
    "not_positive": (
        _two_level_config(system={"two_level": {"omega": -1.0, "gamma0": 1.0}}),
        "system.two_level.omega",
        "must be positive, got -1.0",
    ),
    "negative": (
        _two_level_config(system={"two_level": {"omega": 1.0, "gamma0": -0.5}}),
        "system.two_level.gamma0",
        "must be nonnegative, got -0.5",
    ),
    "not_an_integer": (
        _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, "monitor_every": 2.5}),
        "integrator.monitor_every",
        "expected an integer, got 2.5",
    ),
    "below_minimum": (_two_level_config(output={"stride": 0}), "output.stride", "must be >= 1, got 0"),
    # an integer past 64 bits is named by its size, never printed whole:
    # 400 digits, and more digits than str() prints
    "far_below_minimum": (
        _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, "monitor_every": -(10**400)}),
        "integrator.monitor_every",
        "must be >= 1, got a negative integer of 1329 bits",
    ),
    "below_minimum_past_printing": (
        _two_level_config(output={"stride": -(10**5000)}),
        "output.stride",
        "must be >= 1, got a negative integer of 16610 bits",
    ),
    "not_a_boolean": (
        _two_level_config(system={"two_level": {"omega": 1.0, "gamma0": 1.0, "isotropic": "yes"}}),
        "system.two_level.isotropic",
        "expected a boolean, got 'yes'",
    ),
    "empty_matrix": (
        _generic_config(hamiltonian=[]),
        "system.generic.hamiltonian",
        "expected a nonempty nested list of [re, im] pairs",
    ),
    "ragged_matrix": (
        _generic_config(hamiltonian=[[[0.5, 0.0]], _H2[1]]),
        "system.generic.hamiltonian[0]",
        "expected a row of length 2",
    ),
    "not_a_pair": (
        _generic_config(hamiltonian=[[[0.5, 0.0], [0.0]], _H2[1]]),
        "system.generic.hamiltonian[0][1]",
        "expected an [re, im] pair, got [0.0]",
    ),
    # JSON true reads as a Python bool, which is an int; neither it nor a
    # numeric string is a number here
    "boolean_in_a_pair": (
        json.dumps(_generic_config(hamiltonian=[[[True, 0.0], _H2[0][1]], _H2[1]])),
        "system.generic.hamiltonian[0][0]",
        "expected an [re, im] pair, got [True, 0.0]",
    ),
    "string_in_a_pair": (
        _generic_config(hamiltonian=[_H2[0], [_H2[1][0], ["0.5", 0.0]]]),
        "system.generic.hamiltonian[1][1]",
        "expected an [re, im] pair, got ['0.5', 0.0]",
    ),
    "hamiltonian_not_hermitian": (
        _generic_config(hamiltonian=[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
        "system.generic.hamiltonian",
        "hamiltonian: not Hermitian",
    ),
    "channels_not_a_list": (
        _generic_config(channels={}),
        "system.generic.channels",
        "expected a list",
    ),
    "coupling_not_hermitian": (
        _generic_config([{"Q": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "use_bath_bracket": True}]),
        "system.generic.channels[0].Q",
        "coupling operator: not Hermitian",
    ),
    "coupling_shape": (
        _generic_config([{"Q": _I3, "use_bath_bracket": True}]),
        "system.generic.channels[0].Q",
        "shape (3, 3) does not match hamiltonian (2, 2)",
    ),
    "bracket_with_fixed_rates": (
        _generic_config([{"Q": _X2, "use_bath_bracket": True, "friction_rate": 0.1}]),
        "system.generic.channels[0]",
        "fixed rates cannot be combined with use_bath_bracket",
    ),
    "fixed_rates_missing": (
        _generic_config([{"Q": _X2, "friction_rate": 0.1}]),
        "system.generic.channels[0]",
        "channel needs friction_rate and diffusion_rate unless use_bath_bracket is set",
    ),
    "bath_kind": (_two_level_config(environment={}), "environment", "exactly one of 'infinite' or 'finite'"),
    "t_end_before_dt": (
        _two_level_config(integrator={"dt": 1.0, "t_end": 0.5}),
        "integrator",
        "t_end must exceed dt",
    ),
    "t_end_off_the_dt_grid": (
        _two_level_config(integrator={"dt": 0.3, "t_end": 1.0}),
        "integrator",
        "t_end = 1.0 is not a whole number of dt = 0.3 steps",
    ),
    "unknown_method": (
        _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, "method": "rk5"}),
        "integrator",
        "method must be 'rk4', got 'rk5'",
    ),
    "euler_method": (
        _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, "method": "euler"}),
        "integrator",
        "method must be 'rk4', got 'euler'",
    ),
    # a rejected method is shown bounded, as every rejected value is
    "long_method": (
        _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, "method": "x" * 100_000}),
        "integrator",
        "method must be 'rk4', got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'",
    ),
    "huge_integer_method": (
        _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, "method": [10**5000]}),
        "integrator",
        "method must be 'rk4', got [an integer of 16610 bits]",
    ),
    # a key that is not a string (a Python dict's) is named bounded too
    "huge_integer_key": (
        _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, 10**5000: 1}),
        "integrator[an integer of 16610 bits]",
        "unknown field",
    ),
    # and so is a string key past 80 characters, which JSON text can hold;
    # one of 80 characters or fewer is named whole
    "long_unknown_key": (
        _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, "k" * 100_000: 1}),
        "integrator['kkkkkkkkkkkk...kkkkkkkkkkkkk']",
        "unknown field",
    ),
    "unknown_key_of_80_characters": (
        _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, "k" * 80: 1}),
        "integrator." + "k" * 80,
        "unknown field",
    ),
    "step_count_overflows": (
        _two_level_config(integrator={"dt": 1e-300, "t_end": 1e300}),
        "integrator",
        "the step count t_end / dt = 1e+300 / 1e-300 is not finite",
    ),
    "step_count_overflows_at_a_subnormal_dt": (
        _two_level_config(integrator={"dt": 5e-324, "t_end": 1.0}),
        "integrator",
        "the step count t_end / dt = 1.0 / 5e-324 is not finite",
    ),
    "initial_state_kind": (
        _two_level_config(initial_state={}),
        "initial_state",
        "exactly one of 'bloch' or 'matrix' must be present",
    ),
    "bloch_not_three_numbers": (
        _two_level_config(initial_state={"bloch": [0.0, 0.0]}),
        "initial_state.bloch",
        "expected three numbers, got [0.0, 0.0]",
    ),
    "bloch_on_three_levels": (
        _generic_config(
            hamiltonian=_I3,
            initial_state={"bloch": [0.0, 0.0, 0.5]},
        ),
        "initial_state.bloch",
        "bloch initial states require a two-dimensional system",
    ),
    "bloch_outside_ball": (
        _two_level_config(initial_state={"bloch": [1.0, 1.0, 1.0]}),
        "initial_state.bloch",
        "exceeds 1",
    ),
    "matrix_not_a_state": (
        _two_level_config(initial_state={"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}),
        "initial_state.matrix",
        "density matrix: trace",
    ),
    "matrix_dimension": (
        _two_level_config(
            initial_state={"matrix": [[[float(i == j) / 3, 0.0] for j in range(3)] for i in range(3)]}
        ),
        "initial_state.matrix",
        "dimension 3 does not match system dimension 2",
    ),
    "system_kind": (
        _two_level_config(system={}),
        "system",
        "exactly one of 'two_level' or 'generic' must be present",
    ),
    "bracket_without_bath_rates": (
        _generic_config([{"Q": _X2, "use_bath_bracket": True}]),
        "environment",
        "channels with use_bath_bracket require gamma0 and omega_ref in the environment block",
    ),
    "variant": (_two_level_config(variant="both"), "variant", "must be 'nonlinear' or 'linearized', got 'both'"),
    "output_path": (_two_level_config(output={"path": 3}), "output.path", "expected a string, got 3"),
    # Python's json reads NaN and Infinity; no field takes a non-finite number
    "nan_temperature": (
        json.dumps(_two_level_config(environment={"infinite": {"T_e": math.nan}})),
        "environment.infinite.T_e",
        "must be finite, got nan",
    ),
    "infinite_t_end": (
        json.dumps(_two_level_config(integrator={"dt": 0.01, "t_end": math.inf})),
        "integrator.t_end",
        "must be finite, got inf",
    ),
    "infinite_rate": (
        _generic_config([{"Q": _X2, "friction_rate": math.inf, "diffusion_rate": 0.1}]),
        "system.generic.channels[0].friction_rate",
        "must be finite, got inf",
    ),
    "nan_matrix_entry": (
        _generic_config(hamiltonian=[[[0.5, 0.0], [math.nan, 0.0]], [[math.nan, 0.0], [-0.5, 0.0]]]),
        "system.generic.hamiltonian[0][1]",
        "must be finite, got [nan, 0.0]",
    ),
    "nan_bloch": (
        _two_level_config(initial_state={"bloch": [0.0, math.nan, 0.5]}),
        "initial_state.bloch",
        "must be finite, got [0.0, nan, 0.5]",
    ),
    # an integer too large for a float is not finite and is never printed,
    # whether it comes from JSON text, with more digits than int() reads
    # from text too, or from a Python int
    "overflowing_number": (
        json.dumps(_two_level_config()).replace('"omega": 1.0', '"omega": 1' + "0" * 400),
        "system.two_level.omega",
        "must be finite, got inf",
    ),
    "integer_too_long_to_read": (
        json.dumps(_two_level_config()).replace('"omega": 1.0', '"omega": ' + "9" * 5000),
        "system.two_level.omega",
        "must be finite, got inf",
    ),
    "overflowing_bloch": (
        _two_level_config(initial_state={"bloch": [0.0, 10**400, 0.5]}),
        "initial_state.bloch",
        "must be finite, got [0.0, inf, 0.5]",
    ),
    "overflowing_matrix_entry": (
        _generic_config(hamiltonian=[[[0.5, 0.0], [0.0, -(10**400)]], [[0.0, 0.0], [-0.5, 0.0]]]),
        "system.generic.hamiltonian[0][1]",
        "must be finite, got [0.0, -inf]",
    ),
    # a value holding an integer of more digits than repr() prints is shown
    # by the size rule of far_below_minimum, at every site that shows a value
    "huge_integer_for_a_number": (
        _two_level_config(integrator={"dt": [10**5000], "t_end": 1.0}),
        "integrator.dt",
        "expected a number, got [an integer of 16610 bits]",
    ),
    "huge_integer_for_an_integer": (
        _two_level_config(output={"stride": [10**5000]}),
        "output.stride",
        "expected an integer, got [an integer of 16610 bits]",
    ),
    "huge_integer_for_a_boolean": (
        _two_level_config(system={"two_level": {"omega": 1.0, "gamma0": 1.0, "isotropic": [10**5000]}}),
        "system.two_level.isotropic",
        "expected a boolean, got [an integer of 16610 bits]",
    ),
    "huge_integer_for_a_pair": (
        _generic_config(hamiltonian=[[[10**5000], _H2[0][1]], _H2[1]]),
        "system.generic.hamiltonian[0][0]",
        "expected an [re, im] pair, got [an integer of 16610 bits]",
    ),
    "huge_integer_for_a_bloch_vector": (
        _two_level_config(initial_state={"bloch": [10**5000]}),
        "initial_state.bloch",
        "expected three numbers, got [an integer of 16610 bits]",
    ),
    "huge_integer_for_the_variant": (
        _two_level_config(variant=[10**5000]),
        "variant",
        "must be 'nonlinear' or 'linearized', got [an integer of 16610 bits]",
    ),
    "huge_integer_for_the_output_path": (
        _two_level_config(output={"path": [10**5000]}),
        "output.path",
        "expected a string, got [an integer of 16610 bits]",
    ),
    # bath quantities that a run derives from finite fields must be finite too
    "hot_finite_bath": (
        _two_level_config(environment={"finite": {"H_e0": 1e308, "C_e": 1e-300}}),
        "environment.finite",
        "the start temperature H_e0/C_e = inf is not positive and finite",
    ),
    "cold_finite_bath": (
        _two_level_config(environment={"finite": {"H_e0": 1e-300, "H_ref": 1e-300, "C_e": 1e300}}),
        "environment.finite",
        "the start temperature H_e0/C_e = 0.0 is not positive and finite",
    ),
    "overflowing_bracket": (
        _two_level_config(system={"two_level": {"omega": 1e-300, "gamma0": 1e300}}),
        "system.two_level",
        "the bath bracket gamma0 k_B/(hbar omega) = inf is not finite",
    ),
    "overflowing_diffusion": (
        _two_level_config(
            system={"two_level": {"omega": 1.0, "gamma0": 1e200}}, environment={"infinite": {"T_e": 1e200}}
        ),
        "system.two_level",
        "the bath bracket gamma0 k_B T/(hbar omega) = inf is not finite",
    ),
    "overflowing_generic_bracket": (
        _generic_config(
            [{"Q": _X2, "use_bath_bracket": True}],
            environment={"infinite": {"T_e": 1.0, "gamma0": 1e300, "omega_ref": 1e-300}},
        ),
        "environment.infinite",
        "the bath bracket gamma0 k_B/(hbar omega) = inf is not finite",
    ),
    "bracket_over_a_small_k_B": (
        _two_level_config(system={"two_level": {"omega": 1e-10, "gamma0": 1e300}}, constants={"kB": 1e-10}),
        "system.two_level",
        "the bath bracket gamma0/(hbar omega) = inf is not finite",
    ),
    "overflowing_q3_bracket": (
        _two_level_config(
            system={"two_level": {"omega": 1.0, "gamma0": 1e300, "isotropic": True, "q3_multiplier": 1e10}}
        ),
        "system.two_level",
        "the bath bracket q3_multiplier * gamma0 k_B/(hbar omega) = inf is not finite",
    ),
    "underflowing_hbar_omega": (
        _two_level_config(system={"two_level": {"omega": 1e-300, "gamma0": 1.0}}, constants={"hbar": 1e-300}),
        "system.two_level",
        "the bath bracket gamma0 k_B/(hbar omega) = inf is not finite",
    ),
    "overflowing_level_splitting": (
        _two_level_config(system={"two_level": {"omega": 1e300, "gamma0": 1.0}}, constants={"hbar": 1e10}),
        "system.two_level",
        "the level splitting hbar omega = inf is not finite",
    ),
    "invalid_json": ('{"system": ', "config", "invalid JSON"),
    "nested_too_deeply": ("[" * 100_000 + "]" * 100_000, "config", "invalid JSON: maximum recursion depth exceeded"),
    "top_level_not_an_object": ("[1, 2]", "config", "top-level value must be an object"),
}


@pytest.mark.parametrize("data, path, fragment", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_config_error_paths(tmp_path, data, path, fragment):
    with pytest.raises(ConfigError) as info:
        if isinstance(data, str):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(data, encoding="utf-8")
            load_config(cfg_path)
        else:
            parse_config(data)
    assert info.value.path == path
    assert str(info.value).startswith(f"{path}: ")
    assert fragment in str(info.value)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unreadable_config_is_a_configuration_error(tmp_path, capsys, command):
    # a missing file and a file that is not UTF-8 (it starts with a UTF-16
    # byte-order mark) end as configuration errors, not tracebacks
    garbled = tmp_path / "utf16.json"
    garbled.write_bytes(b"\xff\xfe{\x00}\x00")
    out = ["--out", str(tmp_path / "a.csv")] if command == "run" else ["--out-dir", str(tmp_path / "cmp")]
    for cfg_path, reason in ((tmp_path / "missing.json", "No such file"), (garbled, "can't decode byte 0xff")):
        assert main([command, "--config", str(cfg_path), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config: cannot read {cfg_path}: ")
        assert reason in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["utf16.json"]


@pytest.mark.parametrize("command", ["run", "compare", "mu-table"])
def test_unwritable_output_is_a_configuration_error(tmp_path, monkeypatch, capsys, command):
    # a regular file where the output directory should be is found before
    # anything is simulated, and a directory where an output file should be
    # is found at the write; both end as configuration errors, not tracebacks
    cfg = str(_write(tmp_path, _two_level_config(integrator={"dt": 0.01, "t_end": 0.1})))
    argv = {
        "run": lambda out: ["run", "--config", cfg, "--out", str(out / "a.csv")],
        "compare": lambda out: ["compare", "--config", cfg, "--out-dir", str(out)],
        "mu-table": lambda out: ["mu-table", "--min", "0", "--max", "0.5", "--steps", "3", "--out", str(out / "a.csv")],
    }[command]
    blocker = tmp_path / "file"
    blocker.write_text("")

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the output location was checked")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "simulate", no_simulation)
        assert main(argv(blocker)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: output: cannot create directory {blocker}: ")
    assert "File exists" in err

    # compare writes each variant's file from its own run, the linearized
    # one in a forked child where two CPUs can be used
    for name in ("nonlinear.csv", "linearized.csv") if command == "compare" else ("a.csv",):
        taken = tmp_path / f"taken_{name}"
        (taken / name).mkdir(parents=True)
        assert main(argv(taken)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: output: cannot write {taken / name}: ")
        assert "Is a directory" in err and err.count("\n") == 1
        _assert_no_child_left()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _seeded_generic_config(seed, dim=3):
    # a dense seeded system: two bath-bracket channels and one fixed-rate one,
    # a finite bath, every step monitored and written
    rng = np.random.default_rng(seed)

    def unit_hermitian():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (a + a.conj().T)
        return _pairs(h / np.linalg.norm(h))

    return {
        "system": {"generic": {"hamiltonian": unit_hermitian(), "channels": [
            {"Q": unit_hermitian(), "use_bath_bracket": True},
            {"Q": unit_hermitian(), "use_bath_bracket": True},
            {"Q": unit_hermitian(), "friction_rate": 0.5, "diffusion_rate": 0.5},
        ]}},
        "environment": {"finite": {"C_e": 3.0, "H_e0": 2.0, "gamma0": 1.0, "omega_ref": 1.0}},
        "integrator": {"dt": 0.01, "t_end": 0.5, "monitor_every": 1},
        "output": {"stride": 1},
    }


def _compare_configs(tmp_path):
    blow_up = json.loads((CONFIG_DIR / "compare_high_temperature.json").read_text())
    blow_up["integrator"].update(dt=2.0, t_end=400.0, monitor_every=100)
    return {
        "high_temperature": (CONFIG_DIR / "compare_high_temperature.json", 0),
        "low_temperature": (CONFIG_DIR / "compare_low_temperature.json", 2),
        "blow_up": (_write(tmp_path, blow_up, "blow_up.json"), 2),
        "generic_2": (_write(tmp_path, _seeded_generic_config(2202, dim=2), "generic_2.json"), 0),
        "generic_3": (_write(tmp_path, _seeded_generic_config(2203), "generic_3.json"), 0),
        "generic_16": (_generic_16(tmp_path), 0),
    }


def _generic_16(tmp_path):
    # 51 rows of 279 fields
    return _write(tmp_path, _seeded_generic_config(2616, dim=16), "generic_16.json")


def _handoff_patches(monkeypatch, failing=None):
    """Patch compare so that the variant ``failing`` raises, or, where
    ``failing`` is "parent", the parent's write of the nonlinear CSV, made
    while the child formats.  Returns the list to which compare appends,
    for each nonlinear CSV this process writes, how many rows it wrote."""
    real_simulate, real_write = cli.simulate, cli._write_csv
    written = []

    def simulate(*args, nonlinear):
        name = "nonlinear" if nonlinear else "linearized"
        if name == failing:
            raise ArithmeticError(f"{name} run failed")
        return real_simulate(*args, nonlinear=nonlinear)

    def write_csv(path, header, rows):
        if path.name == "nonlinear.csv":
            rows = list(rows)
            written.append(len(rows))
            if failing == "parent":
                raise ArithmeticError("parent failed while the child formats")
        real_write(path, header, rows)

    monkeypatch.setattr(cli, "simulate", simulate)
    monkeypatch.setattr(cli, "_write_csv", write_csv)
    return written


def _handoff_logs(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "thermoqme" and "forked child" in r.getMessage()]


@pytest.mark.parametrize(
    "case", ["high_temperature", "low_temperature", "blow_up", "generic_2", "generic_3", "generic_16"]
)
def test_compare_forked_and_serial_write_the_same_files(tmp_path, monkeypatch, caplog, case):
    # the variants at once (the linearized one in a forked child, which then
    # formats the second half of the nonlinear rows, at every CSV size) or
    # one after the other: the same four files, byte for byte, and the same
    # exit code; generic_2 is the upper triangle written from the n = 2
    # kernel; the forked run writes the first half of the nonlinear rows
    # itself and logs how many rows the child formatted
    cfg_path, code = _compare_configs(tmp_path)[case]
    monkeypatch.setenv("THERMOQME_LOG", "INFO")
    digests, written, logs = {}, {}, {}
    for forked in (True, False):
        out_dir = tmp_path / f"forked_{forked}"
        caplog.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_two_cpus", lambda: forked)
            written[forked] = _handoff_patches(patch)
            assert main(["compare", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == code
        _assert_no_child_left()
        logs[forked] = _handoff_logs(caplog)
        digests[forked] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert sorted(digests[True]) == ["delta.csv", "linearized.csv", "nonlinear.csv", "summary.json"]
    assert digests[True] == digests[False]
    rows = len(_read_csv(tmp_path / "forked_True" / "nonlinear.csv")[1])
    assert written == {True: [rows // 2], False: [rows]}
    assert logs == {True: [f"nonlinear run: the forked child formatted {rows - rows // 2} of {rows} CSV rows"], False: []}


@pytest.mark.parametrize("failing", ["nonlinear", "linearized"])
@pytest.mark.parametrize("forked", [True, False])
def test_compare_passes_on_an_exception_from_either_variant(tmp_path, monkeypatch, failing, forked):
    # the exception of the variant that fails reaches the caller as it was
    # raised, from a forked child too, and no child is left behind
    real_simulate = cli.simulate

    def simulate(*args, nonlinear):
        if nonlinear == (failing == "nonlinear"):
            raise ArithmeticError(f"{failing} run failed")
        return real_simulate(*args, nonlinear=nonlinear)

    monkeypatch.setattr(cli, "simulate", simulate)
    monkeypatch.setattr(cli, "_two_cpus", lambda: forked)
    cfg = str(_write(tmp_path, _two_level_config(integrator={"dt": 0.01, "t_end": 0.1})))
    with pytest.raises(ArithmeticError) as info:
        main(["compare", "--config", cfg, "--out-dir", str(tmp_path / "cmp")])
    assert type(info.value) is ArithmeticError and str(info.value) == f"{failing} run failed"
    _assert_no_child_left()


def _forked_compare(tmp_path, monkeypatch, **patches):
    """Exit code of a short two-level compare whose linearized variant runs
    in a forked child, with the given attributes of thermoqme.cli patched;
    it writes to tmp_path/cmp."""
    monkeypatch.setattr(cli, "_two_cpus", lambda: True)
    for name, value in patches.items():
        monkeypatch.setattr(cli, name, value)
    cfg = _write(tmp_path, _two_level_config(integrator={"dt": 0.01, "t_end": 0.1}))
    return main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path / "cmp")])


def _simulate_with(nonlinear_run=None, linearized_run=None):
    """A stand-in for cli.simulate that calls the given function in place
    of the variant's run."""
    real_simulate = cli.simulate

    def simulate(*args, nonlinear):
        run = nonlinear_run if nonlinear else linearized_run
        return real_simulate(*args, nonlinear=nonlinear) if run is None else run()

    return simulate


def test_forked_run_that_sends_nothing_is_an_error(tmp_path, monkeypatch):
    # a child that dies before it sends its trajectory is reported with its exit code
    with pytest.raises(RuntimeError, match=r"^the forked run sent no readable result \(exit code 3\)$"):
        _forked_compare(tmp_path, monkeypatch, simulate=_simulate_with(linearized_run=lambda: os._exit(3)))
    _assert_no_child_left()


def test_forked_run_whose_result_cannot_be_sent_is_an_error(tmp_path, monkeypatch):
    # a result that does not pickle comes back as an error that says so
    with pytest.raises(RuntimeError, match=r"^cannot send the result of the forked run: "):
        _forked_compare(tmp_path, monkeypatch, _run_one=lambda setup, nonlinear, path: (lambda: 0, 0))
    _assert_no_child_left()


def test_forked_run_is_killed_when_the_parent_run_raises(tmp_path, monkeypatch):
    # the parent's exception is raised at once, not after the child's run
    def interrupted():
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _forked_compare(tmp_path, monkeypatch, simulate=_simulate_with(interrupted, lambda: time.sleep(30)))
    assert time.monotonic() - start < 1.0
    _assert_no_child_left()


@pytest.mark.parametrize("failing", ["serve", "parent", "linearized"])
def test_compare_passes_on_an_exception_around_the_handoff(tmp_path, monkeypatch, caplog, failing):
    # the child's formatting of the handed rows, the parent while the child
    # formats, or the child's own run, after which the parent formats every
    # row and logs that the child formatted none: the exception reaches the
    # caller as it was raised, and no child is left
    def no_text(rows):
        raise ArithmeticError("the child's formatting failed")

    if failing == "serve":
        monkeypatch.setattr(cli, "_csv_text", no_text)
    monkeypatch.setattr(cli, "_two_cpus", lambda: True)
    monkeypatch.setenv("THERMOQME_LOG", "INFO")
    written = _handoff_patches(monkeypatch, failing)
    with pytest.raises(ArithmeticError) as info:
        main(["compare", "--config", str(_generic_16(tmp_path)), "--out-dir", str(tmp_path / "cmp")])
    message = {
        "serve": "the child's formatting failed",
        "parent": "parent failed while the child formats",
        "linearized": "linearized run failed",
    }[failing]
    assert type(info.value) is ArithmeticError and str(info.value) == message
    assert written == [51 if failing == "linearized" else 25]
    logged = ["nonlinear run: the forked child formatted 0 of 51 CSV rows"] if failing == "linearized" else []
    assert _handoff_logs(caplog) == logged
    _assert_no_child_left()


def test_forked_exchange(tmp_path, monkeypatch):
    # the parent writes the first half of the nonlinear rows and hands the
    # child the second half as one float64 array, whose text the child sends
    # back to be appended: here with a line that says what it was handed
    real_text = cli._csv_text

    def csv_text(rows):
        return f"{rows.dtype} {rows.shape}\n" + real_text(rows)

    assert _forked_compare(tmp_path, monkeypatch, _csv_text=csv_text) == 0
    _assert_no_child_left()
    monkeypatch.setattr(cli, "_two_cpus", lambda: False)
    cfg = str(tmp_path / "cfg.json")
    assert main(["compare", "--config", cfg, "--out-dir", str(tmp_path / "serial")]) == 0
    lines = (tmp_path / "cmp" / "nonlinear.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    rows = len(lines) - 2
    assert lines[1 + rows // 2] == f"float64 ({rows - rows // 2}, 8)\n"
    del lines[1 + rows // 2]
    assert "".join(lines) == (tmp_path / "serial" / "nonlinear.csv").read_text(encoding="utf-8")


def test_forked_exchange_whose_child_dies_is_an_error(tmp_path, monkeypatch):
    # a child that dies while it formats the handed rows is reported with its exit code
    with pytest.raises(RuntimeError, match=r"^the forked run sent no readable result \(exit code 5\)$"):
        _forked_compare(tmp_path, monkeypatch, _csv_text=lambda rows: os._exit(5))
    _assert_no_child_left()


def test_mu_table(tmp_path):
    out = tmp_path / "mu.csv"
    assert main(["mu-table", "--min", "0", "--max", "0.999", "--steps", "1000", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["m", "mu"]
    assert len(rows) == 1000
    assert rows[0][0] == 0.0 and abs(rows[0][1] - 1.0 / 3.0) < 1e-12
    assert abs(rows[-1][0] - 0.999) < 1e-15
    values = [r[1] for r in rows]
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))
    # the grid row nearest 0.5 carries the frozen value
    mid = min(rows, key=lambda r: abs(r[0] - 0.5))
    assert abs(mid[1] - 0.359043) < 1e-3


def test_mu_table_domain_errors(tmp_path, capsys):
    # each is reported as one configuration-error line, and nothing is written
    out = tmp_path / "mu.csv"
    for lo, hi, steps in (("0", "1.0", "10"), ("-0.1", "0.5", "10"), ("0", "0.5", "1")):
        assert main(["mu-table", "--min", lo, "--max", hi, "--steps", steps, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: mu-table: ") and err.count("\n") == 1 and err.endswith("\n")
        assert list(tmp_path.iterdir()) == []


def test_compare_high_temperature(tmp_path):
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", str(CONFIG_DIR / "compare_high_temperature.json"),
                 "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    tl = summary["two_level"]
    # steady states agree to |x - tanh x| ~ x^3/3 at x = 0.05
    assert abs(tl["steady_state_gap"] - abs(0.05 - math.tanh(0.05))) < 1e-12
    assert tl["steady_state_gap"] < 4.2e-5
    assert abs(tl["nonlinear_final_m3"] - tl["linearized_final_m3"]) < 5e-5
    assert not tl["linearized_left_bloch_ball"]
    for name in ("nonlinear.csv", "linearized.csv", "delta.csv"):
        assert (out_dir / name).exists()


def test_compare_low_temperature_flags_sphere_exit(tmp_path):
    out_dir = tmp_path / "cmp_cold"
    code = main(["compare", "--config", str(CONFIG_DIR / "compare_low_temperature.json"),
                 "--out-dir", str(out_dir)])
    assert code == 2
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["linearized"]["termination"] == "monitor_violation"
    assert summary["nonlinear"]["termination"] == "completed"
    assert summary["two_level"]["linearized_left_bloch_ball"]
    assert abs(summary["two_level"]["linearized_steady_m3"] + 10.0) < 1e-12
    # one record per variant, as simulate reports it on the same setup
    assert set(summary) == {"nonlinear", "linearized", "max_abs_delta_rho_final", "two_level"}
    setup = build_run(load_config(CONFIG_DIR / "compare_low_temperature.json"))
    for name in ("nonlinear", "linearized"):
        traj = simulate(setup.rho0, setup.bath, setup.system, setup.integrator, nonlinear=name == "nonlinear")
        assert summary[name] == {"termination": traj.termination, "violation": traj.violation, "t_final": traj.final.t}
    assert summary["linearized"]["violation"].startswith("positivity violated")
    _, delta_rows = _read_csv(out_dir / "delta.csv")
    assert summary["max_abs_delta_rho_final"] == delta_rows[-1][1]


def _strict_json(path):
    """The JSON document at ``path``, parsed as RFC 8259 has it: NaN and
    Infinity are not JSON."""

    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)


def test_compare_blow_up_writes_null_for_non_finite_values(tmp_path):
    # dt = 2 is far past RK4's stability limit: both variants overflow to NaN
    # between the points sampled every 100 steps and end as violations at
    # t = 200; the values the summary cannot give as numbers are null
    cfg = json.loads((CONFIG_DIR / "compare_high_temperature.json").read_text())
    cfg["integrator"].update(dt=2.0, t_end=400.0, monitor_every=100)
    out_dir = tmp_path / "cmp_blow_up"
    assert main(["compare", "--config", str(_write(tmp_path, cfg)), "--out-dir", str(out_dir)]) == 2
    summary = _strict_json(out_dir / "summary.json")
    for name in ("nonlinear", "linearized"):
        assert summary[name]["termination"] == "monitor_violation"
        assert summary[name]["violation"].startswith("non-finite monitor") and summary[name]["t_final"] == 200.0
    assert summary["max_abs_delta_rho_final"] is None
    tl = summary["two_level"]
    assert tl["nonlinear_final_m3"] is None and tl["linearized_final_m3"] is None
    assert tl["linearized_left_bloch_ball"] is True and math.isfinite(tl["x"])


def test_compare_decoupled_variants_identical(tmp_path):
    cfg = _two_level_config(system={"two_level": {"omega": 1.0, "gamma0": 0.0}},
                            initial_state={"bloch": [0.6, 0.0, 0.2]})
    cfg_path = _write(tmp_path, cfg)
    out_dir = tmp_path / "cmp0"
    assert main(["compare", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "nonlinear.csv").read_bytes() == (out_dir / "linearized.csv").read_bytes()
    _, delta_rows = _read_csv(out_dir / "delta.csv")
    assert max(r[1] for r in delta_rows) == 0.0


def test_output_stride(tmp_path):
    cfg = _two_level_config(output={"path": None, "stride": 5})
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "strided.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    # 5.0/0.01 = 500 steps at monitor_every 10 -> 51 points -> every 5th
    assert len(rows) == 11
    # a stride that does not divide 50 still writes the last point
    cfg_path = _write(tmp_path, _two_level_config(output={"path": None, "stride": 7}))
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 9 and [rows[-2][0], rows[-1][0]] == [4.9, 5.0]
    # a truncated run ends at the point that fired: 423 points -> 0, 7, ..., 420 and 422
    cfg = json.loads((CONFIG_DIR / "sphere_linearized_x10.json").read_text())
    cfg["output"] = {"path": None, "stride": 7}
    assert main(["run", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    header, rows = _read_csv(out)
    assert len(rows) == 62
    assert abs(rows[-1][0] - 1.055) < 1e-12 and rows[-1][header.index("min_eig")] < 0.0


def test_run_drained_finite_bath_exits_with_violation(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "finite_bath_closure.json").read_text())
    cfg["environment"]["finite"] = {"C_e": 0.01, "H_e0": 0.01}
    cfg["integrator"].update({"dt": 0.1, "t_end": 2.0, "monitor_every": 1})
    cfg["initial_state"] = {"bloch": [0.0, 0.0, -0.99]}
    out = tmp_path / "drained.csv"
    assert main(["run", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    assert "H_e=" in capsys.readouterr().err
    header, rows = _read_csv(out)
    assert 1 <= len(rows) < 21
    assert all(r[header.index("H_e")] > 0.0 for r in rows)


def test_run_total_energy_violation_ends_the_csv_at_the_flagged_row(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "finite_bath_closure.json").read_text())
    cfg["integrator"].update(dt=0.01, t_end=30.0)
    cfg["integrator"]["tolerances"]["energy"] = 1e-300
    out = tmp_path / "drift.csv"
    assert main(["run", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    flagged = re.search(r"total energy drift \S+ exceeds tolerance at t=(\S+) ", capsys.readouterr().err)
    header, rows = _read_csv(out)
    assert rows[-1][0] == float(flagged.group(1))
    assert rows[-1][header.index("total_energy")] != rows[0][header.index("total_energy")]


def test_run_state_gone_non_finite_exits_with_violation(tmp_path, monkeypatch, capsys):
    # a dim-2 run steps rho through the advance simulate binds, which here
    # returns a NaN rho with the stage at it; its zero-step call, the stage
    # at t = 0, stays as bound
    bind = integrator._bind

    def nan_stepping(*args):
        advance = bind(*args)
        return lambda rho, h, dt, first, steps: (
            advance(_two_level_matrix(*(np.nan,) * 4), h) if steps else advance(rho, h, dt, first, steps)
        )

    monkeypatch.setattr(integrator, "_bind", nan_stepping)
    out = tmp_path / "nan.csv"
    assert main(["run", "--config", str(_write(tmp_path, _two_level_config())), "--out", str(out)]) == 2
    assert "non-finite monitor trace_err=nan" in capsys.readouterr().err
    _, rows = _read_csv(out)
    assert [row[0] for row in rows] == [0.0, 0.1]  # truncated at the first sampled point after a step


@pytest.mark.parametrize("variant", ["nonlinear", "linearized"])
def test_run_state_gone_non_finite_above_two_levels_exits_with_violation(tmp_path, capsys, variant):
    # n = 3, one fixed channel with friction = diffusion = 5 and dt = 1: the
    # state overflows before the first sampled point after t = 0, and LAPACK
    # fails on it inside a step (nonlinear) or at the point (linearized)
    def real(a):
        return [[[float(x), 0.0] for x in row] for row in a]

    cfg = {
        "system": {
            "generic": {
                "hamiltonian": real(np.diag([1.0, 0.0, -1.0])),
                "channels": [{"Q": real(2.0 * np.ones((3, 3))), "friction_rate": 5.0, "diffusion_rate": 5.0}],
            }
        },
        "environment": {"infinite": {"T_e": 1.0}},
        "integrator": {"dt": 1.0, "t_end": 200.0, "monitor_every": 50},
        "variant": variant,
    }
    out = tmp_path / "blow_up.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    assert "monitor violation: state went non-finite: eigendecomposition failed" in capsys.readouterr().err
    _, rows = _read_csv(out)
    assert [row[0] for row in rows] == [0.0]


def test_run_rejects_unknown_method(tmp_path, capsys):
    # RK4 is the one method, so Euler is as unknown as a misspelling
    for method in ("rk5", "euler"):
        cfg = _two_level_config(integrator={"dt": 0.01, "t_end": 1.0, "method": method})
        out = tmp_path / "never.csv"
        assert main(["run", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: integrator: method must be 'rk4', got '{method}'\n"
        assert not out.exists()


def test_log_level_from_environment(tmp_path, monkeypatch, caplog):
    cfg_path = _write(tmp_path, _two_level_config(integrator={"dt": 0.01, "t_end": 0.5}))
    monkeypatch.setenv("THERMOQME_LOG", "info")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a.csv")]) == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "thermoqme"]
    assert any("50 steps" in m for m in messages)
    assert any("completed at t=0.5" in m for m in messages)
    assert any(re.search(r"completed at t=0.5 after \S+ s \(50 of 50 steps, \S+ steps/s\)$", m) for m in messages)
    assert all(r.levelname == "INFO" for r in caplog.records if r.name == "thermoqme")

    # a run truncated by a monitor violation reports the steps up to its last point
    caplog.clear()
    truncated = _two_level_config(
        environment={"infinite": {"T_e": 0.05}},
        integrator={"dt": 0.01, "t_end": 1.0, "monitor_every": 5},
        variant="linearized",
        initial_state={"bloch": [0.0, 0.0, -0.9]},
    )
    cfg_trunc = _write(tmp_path, truncated, "trunc.json")
    assert main(["run", "--config", str(cfg_trunc), "--out", str(tmp_path / "t.csv")]) == 2
    messages = [r.getMessage() for r in caplog.records if r.name == "thermoqme"]
    line = [m for m in messages if "monitor_violation at t=" in m]
    assert len(line) == 1
    match = re.search(r"at t=(\S+) after \S+ s \((\d+) of 100 steps, (\S+) steps/s\)$", line[0])
    assert match and 0 < int(match[2]) < 100
    assert int(match[2]) == round(float(match[1]) / 0.01) and float(match[3]) > 0.0

    caplog.clear()
    monkeypatch.setenv("THERMOQME_LOG", "warning")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b.csv")]) == 0
    assert not [r for r in caplog.records if r.name == "thermoqme"]


def test_log_level_violation_is_logged(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("THERMOQME_LOG", "INFO")
    cfg_path = CONFIG_DIR / "sphere_linearized_x10.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "lin.csv")]) == 2
    assert any("positivity" in r.getMessage() for r in caplog.records if r.name == "thermoqme")


def test_unknown_log_level_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("THERMOQME_LOG", "verbose")
    out = tmp_path / "mu.csv"
    assert main(["mu-table", "--min", "0", "--max", "0.5", "--steps", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "configuration error: THERMOQME_LOG: unknown logging level 'VERBOSE' "
        "(use DEBUG, INFO, WARNING, ERROR or CRITICAL)\n"
    )
    assert not out.exists()


def test_log_level_debug_logs_each_sampled_point(tmp_path, monkeypatch, caplog):
    cfg_path = _write(tmp_path, _two_level_config(integrator={"dt": 0.01, "t_end": 0.5}))
    monkeypatch.setenv("THERMOQME_LOG", "debug")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a.csv")]) == 0
    debug = [r.getMessage() for r in caplog.records if r.name == "thermoqme" and r.levelname == "DEBUG"]
    # 50 steps sampled every 10 -> t = 0, 0.1, ..., 0.5
    assert len(debug) == 6
    assert debug[0].startswith("nonlinear t=0 ") and debug[-1].startswith("nonlinear t=0.5 ")
    for key in ("trace_err", "herm_err", "min_eig", "total_energy", "total_entropy"):
        assert all(f"{key}=" in m for m in debug)

    # below DEBUG no per-sample message is even formatted
    caplog.clear()
    monkeypatch.setenv("THERMOQME_LOG", "info")
    monkeypatch.setattr(logging.getLogger("thermoqme"), "debug", None)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b.csv")]) == 0
    assert all(r.levelname == "INFO" for r in caplog.records if r.name == "thermoqme")
