"""Command-line interface: `run`, `mu-table`, and `compare`.

Trajectories are written as UTF-8 CSV with a header row and
17-significant-digit scientific notation, so identical configurations
produce byte-identical files.  Exit codes: 0 for a completed run, 2 when a
structure monitor fired (the file still holds the trajectory up to the
violation), 1 for configuration errors, an output location that cannot be
created or written included.  Where the process may use more than one CPU,
`compare` runs its linearized variant in a forked child at the same time
as the nonlinear one; the files are the same either way.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import pickle
import signal
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from .config import ConfigError, RunSetup, build_run, load_config
from .integrator import COMPLETED, Trajectory, simulate
from .operators import _two_level_entries
from .two_level import mu

log = logging.getLogger("thermoqme")

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_MONITOR_VIOLATION = 2


def _finite_or_none(x: float) -> float | None:
    """``x``, or None (JSON null) where it is not finite: NaN and Infinity
    are not JSON (RFC 8259)."""
    return x if math.isfinite(x) else None


def _bloch(rho) -> tuple[float, float, float]:
    """The Bloch vector (2 Re rho10, 2 Im rho10, rho00 - rho11) of a 2x2 density matrix."""
    a00, a11, re, im = _two_level_entries(rho)
    return 2.0 * re, 2.0 * im, a00 - a11


def _trajectory_rows(traj: Trajectory, setup: RunSetup):
    """Header and an iterator of float rows for one trajectory: every
    ``stride``-th recorded point and always the last, where a truncated run
    ended.  Each row is made only when it is read."""
    dim = setup.system.dim
    finite = setup.bath.kind == "finite"
    header = ["t"]
    if setup.two_level:
        header += ["m1", "m2", "m3"]
    else:
        for i in range(dim):
            for j in range(i, dim):
                header += [f"rho{i}{j}_re", f"rho{i}{j}_im"]
    if finite:
        header += ["H_e", "T_e"]
    header += ["total_energy", "total_entropy", "min_eig", "trace_err"]

    upper = np.triu_indices(dim)

    def row(point):
        # the Bloch vector, or the upper triangle as interleaved (re, im) floats
        state = _bloch(point.rho) if setup.two_level else point.rho[upper].view(float).tolist()
        bath = (point.env.H_e, point.env.T_e) if finite else ()
        m = point.monitors
        return (point.t, *state, *bath, m["total_energy"], m["total_entropy"], m["min_eig"], m["trace_err"])

    return header, map(row, traj.points[: -1 : setup.stride] + traj.points[-1:])


def _output_dir(path) -> Path:
    """Create the directory ``path`` and its parents; ConfigError if they cannot be."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output", f"cannot create directory {path}: {exc}") from exc
    return path


@contextmanager
def _output(path):
    """The text file ``path`` opened for writing; ConfigError if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError("output", f"cannot write {path}: {exc}") from exc


def _write_csv(path, header, rows) -> int:
    """Write ``header``, then each row, a tuple of floats, as one line of
    "%.16e" fields as it arrives; returns the number of rows."""
    row_fmt = ",".join(["%.16e"] * len(header)) + "\n"
    n_rows = 0
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row_fmt % row)
            n_rows += 1
    return n_rows


def _run_one(setup: RunSetup, nonlinear: bool, path) -> tuple[Trajectory, int]:
    """Integrate one variant, logging its wall time, steps and any monitor
    violation, and write its trajectory CSV to ``path``; returns
    (trajectory, rows written)."""
    variant = "nonlinear" if nonlinear else "linearized"
    log.info("%s run: %d steps of dt=%g", variant, setup.integrator.n_steps, setup.integrator.dt)
    start = perf_counter()
    traj = simulate(setup.rho0, setup.bath, setup.system, setup.integrator, nonlinear=nonlinear)
    wall = perf_counter() - start
    steps = round(traj.final.t / setup.integrator.dt)  # to the last recorded point, where a truncated run ends
    log.info(
        "%s run: %s at t=%g after %.3f s (%d of %d steps, %.2g steps/s)",
        variant, traj.termination, traj.final.t, wall, steps, setup.integrator.n_steps, steps / wall,
    )
    if traj.violation is not None:
        log.info("%s run: monitor violation: %s", variant, traj.violation)
    return traj, _write_csv(path, *_trajectory_rows(traj, setup))


def cmd_run(args) -> int:
    setup = build_run(load_config(args.config))
    out_path = args.out or setup.output_path
    if out_path is None:
        raise ConfigError("output.path", "required unless --out is given")
    _output_dir(Path(out_path).parent)

    log.info("run: config %s, output %s", args.config, out_path)
    traj, n_rows = _run_one(setup, setup.nonlinear, out_path)
    if traj.termination != COMPLETED:
        print(f"monitor violation: {traj.violation}", file=sys.stderr)
        print(f"wrote {out_path} (truncated at violation)")
        return EXIT_MONITOR_VIOLATION
    print(f"wrote {out_path} ({n_rows} rows)")
    return EXIT_OK


def cmd_mu_table(args) -> int:
    if not (0.0 <= args.min < args.max < 1.0):
        raise ConfigError("mu-table", f"range must satisfy 0 <= min < max < 1, got [{args.min}, {args.max}]")
    if args.steps < 2:
        raise ConfigError("mu-table", "steps must be >= 2")
    _output_dir(Path(args.out).parent)
    grid = np.linspace(args.min, args.max, args.steps)
    n_rows = _write_csv(args.out, ["m", "mu"], ((m, mu(m)) for m in grid.tolist()))
    print(f"wrote {args.out} ({n_rows} rows)")
    return EXIT_OK


def _two_cpus() -> bool:
    """Whether this process may run on more than one CPU; False where
    ``os.sched_getaffinity`` is missing."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _with_forked(child_fn, parent_fn):
    """(parent_fn(), child_fn()), with ``child_fn`` run at the same time in
    a child made with ``os.fork``.

    The child sends its return value, or the exception it raised, pickled
    through a pipe, and always leaves by ``os._exit``, so it never returns
    into the caller's stack.  The child's exception is raised here as the
    parent's own, after ``parent_fn`` has returned.  If ``parent_fn``
    raises, the child is killed; either way it has been reaped when this
    returns or raises."""
    for stream in (sys.stdout, sys.stderr):
        stream.flush()  # so that no buffered output is written twice
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = (True, child_fn())
            except BaseException as exc:
                result = (False, exc)
            try:
                data = pickle.dumps(result)
            except Exception as exc:
                data = pickle.dumps((False, RuntimeError(f"cannot send the result of the forked run: {exc!r}")))
            with open(write_fd, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    reader = open(read_fd, "rb")
    try:
        mine = parent_fn()
        data = reader.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        reader.close()
        status = os.waitpid(pid, 0)[1]
    try:
        ok, theirs = pickle.loads(data)
    except Exception as exc:
        raise RuntimeError(
            f"the forked run sent no readable result (exit code {os.waitstatus_to_exitcode(status)})"
        ) from exc
    if not ok:
        raise theirs
    return mine, theirs


def cmd_compare(args) -> int:
    setup = build_run(load_config(args.config))
    out_dir = _output_dir(args.out_dir)
    log.info("compare: config %s, output directory %s", args.config, out_dir)

    def variant(name):
        return _run_one(setup, name == "nonlinear", out_dir / f"{name}.csv")[0]

    if _two_cpus():  # the linearized run goes to a forked child, on another CPU
        nl, lin = _with_forked(lambda: variant("linearized"), lambda: variant("nonlinear"))
    else:
        nl, lin = variant("nonlinear"), variant("linearized")
    results = {"nonlinear": nl, "linearized": lin}

    # zip stops at the shorter trajectory: a truncated variant is compared up to where it ended
    deltas = [(p.t, float(np.max(np.abs(p.rho - q.rho)))) for p, q in zip(nl.points, lin.points)]
    _write_csv(out_dir / "delta.csv", ["t", "max_abs_delta_rho"], deltas)

    summary = {
        name: {"termination": traj.termination, "violation": traj.violation, "t_final": traj.final.t}
        for name, traj in results.items()
    }
    summary["max_abs_delta_rho_final"] = _finite_or_none(deltas[-1][1]) if deltas else None
    if setup.two_level:
        consts = setup.system.constants
        x = consts.hbar * setup.bath.omega_ref / (2.0 * consts.kB * setup.bath.temperature())
        m_nl, m_lin = _bloch(nl.final.rho), _bloch(lin.final.rho)
        summary["two_level"] = {
            "x": x,
            "nonlinear_final_m3": _finite_or_none(m_nl[2]),
            "linearized_final_m3": _finite_or_none(m_lin[2]),
            "equilibrium_m3": -float(np.tanh(x)),
            "linearized_steady_m3": -x,
            "steady_state_gap": abs(float(np.tanh(x)) - x),
            "linearized_left_bloch_ball": bool(np.linalg.norm(m_lin) > 1.0 + 1e-9)
            or lin.termination != COMPLETED,
        }
    with _output(out_dir / "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    for name, traj in results.items():
        print(f"{name}:".ljust(12) + traj.termination + (f" ({traj.violation})" if traj.violation else ""))
    if setup.two_level:
        tl = summary["two_level"]
        print(
            f"steady states: nonlinear m3 -> {m_nl[2]:.6f} "
            f"(equilibrium {tl['equilibrium_m3']:.6f}), linearized prediction {tl['linearized_steady_m3']:.6f}"
        )
        if tl["linearized_left_bloch_ball"]:
            print("linearized trajectory left the Bloch ball")
    print(f"wrote {out_dir}/nonlinear.csv, linearized.csv, delta.csv, summary.json")
    if any(traj.termination != COMPLETED for traj in results.values()):
        return EXIT_MONITOR_VIOLATION
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermoqme",
        description="Simulate the nonlinear thermodynamic quantum master equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured scenario and write a CSV trajectory")
    p_run.add_argument("--config", required=True, help="path to a JSON configuration")
    p_run.add_argument("--out", help="output CSV path (overrides output.path from the config)")
    p_run.set_defaults(func=cmd_run)

    p_mu = sub.add_parser("mu-table", help="tabulate the nonlinearity strength over a magnetization grid")
    p_mu.add_argument("--min", type=float, required=True)
    p_mu.add_argument("--max", type=float, required=True)
    p_mu.add_argument("--steps", type=int, required=True)
    p_mu.add_argument("--out", required=True)
    p_mu.set_defaults(func=cmd_mu_table)

    p_cmp = sub.add_parser("compare", help="run the nonlinear and linearized variants side by side")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out-dir", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    try:
        # the log level is checked before the arguments are parsed
        level = os.environ.get("THERMOQME_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError(
                "THERMOQME_LOG", f"unknown logging level {level!r} (use DEBUG, INFO, WARNING, ERROR or CRITICAL)"
            )
        logging.basicConfig(level=level)
        log.setLevel(level)
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:  # the one place a configuration error is reported
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
