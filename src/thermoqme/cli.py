"""Command-line interface: `run`, `mu-table`, and `compare`.

Trajectories are written as UTF-8 CSV with a header row and
17-significant-digit scientific notation, so identical configurations
produce byte-identical files.  Exit codes: 0 for a completed run, 2 when a
structure monitor fired (the file still holds the trajectory up to the
violation), 1 for configuration errors, an output location that cannot be
created or written included.  Where the process may use more than one CPU,
`compare` runs its linearized variant at the same time as the nonlinear one,
in a child started by multiprocessing's fork context, whose trajectory comes
back through a multiprocessing ``Pipe``.  When the nonlinear run ends, the
parent reads that trajectory, waiting for it if need be, and unless the
child's run failed hands it the second half of the nonlinear rows, which
the child formats while the parent writes the header and the first half;
the parent then appends the child's text.  The files are the same as when
the variants run one after the other.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from functools import partial
from itertools import chain
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
    """Header, the function that makes one point's row of floats, and the
    points to write for one trajectory: every ``stride``-th recorded point
    and always the last, where a truncated run ended."""
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

    return header, row, traj.points[: -1 : setup.stride] + traj.points[-1:]


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


def _row_format(n_fields: int) -> str:
    """The format of one CSV line of ``n_fields`` floats."""
    return ",".join(["%.16e"] * n_fields) + "\n"


def _packed(rows, n_rows: int, n_fields: int) -> np.ndarray:
    """``n_rows`` rows of ``n_fields`` floats as one float64 array, filled as
    the rows arrive."""
    return np.fromiter(chain.from_iterable(rows), float, n_rows * n_fields).reshape(n_rows, n_fields)


def _csv_text(rows: np.ndarray) -> str:
    """The CSV lines of the rows of a 2-D float array, as :func:`_write_csv`
    writes them."""
    row_fmt = _row_format(rows.shape[1])
    return "".join([row_fmt % tuple(row) for row in rows.tolist()])


def _write_csv(path, header, rows, tail=None) -> None:
    """Write ``header``, then each row, a tuple of floats, as one line of
    "%.16e" fields as it arrives, then the text ``tail()`` returns, where
    ``tail`` is given."""
    row_fmt = _row_format(len(header))
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row_fmt % row)
        if tail is not None:
            fh.write(tail())


def _run_one(setup: RunSetup, nonlinear: bool, path, handoff=None) -> tuple[Trajectory, int]:
    """Integrate one variant, logging its wall time, steps and any monitor
    violation, and write its trajectory CSV to ``path``; returns
    (trajectory, rows written).

    ``handoff`` is the ``ask`` of :func:`_with_forked`, whose child formats
    rows with :func:`_csv_text`.  Unless the child's own run failed, the
    second half of the rows goes to it as one float64 array, and its text
    is written after the first half, which is formatted here meanwhile; the
    number of rows the child formatted is logged.  The one schedule that
    loses is a child still busy when the run here ends, as after a run here
    that stops early: this waits idle for it, which costs at most half the
    time this CSV takes to format."""
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
    header, row, points = _trajectory_rows(traj, setup)
    cut, tail = len(points) // 2, None
    if handoff is not None:
        tail = handoff(lambda: _packed(map(row, points[cut:]), len(points) - cut, len(header)))
    mine = points[:cut] if tail else points
    _write_csv(path, header, map(row, mine), tail)
    if handoff is not None:
        log.info("%s run: the forked child formatted %d of %d CSV rows", variant, len(points) - len(mine), len(points))
    return traj, len(points)


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
    _write_csv(args.out, ["m", "mu"], ((m, mu(m)) for m in grid.tolist()))
    print(f"wrote {args.out} ({args.steps} rows)")
    return EXIT_OK


def _two_cpus() -> bool:
    """Whether this process may run on more than one CPU; False where
    ``os.sched_getaffinity`` is missing."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _with_forked(child_fn, parent_fn, serve):
    """(parent_fn(ask), child_fn()), with ``child_fn`` run at the same time
    in a child started by multiprocessing's fork context, which then serves
    at most one request of the parent.

    The child sends its return value, or the exception it raised, through a
    multiprocessing ``Pipe``, then waits for a request, sends serve(request)
    back and exits, so it never returns into the caller's stack; the parent
    closing its end also ends the wait.  ask(make_request), which
    ``parent_fn`` calls at most once, reads the child's result, waiting for
    it if need be.  Where the child's run failed, ask returns None;
    otherwise it sends make_request() and returns a function, which
    ``parent_fn`` must call, that waits for serve(request) and returns it,
    or raises the exception serve raised.  As the result is read before a
    request is sent, two large messages never block both sides on a full
    pipe; a parent that asks before the child's run ends waits for it idle.

    The child's exception is raised here as the parent's own, after
    ``parent_fn`` has returned.  If ``parent_fn`` raises, the child is
    killed; either way it has been reaped when this returns or raises."""
    # imported here: after numpy it costs 6-9 ms, and `run` never forks
    import multiprocessing
    from multiprocessing.reduction import ForkingPickler

    context = multiprocessing.get_context("fork")
    conn, child_conn = context.Pipe()

    def send(outcome):
        try:
            message = ForkingPickler.dumps(outcome)
        except Exception as exc:
            message = ForkingPickler.dumps((False, RuntimeError(f"cannot send the result of the forked run: {exc!r}")))
        child_conn.send_bytes(message)

    def run():
        conn.close()  # so that the parent closing its end ends the wait with EOFError
        try:
            outcome = (True, child_fn())
        except BaseException as exc:
            outcome = (False, exc)
        try:
            send(outcome)
            request = child_conn.recv()
            try:
                send((True, serve(request)))
            except BaseException as exc:
                send((False, exc))
        except (EOFError, OSError):  # the parent has gone, or closed its end without a request
            pass

    def recv():
        try:
            return conn.recv()
        except (EOFError, ConnectionResetError):  # reset where the parent wrote to a child gone
            child.join()
            raise RuntimeError(f"the forked run sent no readable result (exit code {child.exitcode})") from None

    def reply():
        ok, value = recv()
        if not ok:
            raise value
        return value

    outcome = None  # the child's result, once read

    def ask(make_request):
        nonlocal outcome
        outcome = recv()
        if not outcome[0]:
            return None
        try:
            conn.send(make_request())
        except OSError:  # the child has gone; reading from it says how
            pass
        return reply

    child = context.Process(target=run)
    child.start()
    child_conn.close()
    try:
        try:
            mine = parent_fn(ask)
            ok, theirs = outcome or recv()
        except BaseException:
            child.kill()
            raise
    finally:
        conn.close()
        child.join()
    if not ok:
        raise theirs
    return mine, theirs


def cmd_compare(args) -> int:
    setup = build_run(load_config(args.config))
    out_dir = _output_dir(args.out_dir)
    log.info("compare: config %s, output directory %s", args.config, out_dir)

    def variant(name, handoff=None):
        return _run_one(setup, name == "nonlinear", out_dir / f"{name}.csv", handoff)[0]

    if _two_cpus():  # the linearized run goes to a forked child, on another CPU,
        # which then formats half of the nonlinear CSV
        nl, lin = _with_forked(lambda: variant("linearized"), partial(variant, "nonlinear"), _csv_text)
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
