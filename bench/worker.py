"""Runs one benchmark workload in a fresh process and writes its result.

Usage: python3 bench/worker.py --manifest PATH --seconds S --trace 0|1 --result PATH

The manifest (written by run.py) lists the workload's operations: one
trajectory through `simulate`, or one `thermoqme.cli.main` invocation.  The
untraced mode repeats the whole list until `--seconds` have passed and
reports time to solution, step throughput and peak memory.  The traced mode
runs each operation untraced and then with wrappers installed (tracer.py)
a fixed number of times, then times single calls per matrix dimension.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import thermoqme  # noqa: E402
import thermoqme.cli  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402

RELAX_TOL = 1e-6  # |m3 + tanh x| at t = 30
ENERGY_TOL = 1e-8  # relative total-energy drift of the closed system
SUMMARY_KEYS = ("nonlinear", "linearized", "max_abs_delta_rho_final")
DIMS = (2, 4, 8, 16, 32)


class Workload:
    """The operations of one workload plus what must hold across them."""

    def __init__(self, manifest: dict):
        self.kind = manifest["kind"]
        self.ops = manifest["ops"]
        self.min_cycles = manifest["min_cycles"]
        self.trace_cycles = manifest["trace_cycles"]
        self.out_root = Path(manifest["out_dir"])
        self.first_outputs = {}  # config path -> {file name: sha256}
        self.count = 0

    def run_op(self, op) -> dict:
        t0 = perf_counter()
        try:
            return self._simulate(op) if self.kind == "simulate" else self._cli(op)
        except Exception:  # an operation that raises is a failed check; the run goes on
            problem = "raised " + traceback.format_exc(limit=-1).strip().replace("\n", " | ")
            return {"elapsed": perf_counter() - t0, "steps": 0, "problems": [problem], "rows": 0, "bytes": 0}

    def _simulate(self, op) -> dict:
        s = thermoqme.build_run(thermoqme.load_config(op["config"]))  # set-up, not timed
        t0 = perf_counter()
        traj = thermoqme.simulate(s.rho0, s.bath, s.system, s.integrator, nonlinear=s.nonlinear)
        elapsed = perf_counter() - t0
        steps = round(traj.final.t / op["dt"])
        problems = []
        if traj.termination != "completed" or steps != op["steps"]:
            problems.append(f"stopped at step {steps} of {op['steps']}: {traj.violation}")
        rho = traj.final.rho
        gap = abs(float(np.real(rho[0, 0] - rho[1, 1])) + math.tanh(op["x"]))
        if not gap <= RELAX_TOL:
            problems.append(f"|m3 + tanh x| = {gap:.3e} exceeds {RELAX_TOL:.0e} (x = {op['x']})")
        return {"elapsed": elapsed, "steps": steps, "problems": problems, "rows": 0, "bytes": 0}

    def _cli(self, op) -> dict:
        self.count += 1
        out_dir = self.out_root / str(self.count)
        out_dir.mkdir(parents=True)
        if self.kind == "cli_run":
            argv = ["run", "--config", op["config"], "--out", str(out_dir / "trajectory.csv")]
        else:
            argv = ["compare", "--config", op["config"], "--out-dir", str(out_dir)]
        t0 = perf_counter()
        code = thermoqme.cli.main(argv)
        elapsed = perf_counter() - t0
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        shutil.rmtree(out_dir)

        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            steps = (_check_closure if self.kind == "cli_run" else _check_compare)(op, files, problems)
        except (KeyError, ValueError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
            steps = 0
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        first = self.first_outputs.setdefault(op["config"], digests)
        if digests != first:
            problems.append("outputs differ from an earlier run of the same configuration")
        return {
            "elapsed": elapsed,
            "steps": steps,
            "problems": problems,
            "rows": sum(data.count(b"\n") - 1 for name, data in files.items() if name.endswith(".csv")),
            "bytes": sum(len(data) for data in files.values()),
        }

    def measure(self, seconds: float) -> list[dict]:
        """Whole passes over the operation list until `seconds` have passed.

        Around each operation the machine speed is sampled for a quarter of its
        duration (calibrate.py), and the operation's `scale` comes from the
        samples just before and just after it."""
        samples = []
        start = perf_counter()
        cycles = 0
        before = calibrate.sample(0.25)
        while cycles < self.min_cycles or perf_counter() - start < seconds:
            for op in self.ops:
                s = self.run_op(op)
                after = calibrate.sample(max(0.05, 0.25 * s["elapsed"]))
                s["scale"] = calibrate.scale(before, after)
                samples.append(s)
                before = after
            cycles += 1
        return samples

    def paired(self, tracer: Tracer) -> tuple[list[dict], list[dict]]:
        """Each operation untraced and then traced, so that drift in machine
        speed hits both sides of the tracing-overhead ratio alike."""
        untraced, traced = [], []
        for _ in range(self.trace_cycles):
            for op in self.ops:
                untraced.append(self.run_op(op))
                tracer.install()
                try:
                    traced.append(self.run_op(op))
                finally:
                    tracer.remove()
        return untraced, traced


def _csv_columns(data: bytes, *names: str) -> list[list[float]]:
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    idx = [header.index(name) for name in names]
    rows = [line.split(",") for line in lines[1:]]
    return [[float(row[i]) for row in rows] for i in idx]


def _check_closure(op, files, problems) -> int:
    t, energy = _csv_columns(files["trajectory.csv"], "t", "total_energy")
    steps = round(t[-1] / op["dt"])
    if steps != op["steps"]:
        problems.append(f"stopped at step {steps} of {op['steps']}")
    drift = max(abs(e - energy[0]) for e in energy) / abs(energy[0])
    if not drift <= ENERGY_TOL:
        problems.append(f"relative total-energy drift {drift:.3e} exceeds {ENERGY_TOL:.0e}")
    return steps


def _check_compare(op, files, problems) -> int:
    summary = json.loads(files["summary.json"])
    missing = [key for key in SUMMARY_KEYS if key not in summary]
    if missing:
        problems.append(f"summary.json lacks {missing}")
    steps = 0
    for variant in ("nonlinear", "linearized"):
        (t,) = _csv_columns(files[f"{variant}.csv"], "t")
        done = round(t[-1] / op["dt"])
        steps += done
        if summary[variant]["termination"] != "completed" or done != op["steps_per_variant"]:
            problems.append(f"{variant} stopped at step {done} of {op['steps_per_variant']}")
    if "delta.csv" not in files:
        problems.append("delta.csv missing")
    return steps


def _tail(times: list[float]) -> dict | None:
    """Highest whole percentile above the median with at least ten samples beyond it."""
    n = len(times)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return {"percentile": p, "value": sorted(times)[math.ceil(p * n / 100) - 1], "samples": n}


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples) -> tuple[dict, dict]:
    """Timings at reference speed (calibrate.py); `info` keeps them unscaled."""
    times = [s["elapsed"] for s in samples]
    scaled = [s["elapsed"] * s["scale"] for s in samples]
    rates = [s["steps"] / t for s, t in zip(samples, scaled)]
    metrics = {
        "time_to_solution_s": _metric(statistics.median(scaled), "s"),
        # A median over operations, like time_to_solution_s: one long
        # operation (x = 5 in relax_2level) must not outweigh the rest.
        "steps_per_s": _metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    info = {
        "samples": len(times),
        "tail": _tail(scaled),
        "scale": sum(scaled) / sum(times),
        "unscaled": {
            "time_to_solution_s": statistics.median(times),
            "steps_per_s": statistics.median(s["steps"] / s["elapsed"] for s in samples),
        },
    }
    return metrics, info


def layer_metrics(tracer: Tracer, samples, overhead: float) -> dict:
    st = tracer.stats
    steps = st["integrator.step"].calls

    def per(n, d):
        return n / d if d else 0.0

    m = {}
    for layer in ("integrator.step", "master_equation.master_rhs"):
        m[f"{layer}.calls"] = _metric(st[layer].calls, "count")
        m[f"{layer}.self_s"] = _metric(st[layer].self_ns / 1e9, "s")
        m[f"{layer}.us_per_call"] = _metric(per(st[layer].total_ns / 1e3, st[layer].calls), "us")
    m["integrator.rhs_evals_per_step"] = _metric(per(st["integrator.rhs"].calls, steps), "count/step")
    for layer in (
        "integrator.observe",
        "environment.exchange_flux",
        "environment.bind_bath_rates",
        "operators.eigh",
        "operators.log_mean",
        "operators.modified",
        "two_level.pauli_decompose",
    ):
        m[f"{layer}.calls"] = _metric(st[layer].calls, "count")
        m[f"{layer}.s"] = _metric(st[layer].total_ns / 1e9, "s")
    binds = st["environment.bind_bath_rates"]
    m["environment.bind_bath_rates.rebuild_ratio"] = _metric(per(binds.rebuilds, binds.calls), "ratio")
    m["environment.heat_bath.constructs"] = _metric(st["environment.heat_bath"].calls, "count")
    m["operators.eigh_per_step"] = _metric(per(st["operators.eigh"].calls, steps), "count/step")
    for layer in ("config.load_config", "config.build_run", "cli.trajectory_rows", "cli.write_csv"):
        m[f"{layer}.s"] = _metric(st[layer].total_ns / 1e9, "s")
    m["cli.rows_written"] = _metric(sum(s["rows"] for s in samples), "count")
    m["cli.bytes_written"] = _metric(sum(s["bytes"] for s in samples), "bytes")
    m["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return m


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return h / np.linalg.norm(h)


def _random_density(rng, n, floor=1e-3):
    p = (1.0 - n * floor) * rng.dirichlet(np.ones(n)) + floor
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * p) @ q.conj().T


def _us_per_call(fn, batch_s: float, batches: int) -> float:
    fn()  # warm
    t0 = perf_counter()
    fn()
    single = perf_counter() - t0
    n = max(1, int(batch_s / max(single, 1e-9)))
    per_call = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        per_call.append((perf_counter() - t0) / n)
    return statistics.median(per_call) * 1e6


def dimension_table(seed: int, smoke: bool) -> dict:
    """Per-call cost of the public kernels at each dimension, two channels,
    fixed bath-equilibrium rates (T_e = 1), a seeded full-rank state."""
    rng = np.random.default_rng(seed)
    batch_s, batches = (0.0, 1) if smoke else (0.02, 5)
    m = {}
    for n in DIMS:
        H = _random_hermitian(rng, n)
        Q = [_random_hermitian(rng, n) for _ in range(2)]
        rho = _random_density(rng, n)
        channels = tuple(thermoqme.CouplingChannel(q, friction_rate=1.0, diffusion_rate=1.0) for q in Q)
        system = thermoqme.QuantumSystem(H, channels)
        bath = thermoqme.HeatBath.infinite(T_e=1.0, gamma0=1.0, omega_ref=1.0)
        c = Q[0] @ H - H @ Q[0]
        cells = {
            "operators.modified_operator": lambda: thermoqme.modified_operator(rho, c),
            "master_equation.master_rhs": lambda: thermoqme.master_rhs(rho, system, True),
            "master_equation.master_rhs_linearized": lambda: thermoqme.master_rhs(rho, system, False),
            "environment.environment_rhs": lambda: thermoqme.environment_rhs(bath, rho, system),
            "integrator.step": lambda: thermoqme.step(rho, bath, system, 0.01),
        }
        for name, call in cells.items():
            m[f"{name}.us_per_call.d{n}"] = _metric(_us_per_call(call, batch_s, batches), "us")
    return m


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "thermoqme").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    manifest = json.loads(Path(args.manifest).read_text())

    loaded = Path(thermoqme.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"thermoqme was imported from {loaded}, not from {SRC}", file=sys.stderr)
        return 1

    workload = Workload(manifest)
    if args.trace:
        tracer = Tracer()
        untraced, traced = workload.paired(tracer)
        base = sum(s["elapsed"] for s in untraced)
        overhead = (sum(s["elapsed"] for s in traced) - base) / base
        samples = untraced + traced
        metrics = layer_metrics(tracer, traced, overhead)
        metrics.update(dimension_table(manifest["seed"], manifest["smoke"]))
        info = {"samples": len(samples)}
    else:
        samples = workload.measure(args.seconds)
        metrics, info = end_to_end(samples)

    problems = [p for s in samples for p in s["problems"]]
    result = {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s["problems"]),
        "problems": list(dict.fromkeys(problems))[:10],
        "metrics": metrics,
        "info": info,
        "machine": machine_facts(),
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
