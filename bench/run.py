"""thermoqme benchmark: time to solution and step throughput on three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of the workloads below, or `all` to run each in turn.  The
benchmark needs only the standard library here; the measured code runs in
fresh worker processes that import `thermoqme` from `src/` with the BLAS
pinned to one thread.  Load is a closed loop of one client: one process
runs one operation at a time.

Workloads (why each is here):

- relax_2level: the checked-in two-level relaxation family
  (configs/two_level_x*.json, 27,000 RK4 steps) through `simulate`, each
  from a seeded initial Bloch vector.  Dimension 2 and an infinite bath, so
  the per-call Python/numpy overhead of `step` -> `master_rhs` + bath flux
  dominates; bath-rate rebinding is a no-op and observation is sparse.
  Checked against the oracle |m3 + tanh x| <= 1e-6 at t = 30.
- closure_finite: configs/finite_bath_closure.json, cut to t = 1 and from a
  seeded initial state, through `thermoqme run`.  Same dimension as
  relax_2level but a finite bath, so rates are rebound every stage and the
  energy monitor is live: the difference isolates the environment layer.
  Checked by relative total-energy drift <= 1e-8.
- compare_dense16: a seeded N = 16 system (unit-norm H, two bath-bracket
  channels and one fixed-rate channel, infinite bath at T_e = 1) through
  `thermoqme compare`, monitored and written every step.  Eigendecompositions
  and matmuls are real arithmetic here, and it is the only workload that
  runs the linearized branch.  The bath is infinite so a linearized-flux
  fix cannot change how much work the run does.

End-to-end metrics (untraced): time_to_solution_s, the median wall time of
one operation (one trajectory or one CLI invocation, including its file
output); steps_per_s, the median over operations of RK4 steps per second;
setup_s, the median over fresh processes of `import thermoqme` +
`load_config` + `build_run`; peak_rss_mb, the worker's maximum resident
set.  Timings are scaled to a reference machine speed measured next to
each operation (calibrate.py); the unscaled values are printed too.
Failed result checks are counted in `failed` against `attempted`; the
tail percentile of time_to_solution_s, when enough operations ran, and
the machine facts are printed before the result line.  The traced run
(--trace 1) reports per-layer counts and times instead (tracer.py).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("relax_2level", "closure_finite", "compare_dense16")
FAMILY = (
    "two_level_x0p1.json",
    "two_level_x0p5.json",
    "two_level_x1.json",
    "two_level_x2.json",
    "two_level_x5.json",
)
CLOSURE = "finite_bath_closure.json"
CLOSURE_T_END = 1.0
DENSE_DIM = 16
DENSE_DT, DENSE_T_END = 0.01, 1.0
SMOKE_T_END = 0.05
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
# One BLAS thread, and a fixed hash seed so dict layout does not vary between processes.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
END_TO_END_ORDER = ("time_to_solution_s", "steps_per_s", "setup_s", "peak_rss_mb")


def _ball_point(rng: random.Random, radius: float = 0.9) -> list[float]:
    while True:
        m = [rng.uniform(-radius, radius) for _ in range(3)]
        if sum(v * v for v in m) <= radius * radius:
            return m


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _relax_ops(rng, configs: Path, inputs: Path, smoke: bool) -> list[dict]:
    ops = []
    for name in FAMILY[:1] if smoke else FAMILY:
        cfg = json.loads((configs / name).read_text())
        cfg["initial_state"] = {"bloch": _ball_point(rng)}
        consts = {"hbar": 1.0, "kB": 1.0, **cfg.get("constants", {})}
        x = consts["hbar"] * cfg["system"]["two_level"]["omega"] / (
            2.0 * consts["kB"] * cfg["environment"]["infinite"]["T_e"]
        )
        dt = cfg["integrator"]["dt"]
        steps = round(cfg["integrator"]["t_end"] / dt)
        ops.append({"config": _write(inputs / name, cfg), "x": x, "dt": dt, "steps": steps})
    return ops


def _closure_ops(rng, configs: Path, inputs: Path, smoke: bool) -> list[dict]:
    cfg = json.loads((configs / CLOSURE).read_text())
    cfg["initial_state"] = {"bloch": _ball_point(rng)}
    cfg["integrator"]["t_end"] = SMOKE_T_END if smoke else CLOSURE_T_END
    cfg.pop("output", None)
    dt = cfg["integrator"]["dt"]
    steps = round(cfg["integrator"]["t_end"] / dt)
    return [{"config": _write(inputs / CLOSURE, cfg), "dt": dt, "steps": steps}]


def _unit_hermitian(rng: random.Random, n: int) -> list:
    """Random Hermitian matrix of unit Frobenius norm as nested [re, im] pairs."""
    a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
    h = [[(a[i][j] + a[j][i].conjugate()) / 2 for j in range(n)] for i in range(n)]
    norm = math.sqrt(sum(abs(v) ** 2 for row in h for v in row))
    return [[[v.real / norm, v.imag / norm if i != j else 0.0] for j, v in enumerate(row)] for i, row in enumerate(h)]


def _dense_ops(rng, configs: Path, inputs: Path, smoke: bool) -> list[dict]:
    t_end = SMOKE_T_END if smoke else DENSE_T_END
    cfg = {
        "system": {
            "generic": {
                "hamiltonian": _unit_hermitian(rng, DENSE_DIM),
                "channels": [
                    {"Q": _unit_hermitian(rng, DENSE_DIM), "use_bath_bracket": True},
                    {"Q": _unit_hermitian(rng, DENSE_DIM), "use_bath_bracket": True},
                    {"Q": _unit_hermitian(rng, DENSE_DIM), "friction_rate": 0.5, "diffusion_rate": 0.5},
                ],
            }
        },
        "environment": {"infinite": {"T_e": 1.0, "gamma0": 1.0, "omega_ref": 1.0}},
        "integrator": {"dt": DENSE_DT, "t_end": t_end, "method": "rk4", "monitor_every": 1},
        "variant": "nonlinear",
        "output": {"stride": 1},
    }
    steps = round(t_end / DENSE_DT)
    return [
        {
            "config": _write(inputs / "dense16.json", cfg),
            "dt": DENSE_DT,
            "steps_per_variant": steps,
            "steps": 2 * steps,
        }
    ]


BUILDERS = {
    "relax_2level": ("simulate", _relax_ops),
    "closure_finite": ("cli_run", _closure_ops),
    "compare_dense16": ("cli_compare", _dense_ops),
}


def build_manifest(workload: str, seed: int, work: Path, smoke: bool) -> Path:
    kind, builder = BUILDERS[workload]
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = builder(random.Random(f"{workload}/{seed}"), Path("configs"), inputs, smoke)
    manifest = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "kind": kind,
        "ops": ops,
        # CLI outputs are compared run against run, so they run at least twice.
        "min_cycles": 1 if kind == "simulate" else 2,
        # Fixed, so traced counts repeat exactly from run to run.
        "trace_cycles": 1 if kind == "simulate" else 5,
        "out_dir": str(work / "out"),
    }
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class BenchError(RuntimeError):
    pass


def _child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_seconds(config: str, probes: int, deadline: float) -> list[tuple[float, float]]:
    """(measured seconds, speed scale) of each fresh-process probe."""
    probes_out = []
    for _ in range(probes):
        seconds, scale, module = _child([str(BENCH / "probe.py"), "src", config], deadline).stdout.split()
        if not Path(module).resolve().is_relative_to(Path("src").resolve()):
            raise BenchError(f"probe imported thermoqme from {module}")
        probes_out.append((float(seconds), float(scale)))
    return probes_out


def run_workload(workload: str, seed: int, seconds: int, trace: int, smoke: bool, work: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    manifest = build_manifest(workload, seed, work, smoke)
    ops = json.loads(manifest.read_text())["ops"]
    setup = None
    if not trace:
        setup = setup_seconds(ops[0]["config"], 1 if smoke else SETUP_PROBES, deadline)
    result_path = work / "result.json"
    _child(
        [
            str(BENCH / "worker.py"),
            "--manifest", str(manifest),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--result", str(result_path),
        ],
        deadline,
    )
    result = json.loads(result_path.read_text())
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": statistics.median(t * k for t, k in setup), "unit": "s"}
        result["info"]["unscaled"]["setup_s"] = statistics.median(t for t, _ in setup)
        result["metrics"] = {k: result["metrics"][k] for k in END_TO_END_ORDER}
    return result


def report(workload: str, seed: int, seconds: int, trace: int, result: dict) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {workload}  seed {seed}  {seconds} s  {mode}")
    print("machine " + json.dumps({"workload": workload, "seed": seed, **result["machine"]}, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    info = result["info"]
    if not trace:
        tail = info["tail"]
        tail_text = (
            f"p{tail['percentile']} = {tail['value']:.6g} s"
            if tail
            else "no percentile above the median has 10 samples beyond it"
        )
        print(f"  time_to_solution_s over {info['samples']} operations; tail: {tail_text}")
        unscaled = ", ".join(f"{k} {v:.6g}" for k, v in info["unscaled"].items())
        print(f"  machine speed scale {info['scale']:.4f}; unscaled: {unscaled}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.6g} ratio")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/thermoqme/__init__.py", "configs/" + CLOSURE) if not Path(p).is_file()]
    if missing:
        print(f"not a thermoqme checkout (missing {', '.join(missing)}); run from its root", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    work = BENCH / "_work" / str(os.getpid())
    results = {}
    try:
        for workload in workloads:
            shutil.rmtree(work, ignore_errors=True)
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace, args.smoke, work)
            report(workload, args.seed, args.seconds, args.trace, results[workload])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
