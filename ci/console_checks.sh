#!/usr/bin/env bash
# End-to-end checks of the command-line interface, run from the repository root.
# The arguments are the command that starts the CLI:
#   bash -e ci/console_checks.sh thermoqme                                   # installed package
#   PYTHONPATH=src bash -e ci/console_checks.sh python -m thermoqme.cli      # source tree
# Outputs go under $RUNNER_TEMP, or a fresh temporary directory when it is unset.
set -e
if [ "$#" -eq 0 ]; then
  echo "usage: $0 CLI-COMMAND..." >&2
  exit 64
fi
cli=("$@")
out="${RUNNER_TEMP:-$(mktemp -d)}"
mkdir -p "$out"
# a compare forks its linearized run unless pinned to one CPU; no forked run
# may outlive the command (a child has the parent's command line)
no_leftover() {
  if pgrep -f -- "--out-dir $1\$" > /dev/null; then
    echo "compare left a process behind: $1" >&2
    exit 1
  fi
}

# the README's library quick start: m3 -> -tanh(1)
python - <<'EOF'
import math, re
readme = open("README.md", encoding="utf-8").read()
scope = {}
exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), scope)
m3 = scope["pauli_decompose"](scope["trajectory"].final.rho).a[2]
assert abs(m3 + math.tanh(1.0)) < 1e-6, m3
EOF
# Python 3.12 and later warn when a multi-threaded process forks; the first
# forked compare makes that warning an error (numpy's OpenBLAS starts worker
# threads on import unless OPENBLAS_NUM_THREADS=1, as the CI workflow sets).
# It also logs at INFO, and must report that its child formatted some of
# the nonlinear rows
PYTHONWARNINGS="error:This process:DeprecationWarning" THERMOQME_LOG=INFO \
  "${cli[@]}" compare --config configs/compare_high_temperature.json --out-dir "$out/cmp" 2> "$out/cmp.err"
no_leftover "$out/cmp"
grep -Eq "nonlinear run: the forked child formatted [1-9][0-9]* of [0-9]+ CSV rows$" "$out/cmp.err"
# a compare above two levels, where the stage decomposes rho with LAPACK: a
# spin-1 ladder with one bath-bracket channel (J_x) and one fixed-rate
# channel (J_y), from a state with coherences
"${cli[@]}" compare --config configs/spin_one_ladder.json --out-dir "$out/cmp_n3"
no_leftover "$out/cmp_n3"
# a seeded N = 16 system (a nonlinear CSV of 101 rows of 277 fields), whose
# forked compare hands the child half of the nonlinear rows to format: the
# same four files as pinned to one CPU, and no process left behind
python - "$out/n16.json" <<'EOF'
import json, random, sys
rng = random.Random(2616)
def unit_hermitian(n=16):
    a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
    h = [[(a[i][j] + a[j][i].conjugate()) / 2 for j in range(n)] for i in range(n)]
    norm = sum(abs(v) ** 2 for row in h for v in row) ** 0.5
    return [[[v.real / norm, v.imag / norm if i != j else 0.0] for j, v in enumerate(row)] for i, row in enumerate(h)]
cfg = {
    "system": {
        "generic": {
            "hamiltonian": unit_hermitian(),
            "channels": [
                {"Q": unit_hermitian(), "use_bath_bracket": True},
                {"Q": unit_hermitian(), "use_bath_bracket": True},
                {"Q": unit_hermitian(), "friction_rate": 0.5, "diffusion_rate": 0.5},
            ],
        }
    },
    "environment": {"infinite": {"T_e": 1.0, "gamma0": 1.0, "omega_ref": 1.0}},
    "integrator": {"dt": 0.01, "t_end": 1.0, "monitor_every": 1},
}
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(cfg, fh)
EOF
"${cli[@]}" compare --config "$out/n16.json" --out-dir "$out/cmp_n16"
no_leftover "$out/cmp_n16"
taskset -c 0 "${cli[@]}" compare --config "$out/n16.json" --out-dir "$out/cmp_n16_serial"
for name in nonlinear.csv linearized.csv delta.csv summary.json; do
  cmp "$out/cmp_n16/$name" "$out/cmp_n16_serial/$name"
done
# every checked-in config, run and compared forked and pinned to one CPU
# (where compare runs its variants one after the other instead of forking
# the linearized run): the same sha256 listing of every file written
bash ci/output_digests.sh "${cli[@]}" > "$out/digests.txt"
taskset -c 0 bash ci/output_digests.sh "${cli[@]}" > "$out/digests_serial.txt"
test -s "$out/digests.txt"
cmp "$out/digests.txt" "$out/digests_serial.txt"
"${cli[@]}" run --config configs/two_level_x1.json --out "$out/x1.csv"
# the finite-bath run: exit 0, a header and 501 rows
"${cli[@]}" run --config configs/finite_bath_closure.json --out "$out/closure.csv"
test "$(wc -l < "$out/closure.csv")" -eq 502
"${cli[@]}" mu-table --min 0 --max 0.999 --steps 1000 --out "$out/mu.csv"
# the paper's nonlinear confinement at x = 10, end to end: exit 0, a
# header and 501 rows, and the state stays inside the Bloch ball
"${cli[@]}" run --config configs/sphere_nonlinear_x10.json --out "$out/nl_x10.csv"
python - "$out/nl_x10.csv" <<'EOF'
import csv, sys
rows = list(csv.DictReader(open(sys.argv[1], encoding="utf-8")))
assert len(rows) == 501, len(rows)
lowest = min(float(row["min_eig"]) for row in rows)
assert lowest > 0.0, lowest
EOF
# a flagged monitor violation exits 2 with a truncated CSV, not a traceback
status=0
"${cli[@]}" run --config configs/sphere_linearized_x10.json --out "$out/lin_x10.csv" || status=$?
test "$status" -eq 2
test -s "$out/lin_x10.csv"
# so does compare when one variant fires: at low temperature the linearized one
status=0
"${cli[@]}" compare --config configs/compare_low_temperature.json --out-dir "$out/cmp_low" || status=$?
test "$status" -eq 2
no_leftover "$out/cmp_low"
python - "$out/cmp_low/summary.json" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1], encoding="utf-8"))
assert summary["linearized"]["termination"] == "monitor_violation", summary
assert summary["nonlinear"]["termination"] == "completed", summary
EOF
# a compare whose variants both blow up (dt = 2 is past RK4's stability
# limit) exits 2, and its summary writes the non-finite values as null
python - "$out/blow_up.json" <<'EOF'
import json, sys
with open("configs/compare_high_temperature.json", encoding="utf-8") as fh:
    cfg = json.load(fh)
cfg["integrator"].update(dt=2.0, t_end=400.0, monitor_every=100)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(cfg, fh)
EOF
status=0
"${cli[@]}" compare --config "$out/blow_up.json" --out-dir "$out/cmp_blow_up" || status=$?
test "$status" -eq 2
no_leftover "$out/cmp_blow_up"
# every summary.json is strict JSON (RFC 8259 has no NaN or Infinity)
python - "$out/cmp/summary.json" "$out/cmp_low/summary.json" "$out/cmp_n3/summary.json" "$out/cmp_blow_up/summary.json" <<'EOF'
import json, sys
def reject(token):
    raise ValueError(f"{token} is not JSON")
summaries = [json.load(open(path, encoding="utf-8"), parse_constant=reject) for path in sys.argv[1:]]
n3, blow_up = summaries[-2:]
assert n3["nonlinear"]["termination"] == n3["linearized"]["termination"] == "completed", n3
assert "two_level" not in n3, n3
assert blow_up["max_abs_delta_rho_final"] is None, blow_up
assert blow_up["two_level"]["nonlinear_final_m3"] is None, blow_up
assert blow_up["two_level"]["linearized_final_m3"] is None, blow_up
EOF
# a finite bath drained within a sampled interval above two levels: a
# 3-level system, H = diag(1, 0, -1), one fixed channel J_x that heats it
# from near its ground state, and a small finite bath; run and compare
# both exit 2 and name the step that drained the bath (step 5 of the
# interval from step 4 to 8), with no traceback and no process left behind
python - "$out/drained_n3.json" <<'EOF'
import json, sys
r = 0.5 ** 0.5
def real(a):
    return [[[float(x), 0.0] for x in row] for row in a]
cfg = {
    "system": {
        "generic": {
            "hamiltonian": real([[1, 0, 0], [0, 0, 0], [0, 0, -1]]),
            "channels": [{"Q": real([[0, r, 0], [r, 0, r], [0, r, 0]]), "friction_rate": 0.1, "diffusion_rate": 1.0}],
        }
    },
    "environment": {"finite": {"C_e": 1.0, "H_e0": 0.2, "gamma0": 1.0, "omega_ref": 1.0}},
    "integrator": {"dt": 0.05, "t_end": 10.0, "monitor_every": 4},
    "initial_state": {"matrix": real([[0.001, 0, 0], [0, 0.001, 0], [0, 0, 0.998]])},
}
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(cfg, fh)
EOF
for command in run compare; do
  status=0
  if [ "$command" = run ]; then
    "${cli[@]}" run --config "$out/drained_n3.json" --out "$out/drained_n3.csv" > "$out/drained_n3.err" 2>&1 || status=$?
  else
    "${cli[@]}" compare --config "$out/drained_n3.json" --out-dir "$out/cmp_drained_n3" > "$out/drained_n3.err" 2>&1 || status=$?
    no_leftover "$out/cmp_drained_n3"
  fi
  test "$status" -eq 2
  grep -q "H_e=-0.0113941 in the step to t=0.25" "$out/drained_n3.err"
  if grep -q Traceback "$out/drained_n3.err"; then
    echo "$command on a drained 3-level bath printed a traceback" >&2
    exit 1
  fi
done
python - "$out/cmp_drained_n3/summary.json" <<'EOF'
import json, sys
def reject(token):
    raise ValueError(f"{token} is not JSON")
summary = json.load(open(sys.argv[1], encoding="utf-8"), parse_constant=reject)
assert summary["nonlinear"]["termination"] == "monitor_violation", summary
assert summary["linearized"]["termination"] == "monitor_violation", summary
EOF
# the dimension-2 kernel with a non-diagonal H and a complex coherence: a
# generic 2x2 system with H = [[0.5, 0.2-0.1i], [0.2+0.1i, -0.5]], a
# bath-bracket channel sigma_x/2, a fixed channel with an imaginary
# off-diagonal entry and a finite bath, from rho0 with Im rho10 != 0; run
# exits 0 with 41 rows that keep a complex coherence, its CSV is compare's
# nonlinear.csv, the forked compare and the one pinned to one CPU write the
# same four files, and no process is left behind
python - "$out/complex_n2.json" <<'EOF'
import json, sys
def c(a):
    return [[[complex(x).real, complex(x).imag] for x in row] for row in a]
cfg = {
    "system": {
        "generic": {
            "hamiltonian": c([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]]),
            "channels": [
                {"Q": c([[0, 0.5], [0.5, 0]]), "use_bath_bracket": True},
                {"Q": c([[0.3, 0.1j], [-0.1j, -0.3]]), "friction_rate": 0.2, "diffusion_rate": 0.3},
            ],
        }
    },
    "environment": {"finite": {"C_e": 2.0, "H_e0": 1.5, "gamma0": 0.8, "omega_ref": 1.0}},
    "integrator": {"dt": 0.01, "t_end": 2.0, "monitor_every": 5},
    "initial_state": {"matrix": c([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])},
}
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(cfg, fh)
EOF
"${cli[@]}" run --config "$out/complex_n2.json" --out "$out/complex_n2.csv"
python - "$out/complex_n2.csv" <<'EOF'
import csv, sys
rows = list(csv.DictReader(open(sys.argv[1], encoding="utf-8")))
assert len(rows) == 41, len(rows)
assert all(float(row["rho01_im"]) != 0.0 for row in rows), rows
EOF
"${cli[@]}" compare --config "$out/complex_n2.json" --out-dir "$out/cmp_complex_n2"
no_leftover "$out/cmp_complex_n2"
taskset -c 0 "${cli[@]}" compare --config "$out/complex_n2.json" --out-dir "$out/cmp_complex_n2_serial"
no_leftover "$out/cmp_complex_n2_serial"
cmp "$out/complex_n2.csv" "$out/cmp_complex_n2/nonlinear.csv"
for name in nonlinear.csv linearized.csv delta.csv summary.json; do
  cmp "$out/cmp_complex_n2/$name" "$out/cmp_complex_n2_serial/$name"
done
# an unreadable config is a configuration error: exit 1 and a message, not a traceback
status=0
"${cli[@]}" run --config missing.json --out "$out/missing.csv" 2> "$out/missing.err" || status=$?
test "$status" -eq 1
grep -q "^configuration error: config: " "$out/missing.err"
# so is a t_end / dt too large for a float to count the steps
python - "$out/overflow.json" <<'EOF'
import json, sys
with open("configs/two_level_x1.json", encoding="utf-8") as fh:
    cfg = json.load(fh)
cfg["integrator"].update(dt=1e-300, t_end=1e300)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(cfg, fh)
EOF
status=0
"${cli[@]}" run --config "$out/overflow.json" --out "$out/overflow.csv" 2> "$out/overflow.err" || status=$?
test "$status" -eq 1
test "$(head -c 32 "$out/overflow.err")" = "configuration error: integrator:"
if grep -q Traceback "$out/overflow.err"; then
  echo "an overflowing step count printed a traceback" >&2
  exit 1
fi
# so is a finite bath whose start temperature H_e0/C_e overflows, under
# run and compare alike
python - "$out/hot_bath.json" <<'EOF'
import json, sys
with open("configs/two_level_x1.json", encoding="utf-8") as fh:
    cfg = json.load(fh)
cfg["environment"] = {"finite": {"H_e0": 1e308, "C_e": 1e-300}}
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(cfg, fh)
EOF
for command in run compare; do
  status=0
  if [ "$command" = run ]; then
    "${cli[@]}" run --config "$out/hot_bath.json" --out "$out/hot_bath.csv" 2> "$out/hot_bath.err" || status=$?
  else
    "${cli[@]}" compare --config "$out/hot_bath.json" --out-dir "$out/cmp_hot_bath" 2> "$out/hot_bath.err" || status=$?
  fi
  test "$status" -eq 1
  test "$(head -c 20 "$out/hot_bath.err")" = "configuration error:"
  if grep -q Traceback "$out/hot_bath.err"; then
    echo "$command on an overflowing bath temperature printed a traceback" >&2
    exit 1
  fi
done
# so is a bad mu-table step count: exit 1, one message and no file
status=0
"${cli[@]}" mu-table --min 0 --max 0.5 --steps 1 --out "$out/mu_bad.csv" 2> "$out/mu_bad.err" || status=$?
test "$status" -eq 1
grep -q "^configuration error: mu-table: " "$out/mu_bad.err"
test ! -e "$out/mu_bad.csv"
# a strided run truncated at a violation still ends at the row that fired
python - "$out/lin_x10_s7.json" <<'EOF'
import json, sys
with open("configs/sphere_linearized_x10.json", encoding="utf-8") as fh:
    cfg = json.load(fh)
cfg["output"] = {"path": None, "stride": 7}
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(cfg, fh)
EOF
status=0
"${cli[@]}" run --config "$out/lin_x10_s7.json" --out "$out/lin_x10_s7.csv" || status=$?
test "$status" -eq 2
python - "$out/lin_x10_s7.csv" <<'EOF'
import csv, sys
rows = list(csv.DictReader(open(sys.argv[1], encoding="utf-8")))
assert float(rows[-1]["min_eig"]) < 0.0, rows[-1]
EOF
echo "console checks passed; outputs in $out"
