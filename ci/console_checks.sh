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
# an unreadable config is a configuration error: exit 1 and a message, not a traceback
status=0
"${cli[@]}" run --config missing.json --out "$out/missing.csv" 2> "$out/missing.err" || status=$?
test "$status" -eq 1
grep -q "^configuration error: config: " "$out/missing.err"
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
