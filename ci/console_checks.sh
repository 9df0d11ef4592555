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

# the README's library quick start: m3 -> -tanh(1)
python - <<'EOF'
import math, re
readme = open("README.md", encoding="utf-8").read()
scope = {}
exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), scope)
m3 = scope["pauli_decompose"](scope["trajectory"].final.rho).a[2]
assert abs(m3 + math.tanh(1.0)) < 1e-6, m3
EOF
"${cli[@]}" compare --config configs/compare_high_temperature.json --out-dir "$out/cmp"
# pinned to one CPU, compare runs its variants one after the other instead of
# forking the linearized run: the same four files, byte for byte
taskset -c 0 "${cli[@]}" compare --config configs/compare_high_temperature.json --out-dir "$out/cmp_serial"
for name in nonlinear.csv linearized.csv delta.csv summary.json; do
  cmp "$out/cmp/$name" "$out/cmp_serial/$name"
done
# and no forked run outlives the command (a child has the parent's command line)
if pgrep -f -- "--out-dir $out/cmp\$" > /dev/null; then
  echo "compare left a process behind" >&2
  exit 1
fi
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
# every summary.json is strict JSON (RFC 8259 has no NaN or Infinity)
python - "$out/cmp/summary.json" "$out/cmp_low/summary.json" "$out/cmp_blow_up/summary.json" <<'EOF'
import json, sys
def reject(token):
    raise ValueError(f"{token} is not JSON")
summaries = [json.load(open(path, encoding="utf-8"), parse_constant=reject) for path in sys.argv[1:]]
blow_up = summaries[-1]
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
