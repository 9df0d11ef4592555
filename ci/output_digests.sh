#!/usr/bin/env bash
# The sha256 of every file that `run` and `compare` write for configs/*.json,
# run from the repository root.  The arguments are the command that starts
# the CLI:
#   PYTHONPATH=src bash ci/output_digests.sh python -m thermoqme.cli > digests.txt
# Run it in two trees and diff the two listings to check that a change keeps
# every output byte-identical.  Exit code 2 (a monitor fired; the CSV is
# truncated at the violation) is a normal outcome here; any other nonzero
# exit code stops the script.  Prints one line per written file, sorted:
#   <sha256>  <config name>/run.csv
#   <sha256>  <config name>/compare/<file>
set -e
if [ "$#" -eq 0 ]; then
  echo "usage: $0 CLI-COMMAND..." >&2
  exit 64
fi
cli=("$@")
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
# runs the CLI with the given arguments, its own output sent to stderr;
# exit codes 0 and 2 pass
written() {
  local status=0
  "${cli[@]}" "$@" >&2 || status=$?
  if [ "$status" -ne 0 ] && [ "$status" -ne 2 ]; then
    echo "$0: '${cli[*]} $*' exited $status" >&2
    exit 1
  fi
}
for config in configs/*.json; do
  name="$(basename "$config" .json)"
  written run --config "$config" --out "$out/$name/run.csv"
  written compare --config "$config" --out-dir "$out/$name/compare"
done
cd "$out"
find . -type f -printf '%P\n' | LC_ALL=C sort | xargs sha256sum
