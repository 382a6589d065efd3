#!/usr/bin/env bash
# Paper-table golden: `paper` (every table, figure and ablation) at
# TCMP_SCALE=0.01 must print tests/golden/paper_tables.txt byte for byte, at
# --jobs 1 and at --jobs 4. The golden is the concatenated stdout of the
# fifteen per-table binaries the driver replaced, so a table that merges two
# distinct runs, or renders from the wrong one, fails here. An unknown table
# or option, or --jobs 0, must exit 2.
#
# Usage: paper_golden_test.sh <paper-binary> <golden-file>
set -u
paper="$1"
golden="$2"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
for jobs in 1 4; do
  if ! TCMP_SCALE=0.01 "$paper" --jobs "$jobs" > "$tmp/out.txt" 2> "$tmp/err.txt"; then
    echo "FAIL: paper --jobs $jobs exited non-zero:" >&2
    tail -n 5 "$tmp/err.txt" >&2
    fail=1
  elif ! diff -u "$golden" "$tmp/out.txt" > "$tmp/diff.txt"; then
    echo "FAIL: paper --jobs $jobs differs from the golden (first lines):" >&2
    head -n 20 "$tmp/diff.txt" >&2
    fail=1
  else
    echo "ok: paper --jobs $jobs byte-identical"
  fi
done
# Bad arguments are refused with exit 2 before anything runs.
for args in "no-such-table" "--jobs 0" "--no-such-option"; do
  # shellcheck disable=SC2086
  "$paper" $args > /dev/null 2>&1
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: paper $args exited $status, expected 2" >&2
    fail=1
  fi
done
exit $fail
