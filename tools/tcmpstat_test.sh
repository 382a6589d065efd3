#!/usr/bin/env bash
# Canonical-metrics round-trip test:
#   1. tcmpsim --metrics-out writes a schema-versioned JSON document
#      (with slack telemetry and a self-profile section).
#   2. tcmpstat summarizes it and a self-compare exits 0.
#   3. An injected +50% cycles regression makes the gate exit nonzero.
#   4. A corrupted schema version is rejected (exit 2).
#   5. One hand-written microbench document per bench group: a self-compare
#      passes, moving any gated row 25% in its worse direction or deleting
#      it exits 1, and a document with no gated section exits 2.
set -u

TCMPSIM=$1
TCMPSTAT=$2
WORKDIR=$3

mkdir -p "$WORKDIR"
cd "$WORKDIR" || exit 1

fail() { echo "tcmpstat_test: $*" >&2; exit 1; }

"$TCMPSIM" --app MP3D --config het --scale 0.05 --obs-level 1 \
    --self-profile --metrics-out base.json > /dev/null \
  || fail "tcmpsim --metrics-out failed"
[ -s base.json ] || fail "metrics file missing or empty"

grep -q '"schema":"tcmp-metrics"' base.json || fail "schema tag missing"
grep -q '"version":1' base.json || fail "schema version missing"
grep -q '"slack"' base.json || fail "slack section missing"
grep -q '"self_profile"' base.json || fail "self_profile section missing"

"$TCMPSTAT" base.json > /dev/null || fail "summary mode failed"

"$TCMPSTAT" --compare base.json base.json --tolerance 0 > /dev/null \
  || fail "self-compare regressed"

# Inject a +50% cycles regression: scale run.cycles up and confirm the gate
# trips at the default 20% tolerance.
CYCLES=$(sed -n 's/.*"cycles":\([0-9]*\).*/\1/p' base.json | head -1)
[ -n "$CYCLES" ] || fail "could not extract cycles"
WORSE=$((CYCLES + CYCLES / 2))
sed "s/\"cycles\":$CYCLES/\"cycles\":$WORSE/" base.json > worse.json
"$TCMPSTAT" --compare base.json worse.json > /dev/null \
  && fail "injected regression was not detected"

# Unsupported schema version must be rejected, not silently compared.
sed 's/"version":1/"version":999/' base.json > future.json
"$TCMPSTAT" future.json > /dev/null 2>&1
[ $? -eq 2 ] || fail "future schema version was not rejected"

# Writes a bench document for GROUP from NAME:VALUE arguments, in the shape
# of cmp::write_bench_metrics_json.
bench_doc() {
  local group=$1 sep='' kv
  shift
  printf '{\n  "schema": "tcmp-metrics",\n  "version": 1,\n  "bench": {\n'
  printf '    "host_cores": 4,\n    "%s": {' "$group"
  for kv in "$@"; do
    printf '%s\n      "%s": %s' "$sep" "${kv%%:*}" "${kv#*:}"
    sep=','
  done
  printf '\n    }\n  }\n}\n'
}

# bench_case GROUP NAME:BASE:WORSE... lists every gated row of GROUP; WORSE
# is BASE moved 25% in the row's worse direction.
bench_case() {
  local group=$1 spec i
  shift
  local rows=("$@") base=()
  for spec in "${rows[@]}"; do base+=("${spec%:*}"); done
  bench_doc "$group" "${base[@]}" "cycles:1000" > "$group.json"
  "$TCMPSTAT" --compare "$group.json" "$group.json" --tolerance 0 > /dev/null \
    || fail "$group: self-compare regressed"
  for i in "${!rows[@]}"; do
    local name=${rows[i]%%:*} moved=("${base[@]}") dropped=("${base[@]}")
    moved[i]="$name:${rows[i]##*:}"
    unset 'dropped[i]'
    bench_doc "$group" "${moved[@]}" > "$group.worse.json"
    "$TCMPSTAT" --compare "$group.json" "$group.worse.json" > /dev/null
    [ $? -eq 1 ] || fail "$group: 25% regression of $name was not detected"
    bench_doc "$group" "${dropped[@]}" > "$group.missing.json"
    "$TCMPSTAT" --compare "$group.json" "$group.missing.json" > /dev/null
    [ $? -eq 1 ] || fail "$group: $name missing from the new document passed"
    "$TCMPSTAT" --compare "$group.missing.json" "$group.json" > /dev/null
    [ $? -eq 1 ] || fail "$group: $name missing from the base document passed"
  done
}

bench_case kernel idle.speedup:20:15 memory-bound.speedup:2.5:1.875 \
  saturated.speedup:0.8:0.6
bench_case hotpath stat-bump.speedup:54:40.5 \
  saturated-traffic.kcps_per_mops:0.6:0.45
bench_case partition speedup:1.2:0.9
bench_case sampling speedup:10:7.5 cycle_error:0.1:0.125
bench_case mesh peak_rss_mib:100:125

# A document whose sections gate nothing must not pass as "no regressions".
bench_doc nosuchgroup speedup:1 > nogate.json
"$TCMPSTAT" --compare nogate.json nogate.json > /dev/null 2>&1
[ $? -eq 2 ] || fail "a compare that gates no row was not rejected"

echo "tcmpstat_test: OK"
