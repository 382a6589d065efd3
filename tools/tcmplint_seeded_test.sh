#!/usr/bin/env bash
# Seeded-violation harness for tcmplint (mirrors tcmpcheck --mutate): plant
# exactly one violation of each rule in a scratch copy of src/ and assert the
# corresponding rule exits nonzero — proving the lint actually catches what
# it claims to. Also asserts the pristine copy is clean per rule, so a
# failure is attributable to the seeded edit alone.
#
#   tcmplint_seeded_test.sh <tcmplint-binary> <repo-root>
set -euo pipefail

lint="$1"
repo="$2"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

fresh_tree() {
  rm -rf "$scratch/tree"
  mkdir -p "$scratch/tree"
  cp -r "$repo/src" "$scratch/tree/src"
}

exercised=()

# expect_catch <rule> — the seeded tree must fail, naming the rule.
expect_catch() {
  local rule="$1"
  exercised+=("$rule")
  if "$lint" --root "$scratch/tree" --rule "$rule" >"$scratch/out" 2>&1; then
    echo "FAIL: seeded $rule violation was NOT caught"
    cat "$scratch/out"
    exit 1
  fi
  if ! grep -q "\[$rule\]" "$scratch/out"; then
    echo "FAIL: $rule finding not attributed to the rule"
    cat "$scratch/out"
    exit 1
  fi
  echo "ok: $rule catches its seeded violation"
}

# expect_clean <rule> — the pristine tree must pass the rule.
expect_clean() {
  local rule="$1"
  if ! "$lint" --root "$scratch/tree" --rule "$rule" >"$scratch/out" 2>&1; then
    echo "FAIL: pristine tree not clean under $rule"
    cat "$scratch/out"
    exit 1
  fi
}

# --- raw-unit: a double member with a unit suffix and no allow-comment.
fresh_tree
expect_clean raw-unit
cat > "$scratch/tree/src/common/seeded_raw_unit.hpp" <<'EOF'
#pragma once
struct SeededRawUnit {
  double energy_j = 0.0;
};
EOF
expect_catch raw-unit

# --- msgtype-tables: a new enumerator absent from both tables (and from
# kNumMsgTypes).
fresh_tree
expect_clean msgtype-tables
sed -i 's/^  kPutAck,/  kPutAck,\n  kSeededViolation,/' \
  "$scratch/tree/src/protocol/coherence_msg.hpp"
expect_catch msgtype-tables

# --- stat-registration: a Histogram member outside StatRegistry.
fresh_tree
expect_clean stat-registration
cat > "$scratch/tree/src/common/seeded_stat.hpp" <<'EOF'
#pragma once
#include "common/stats.hpp"
struct SeededStat {
  tcmp::Histogram leaked_{8, 4};
};
EOF
expect_catch stat-registration

# --- stat-string-hot-path: a per-event string-keyed counter lookup in a
# hot-path directory, outside any constructor/init and without the
# allow-comment.
fresh_tree
expect_clean stat-string-hot-path
cat > "$scratch/tree/src/protocol/seeded_stat_string.cpp" <<'EOF'
#include "common/stats.hpp"
namespace tcmp {
void seeded_hot_bump(StatRegistry& stats) {
  ++stats.counter("seeded.hot.lookup");
}
}  // namespace tcmp
EOF
expect_catch stat-string-hot-path

# --- obs-emit-interned: a per-event emit site resolving its handle from a
# string literal (the interning is supposed to happen once, at init).
fresh_tree
expect_clean obs-emit-interned
cat > "$scratch/tree/src/obs/seeded_emit.cpp" <<'EOF'
#include "common/stats.hpp"
namespace tcmp {
void seeded_emit_site(StatRegistry& stats) {
  stats.histogram_ref("seeded.slack.emit").add(1);
}
}  // namespace tcmp
EOF
expect_catch obs-emit-interned

# --- scheduled-contract: a ticked component that hides from the
# dead-cycle skip (no next_event/quiescent, no allow-comment).
fresh_tree
expect_clean scheduled-contract
cat > "$scratch/tree/src/common/seeded_unscheduled.hpp" <<'EOF'
#pragma once
#include "common/types.hpp"
struct SeededUnscheduled {
  void tick(tcmp::Cycle now);
};
EOF
expect_catch scheduled-contract

# --- mutable-static: a non-const function-local static (shared mutable
# state every sweep worker thread can reach).
fresh_tree
expect_clean mutable-static
cat > "$scratch/tree/src/common/seeded_mutable_static.cpp" <<'EOF'
namespace tcmp {
int seeded_count_calls() {
  static int hits = 0;
  return ++hits;
}
}  // namespace tcmp
EOF
expect_catch mutable-static

# --- guarded-field: a class holding a Mutex whose sibling field carries no
# TCMP_GUARDED_BY annotation.
fresh_tree
expect_clean guarded-field
cat > "$scratch/tree/src/common/seeded_guarded_field.hpp" <<'EOF'
#pragma once
#include "common/sync.hpp"
struct SeededGuardedField {
  tcmp::Mutex mu;
  int unguarded = 0;
};
EOF
expect_catch guarded-field

# --- tile-escape: a protocol-side struct caching a raw pointer to another
# tile's core (a direct cross-tile call path, exactly what Graphite-style
# partitioning must not find).
fresh_tree
expect_clean tile-escape
cat > "$scratch/tree/src/protocol/seeded_tile_escape.hpp" <<'EOF'
#pragma once
namespace tcmp::core {
class Core;
}
struct SeededTileEscape {
  tcmp::core::Core* victim_core = nullptr;
};
EOF
expect_catch tile-escape

# --- nondet-iteration: a cross-TU pair — the header declares an
# unordered_map member, the .cpp iterates it without an annotation. Exercises
# the class model's member-to-defining-TU resolution, not just same-file
# matching.
fresh_tree
expect_clean nondet-iteration
cat > "$scratch/tree/src/protocol/seeded_nondet.hpp" <<'EOF'
#pragma once
#include <unordered_map>
namespace tcmp::protocol {
class SeededNondet {
 public:
  int sum();

 private:
  std::unordered_map<int, int> table_;
};
}  // namespace tcmp::protocol
EOF
cat > "$scratch/tree/src/protocol/seeded_nondet.cpp" <<'EOF'
#include "protocol/seeded_nondet.hpp"
namespace tcmp::protocol {
int SeededNondet::sum() {
  int s = 0;
  for (const auto& [k, v] : table_) s += v * k;
  return s;
}
}  // namespace tcmp::protocol
EOF
expect_catch nondet-iteration

# --- uninit-member: a scalar member with no default initializer and no
# constructor covering it.
fresh_tree
expect_clean uninit-member
cat > "$scratch/tree/src/protocol/seeded_uninit.hpp" <<'EOF'
#pragma once
namespace tcmp::protocol {
struct SeededUninit {
  int counter_;
};
}  // namespace tcmp::protocol
EOF
expect_catch uninit-member

# --- reset-coverage: a lifecycle reset() that silently skips a member.
fresh_tree
expect_clean reset-coverage
cat > "$scratch/tree/src/protocol/seeded_reset.hpp" <<'EOF'
#pragma once
namespace tcmp::protocol {
struct SeededReset {
  void reset() { a_ = 0; }
  int a_ = 0;
  int b_ = 0;
};
}  // namespace tcmp::protocol
EOF
expect_catch reset-coverage

# --- snapshot-coverage: a snapshot_io() serializer that silently skips a
# member (it would restore to its constructed value and desynchronize the
# restored run).
fresh_tree
expect_clean snapshot-coverage
cat > "$scratch/tree/src/protocol/seeded_snapshot.hpp" <<'EOF'
#pragma once
namespace tcmp::protocol {
struct SeededSnapshot {
  template <class Ar>
  void snapshot_io(Ar& ar) {
    ar.value(a_);
  }
  int a_ = 0;
  int b_ = 0;
};
}  // namespace tcmp::protocol
EOF
expect_catch snapshot-coverage

# --- ambient-nondeterminism: wall-clock time outside the sanctioned TUs.
fresh_tree
expect_clean ambient-nondeterminism
cat > "$scratch/tree/src/common/seeded_ambient.cpp" <<'EOF'
#include <ctime>
namespace tcmp {
long seeded_wall_clock() { return static_cast<long>(std::time(nullptr)); }
}  // namespace tcmp
EOF
expect_catch ambient-nondeterminism

# --- pragma-once: a header without the guard.
fresh_tree
expect_clean pragma-once
echo "struct SeededNoGuard {};" > "$scratch/tree/src/common/seeded_guard.hpp"
expect_catch pragma-once

# --- completeness: every rule tcmplint advertises must have been exercised
# above — a rule added to the linter without a seeded violation fails here.
while IFS= read -r rule; do
  found=0
  for e in "${exercised[@]}"; do
    [[ "$e" == "$rule" ]] && found=1
  done
  if [[ "$found" == 0 ]]; then
    echo "FAIL: rule '$rule' (from --list-rules) has no seeded violation"
    exit 1
  fi
done < <("$lint" --list-rules)

echo "tcmplint seeded-violation harness: all rules catch"
