#!/bin/bash
# Offline build+drive harness: compiles the workspace with plain rustc,
# using std-only stubs for external deps, for containers with no cargo
# registry access. Outputs land under target/manual/. See
# .claude/skills/verify/SKILL.md ("No-network containers").
set -u
cd "$(dirname "$0")/../.."
OUT=target/manual/opt
TESTS=target/manual/tests
mkdir -p "$OUT" "$TESTS"
M=tools/offline_verify
# Extra rustc flags for the next R/T/B call (set around calls that need
# a feature cfg, reset to empty afterwards).
EXTRA=

R() { # R <name> <src> [externs...]
  local name=$1 src=$2; shift 2
  local ext=()
  for e in "$@"; do ext+=(--extern "$e=$OUT/lib$e.rlib"); done
  if ! rustc -O --edition 2021 $EXTRA -L "$OUT" --crate-type rlib --crate-name "$name" "$src" "${ext[@]}" --out-dir "$OUT" 2>"$OUT/$name.err"; then
    echo "FAIL rlib $name"; grep -E "^error" "$OUT/$name.err" | head -8; exit 1
  fi
  echo "ok rlib $name"
}

T() { # T <name> <src> [externs...]  (debug build => plan verify on)
  local name=$1 src=$2; shift 2
  local ext=()
  for e in "$@"; do ext+=(--extern "$e=$OUT/lib$e.rlib"); done
  if ! rustc --edition 2021 $EXTRA -L "$OUT" --test --crate-name "${name}_t" "$src" "${ext[@]}" -o "$TESTS/${name}_t" 2>"$TESTS/$name.err"; then
    echo "FAIL test-build $name"; grep -E "^error" "$TESTS/$name.err" | head -8; exit 1
  fi
  echo "ok test-build $name"
}

B() { # B <name> <src> [externs...]  (optimized binary)
  local name=$1 src=$2; shift 2
  local ext=()
  for e in "$@"; do ext+=(--extern "$e=$OUT/lib$e.rlib"); done
  if ! rustc -O --edition 2021 -L "$OUT" --crate-name "$name" "$src" "${ext[@]}" -o "$TESTS/$name" 2>"$TESTS/$name.err"; then
    echo "FAIL bin $name"; grep -E "^error" "$TESTS/$name.err" | head -8; exit 1
  fi
  echo "ok bin $name"
}

R nimble_xml crates/xml/src/lib.rs
# The trace rlib is built with allocation profiling on, so every test
# and bench binary in this harness gets the counting allocator (the
# cargo workspace enables the same feature for tests/benches).
EXTRA='--cfg feature="profile-alloc"'
R nimble_trace crates/trace/src/lib.rs
EXTRA=
R nimble_algebra crates/algebra/src/lib.rs nimble_xml
R nimble_xmlql crates/xmlql/src/lib.rs nimble_xml
R nimble_relational crates/relational/src/lib.rs nimble_xml
R nimble_planck crates/planck/src/lib.rs nimble_algebra
R parking_lot $M/stubs/parking_lot.rs
R rand $M/stubs/rand.rs
R serde_json $M/serde_json_stub.rs
R nimble_sources crates/sources/src/lib.rs nimble_xml nimble_relational parking_lot rand nimble_trace
R nimble_store crates/store/src/lib.rs nimble_xml parking_lot nimble_trace
R nimble_core crates/core/src/lib.rs nimble_xml nimble_xmlql nimble_algebra nimble_planck nimble_sources nimble_store parking_lot nimble_trace
R cleaning_shim $M/cleaning_shim.rs nimble_trace
R frontend_shim $M/frontend_shim.rs nimble_core nimble_store nimble_trace parking_lot nimble_xml nimble_sources
R nimble $M/nimble_shim.rs nimble_xml nimble_xmlql nimble_algebra nimble_relational nimble_sources nimble_store nimble_core nimble_trace frontend_shim
R nimble_bench crates/bench/src/lib.rs nimble_core nimble_sources nimble_trace serde_json

EXTRA='--cfg feature="profile-alloc"'
T xml crates/xml/src/lib.rs
T trace crates/trace/src/lib.rs
EXTRA=
T sources crates/sources/src/lib.rs nimble_xml nimble_relational parking_lot rand nimble_trace
T store crates/store/src/lib.rs nimble_xml parking_lot nimble_trace
T xmlql crates/xmlql/src/lib.rs nimble_xml
T relational crates/relational/src/lib.rs nimble_xml
T core crates/core/src/lib.rs nimble_xml nimble_xmlql nimble_algebra nimble_planck nimble_sources nimble_store parking_lot nimble_trace
T cleaning $M/cleaning_shim.rs nimble_trace
T frontend $M/frontend_shim.rs nimble_core nimble_store nimble_trace parking_lot nimble_xml nimble_sources
T algebra crates/algebra/src/lib.rs nimble_xml
T planck crates/planck/src/lib.rs nimble_algebra
T bench crates/bench/src/lib.rs nimble_core nimble_sources nimble_trace serde_json
T observability tests/observability.rs nimble serde_json
T provenance tests/provenance.rs nimble serde_json
T federation tests/federation.rs nimble
T availability tests/availability.rs nimble
T materialization tests/materialization.rs nimble
T architecture tests/architecture.rs nimble parking_lot
# Cold-and-warm sweep over the shard nodes' scan memo (the slice-typed
# eval and limited-sampling tests ride in the algebra and core bins).
T shard_differential crates/core/tests/shard_differential.rs nimble_core nimble_sources nimble_xml
# The bind stage against adapters that ignore key sets, against
# pushdown off, and through the outage matrix.
T bind_differential crates/core/tests/bind_differential.rs nimble_core nimble_sources nimble_xml
# Plans cached by shape and bound to each serve's parameters against
# `plan_cache_capacity: 0`: answers, shipped SQL, source calls, lineage;
# the stale-cache key and shard routing.
T param_differential crates/core/tests/param_differential.rs nimble_core nimble_sources nimble_xml nimble_xmlql
# The relational adapter's prepared statements against the SQL text
# they stand for: documents node for node, ExecStats count for count;
# one prepare per shape, DDL behind the adapter's back, two threads on
# one shape, ill-fitting slot values.
T prepared_differential crates/sources/tests/prepared_differential.rs nimble_sources nimble_relational nimble_xml
# The default plan against the all-central oracle (`pushdown: false`)
# and against itself with lineage tracked; the 8 optimizer
# configurations through planck with pruning on and off; streamed
# against tree serialization on both sides of the streaming threshold.
T batch_differential crates/core/tests/batch_differential.rs nimble_core nimble_sources nimble_xml
T plan_verify crates/core/tests/plan_verify.rs nimble_core nimble_sources nimble_xml nimble_xmlql
T stream_differential crates/core/tests/stream_differential.rs nimble_core nimble_sources nimble_xml

B exp_observability crates/bench/src/bin/exp_observability.rs nimble_bench nimble_core nimble_trace serde_json
B exp_provenance crates/bench/src/bin/exp_provenance.rs nimble_bench nimble_core nimble_trace nimble_xml serde_json
B exp_shard crates/bench/src/bin/exp_shard.rs nimble_bench nimble_core nimble_sources nimble_trace nimble_xml serde_json
B bench_check crates/bench/src/bin/bench_check.rs nimble_bench nimble_core nimble_trace serde_json
B quickstart examples/quickstart.rs nimble
B web_portal examples/web_portal.rs nimble
B legacy_navigator examples/legacy_navigator.rs nimble
B probe $M/consumer_probe.rs nimble_core nimble_sources nimble_algebra nimble_planck nimble_trace
echo "ALL BUILDS OK"
