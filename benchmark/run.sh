#!/bin/bash
# The serve benchmark's one command. Builds (benchmark/build.sh), then:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One repetition of one workload in a fresh process — the form the
#       pipeline's driver calls (BENCHMARK.json). Prints every metric by
#       name with its unit; the last line is the result object. With
#       --trace 1 a short untraced run goes first, so that the traced
#       run can report trace.overhead_pct against its unscaled p50.
#
#   bash benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--check]
#       A full set: 3 fresh-process repetitions of every workload,
#       scheduled round-robin (rep 1 of all six, then rep 2, ...) so
#       slow host drift lands on every workload alike, then one traced
#       repetition of each; pooled and printed by `nimble-benchmark
#       report`. --smoke: one repetition of a tenth the length, stamped
#       smoke=true, never compared. --check: two sets back to back,
#       compared metric by metric against the bounds; exits non-zero on
#       any breach, any failed op, or a BENCHMARK.json that differs from
#       the tables it is generated from.
set -u
HERE=$(cd "$(dirname "$0")" && pwd)
cd "$HERE/.."

WORKLOAD= SEED=1 SECONDS_= TRACE=0 SMOKE=0 CHECK=0
REPS=3
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOAD=$2; shift 2 ;;
    --seed) SEED=$2; shift 2 ;;
    --seconds) SECONDS_=$2; shift 2 ;;
    --trace) TRACE=$2; shift 2 ;;
    --smoke) SMOKE=1; shift ;;
    --check) CHECK=1; shift ;;
    *) echo "benchmark/run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

bash benchmark/build.sh >&2 || exit 3
OUT=${CARGO_TARGET_DIR:-target}/benchmark
PLAIN=$OUT/plain/nimble-benchmark
TRACED=$OUT/traced/nimble-benchmark
HOST="rustc=$(rustc -V | tr ' ' '_') opt_level=3"

# traced_run <workload> <seed> <seconds> [more driver flags]: the short
# untraced run for the reference p50, then the traced run.
traced_run() {
  local w=$1 seed=$2 secs=$3; shift 3
  local short p50
  short=$(awk -v s="$secs" 'BEGIN { x = s / 4; print (x < 1 && s >= 1 ? 1 : x) }')
  p50=$("$PLAIN" run --workload "$w" --seed "$seed" --seconds "$short" --trace 0 --smoke \
        | awk '$1 == "raw.p50_ms" { print $2 }') || return 1
  [ -n "$p50" ] || return 1
  "$TRACED" run --workload "$w" --seed "$seed" --seconds "$secs" --trace 1 \
    --reference "$short:$p50" --out-dir "$OUT" --host "$HOST" "$@"
}

if [ -n "$WORKLOAD" ]; then
  SECONDS_=${SECONDS_:-10}
  if [ "$TRACE" = 1 ]; then
    traced_run "$WORKLOAD" "$SEED" "$SECONDS_"
  else
    "$PLAIN" run --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECONDS_" --trace 0 --host "$HOST"
  fi
  exit $?
fi

# ---- full set -------------------------------------------------------
WORKLOADS="join_serve lens_point lookup_join xml_scan view_refresh shard_fanout"
SECONDS_=${SECONDS_:-4}
FLAGS=()
if [ "$SMOKE" = 1 ]; then
  REPS=1
  SECONDS_=$(awk -v s="$SECONDS_" 'BEGIN { print s / 10 }')
  FLAGS=(--smoke)
fi

# one_rep <dir> <workload> <rep>: one untraced repetition; re-run once,
# and flagged, when the calibration kernel drifted more than 10 % under it.
one_rep() {
  local dir=$1 w=$2 rep=$3 drift
  for attempt in 1 2; do
    "$PLAIN" run --workload "$w" --seed "$SEED" --seconds "$SECONDS_" --trace 0 --host "$HOST" \
      --kv "$dir/$w.$rep.kv" ${FLAGS[@]+"${FLAGS[@]}"} >/dev/null || return 1
    drift=$(awk '$1 == "host.cal_drift" { print ($2 > 0.10) }' "$dir/$w.$rep.kv")
    [ "$drift" = 1 ] && [ "$attempt" = 1 ] && [ "$SMOKE" = 0 ] || break
    echo "  $w rep $rep: host drifted under it, re-running once" >&2
    : > "$dir/$w.$rep.rerun"
  done
}

run_set() {
  local dir=$1 rep w
  rm -rf "$dir"; mkdir -p "$dir"
  for rep in $(seq 1 "$REPS"); do
    for w in $WORKLOADS; do
      echo "  [$(basename "$dir")] $w rep $rep/$REPS" >&2
      one_rep "$dir" "$w" "$rep" || { echo "benchmark/run.sh: $w failed" >&2; return 1; }
    done
  done
  for w in $WORKLOADS; do
    echo "  [$(basename "$dir")] $w traced" >&2
    traced_run "$w" "$SEED" "$SECONDS_" --kv "$dir/$w.traced.kv" ${FLAGS[@]+"${FLAGS[@]}"} >/dev/null \
      || { echo "benchmark/run.sh: traced $w failed" >&2; return 1; }
  done
}

run_set "$OUT/set1" || exit 1
if [ "$CHECK" = 1 ]; then
  run_set "$OUT/set2" || exit 1
  "$PLAIN" report "$OUT/set2" --against "$OUT/set1"; RC=$?
  if ! "$PLAIN" manifest | cmp -s - BENCHMARK.json; then
    echo "BENCHMARK.json differs from \`nimble-benchmark manifest\`" >&2
    RC=1
  fi
  exit $RC
fi
"$PLAIN" report "$OUT/set1"
