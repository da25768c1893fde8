#!/bin/bash
# The benchmark's single build path: plain `rustc -C opt-level=3` over
# the nine crates a serve runs through, the benchmark's own std-only
# stand-ins for their three external dependencies, and the driver.
#
# Two variants are built, because `nimble-trace`'s counting allocator is
# a compile-time feature and everything downstream of it links against
# one or the other:
#   plain/   nimble-trace as shipped           -> end-to-end runs
#   traced/  --cfg feature="profile-alloc"     -> per-layer (traced) runs
# Crates that do not depend on nimble-trace are compiled once (shared/).
#
# Outputs (and rustc's temporary files) go to
# ${CARGO_TARGET_DIR:-target}/benchmark. Stamps of the inputs' checksums
# make a second call a no-op.
set -u
cd "$(dirname "$0")/.."
ROOT=$PWD
OUT=${CARGO_TARGET_DIR:-target}/benchmark
B=benchmark
RUSTC="rustc --edition 2021 -C opt-level=3 --cap-lints allow"

for c in xml trace algebra xmlql relational planck sources store core; do
  if [ ! -f "crates/$c/src/lib.rs" ]; then
    echo "benchmark/build.sh: crates/$c/src/lib.rs not found under $ROOT — run from a checkout of the repository" >&2
    exit 3
  fi
done

export TMPDIR="$ROOT/$OUT/tmp"
case "$OUT" in /*) TMPDIR="$OUT/tmp" ;; esac
mkdir -p "$OUT/shared" "$OUT/plain" "$OUT/traced" "$TMPDIR"

# Two stamps — one over what the rlibs are built from, one over the
# driver's sources — so an edit under benchmark/src recompiles only the
# driver.
sum() { { rustc -V; find "$@" -type f | LC_ALL=C sort | xargs cksum; } | cksum; }
LIBS_WANT=$(sum crates/{xml,trace,algebra,xmlql,relational,planck,sources,store,core}/src $B/stubs $B/build.sh)
DRIVER_WANT=$(sum $B/src $B/build.sh)
fresh() { [ -f "$OUT/$1.stamp" ] && [ "$(cat "$OUT/$1.stamp")" = "$2" ]; }

# lib <dir> <crate_name> <src> [cfg flags...] — every rlib already in
# shared/ and in <dir> is passed as --extern, so a crate sees exactly
# the crates built before it.
lib() {
  local dir=$1 name=$2 src=$3; shift 3
  local ext=() f n d
  local dirs=("$OUT/shared"); [ "$dir" = shared ] || dirs+=("$OUT/$dir")
  for d in "${dirs[@]}"; do
    for f in "$d"/lib*.rlib; do
      [ -f "$f" ] || continue
      n=${f##*/lib}; n=${n%.rlib}
      [ "$n" = "$name" ] || ext+=(--extern "$n=$f")
    done
  done
  if ! $RUSTC "$@" --crate-type rlib --crate-name "$name" "$src" \
        -L "$OUT/shared" -L "$OUT/$dir" "${ext[@]}" --out-dir "$OUT/$dir" 2>"$OUT/$dir/$name.err"; then
    echo "benchmark/build.sh: FAILED $dir/$name" >&2
    grep -A6 -E "^error" "$OUT/$dir/$name.err" | head -40 >&2
    return 1
  fi
}

# variant <dir> [cfg flags for nimble-trace]: the crates downstream of
# nimble-trace (unless fresh), then the driver.
variant() {
  local dir=$1; shift
  if ! fresh libs "$LIBS_WANT"; then
    rm -f "$OUT/$dir"/lib*.rlib
    lib "$dir" nimble_trace crates/trace/src/lib.rs "$@" &&
    lib "$dir" nimble_sources crates/sources/src/lib.rs &&
    lib "$dir" nimble_store crates/store/src/lib.rs &&
    lib "$dir" nimble_core crates/core/src/lib.rs || return 1
  fi
  local ext=() f n
  for f in "$OUT"/shared/lib*.rlib "$OUT/$dir"/lib*.rlib; do
    n=${f##*/lib}; n=${n%.rlib}; ext+=(--extern "$n=$f")
  done
  if ! $RUSTC --crate-name nimble_benchmark $B/src/main.rs -L "$OUT/shared" -L "$OUT/$dir" \
        "${ext[@]}" -o "$OUT/$dir/nimble-benchmark" 2>"$OUT/$dir/driver.err"; then
    echo "benchmark/build.sh: FAILED $dir/driver" >&2
    grep -A12 -E "^error" "$OUT/$dir/driver.err" | head -80 >&2
    return 1
  fi
}

if fresh libs "$LIBS_WANT" && fresh driver "$DRIVER_WANT" \
   && [ -x "$OUT/plain/nimble-benchmark" ] && [ -x "$OUT/traced/nimble-benchmark" ]; then
  exit 0
fi
rm -f "$OUT/driver.stamp"
if ! fresh libs "$LIBS_WANT"; then
  rm -f "$OUT/libs.stamp" "$OUT"/shared/lib*.rlib
  lib shared nimble_xml crates/xml/src/lib.rs &&
  lib shared nimble_algebra crates/algebra/src/lib.rs &&
  lib shared nimble_xmlql crates/xmlql/src/lib.rs &&
  lib shared nimble_relational crates/relational/src/lib.rs &&
  lib shared nimble_planck crates/planck/src/lib.rs &&
  lib shared parking_lot $B/stubs/parking_lot.rs &&
  lib shared crossbeam $B/stubs/crossbeam.rs &&
  lib shared rand $B/stubs/rand.rs || exit 1
fi

# The two variants share nothing they write, so they build side by side.
variant plain & P1=$!
variant traced --cfg 'feature="profile-alloc"' & P2=$!
wait $P1; R1=$?
wait $P2; R2=$?
[ $R1 -eq 0 ] && [ $R2 -eq 0 ] || exit 1
echo "$LIBS_WANT" > "$OUT/libs.stamp"
echo "$DRIVER_WANT" > "$OUT/driver.stamp"
