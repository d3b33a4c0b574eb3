#!/usr/bin/env bash
# SIMD dispatch matrix: run the kernel-touching test suites once per
# REPRO_SIMD tier, then prove the dispatch paths are bitwise identical on
# fixed-seed data — same bench document (modulo timing) and byte-identical
# CLI sums/exact-error lines whichever tier computed them.
#
# Tier availability is probed with `repro-reduce simd --check <tier>`, which
# answers through its exit status. An unsupported tier is SKIPPED LOUDLY —
# it is a real coverage hole on this runner, never a silent pass — and
# `REPRO_SIMD` itself aborts the process if forced to a tier the CPU lacks,
# so a test that claims to have run under avx2 really did.
set -euo pipefail

cd "$(dirname "$0")/.."

SIMD_DIR=target/simd
mkdir -p "$SIMD_DIR"

run() { cargo run --release -q -p repro-cli --bin repro-reduce -- "$@"; }

echo "== build (release) =="
cargo build --release -p repro-cli

echo "== dispatch report =="
run simd

ran=()
skipped=()
for tier in scalar sse2 avx2; do
  if ! run simd --check "$tier" >/dev/null 2>&1; then
    echo "!! tier $tier unsupported on this runner — SKIPPING (coverage hole)" >&2
    skipped+=("$tier")
    continue
  fi

  echo "== tier $tier: kernel test suites (fp, sum, runtime, select) =="
  REPRO_SIMD="$tier" cargo test --release -q \
    -p repro-fp -p repro-sum -p repro-runtime -p repro-select

  echo "== tier $tier: fixed-seed bench digest (quick scale) =="
  REPRO_SIMD="$tier" REPRO_SCALE=quick run bench --out "$SIMD_DIR/bench-$tier.json"
  sed -E 's/"(min|median|p90)_ns": [0-9]+(\.[0-9]+)?/"\1_ns": X/g' \
    "$SIMD_DIR/bench-$tier.json" > "$SIMD_DIR/digest-$tier.json"

  echo "== tier $tier: fixed-seed numeric digest (CLI sums + exact error) =="
  # The sum command's exact-error line runs the dispatched superaccumulator
  # hot path over the full input, so these outputs carry real kernel bits.
  # Its `# manifest:` line records simd_tier and REPRO_SIMD, so it differs
  # per tier by design and is left out of the digest; every other line,
  # `# exact error:` included, must match across tiers.
  REPRO_SIMD="$tier" run gen --n 50000 --dr 28 --seed 2015 > "$SIMD_DIR/values.txt"
  : > "$SIMD_DIR/numeric-$tier.txt"
  for alg in ST PR DS; do
    REPRO_SIMD="$tier" run sum --alg "$alg" --hex --file "$SIMD_DIR/values.txt" \
      | grep -v '^# manifest: ' >> "$SIMD_DIR/numeric-$tier.txt"
  done
  # The agg engine's shards are superaccumulators fed +-2^30-binade
  # payloads, which the kernel splits into three or four parts per value:
  # its agg/digest lines carry those bits.
  REPRO_SIMD="$tier" run agg loadgen --aggregates 3 --clients 16 --batches 4 \
    --batch-len 256 --seed 2015 | grep -E '^(agg|digest) ' >> "$SIMD_DIR/numeric-$tier.txt"
  # The selector's decision record on each reduce-small shape carries the
  # exact profile: Σx and Σ|x| (so k) from the pair pass, and the
  # magnitude extremes. The `cost_source` field names the tier, so it is
  # stripped, with the `*_cost` prices it labels.
  for shape in 1:0 1e4:8 1e12:16 inf:16; do
    REPRO_SIMD="$tier" run trace reduce --n 4096 --k "${shape%:*}" --dr "${shape#*:}" \
      --seed 2015 | grep '"kind":"decision"' \
      | sed -E 's/,"[A-Za-z]+_cost":[^,]*//g; s/,"cost_source":"[^"]*"//' \
      >> "$SIMD_DIR/numeric-$tier.txt"
  done

  ran+=("$tier")
done

echo "== cross-tier bitwise identity (${ran[*]}) =="
first="${ran[0]}"
for tier in "${ran[@]:1}"; do
  diff "$SIMD_DIR/digest-$first.json" "$SIMD_DIR/digest-$tier.json" \
    || { echo "bench digests diverge between $first and $tier" >&2; exit 1; }
  diff "$SIMD_DIR/numeric-$first.txt" "$SIMD_DIR/numeric-$tier.txt" \
    || { echo "numeric digests diverge between $first and $tier" >&2; exit 1; }
  echo "   $first == $tier (bench + numeric digests)"
done

if [ "${#ran[@]}" -lt 2 ]; then
  echo "!! only ${#ran[@]} tier(s) ran — the cross-tier diff proved nothing" >&2
fi
if [ "${#skipped[@]}" -gt 0 ]; then
  echo "!! skipped tiers on this runner: ${skipped[*]}" >&2
fi

echo "== simd matrix OK (ran: ${ran[*]}; skipped: ${skipped[*]:-none}) =="
