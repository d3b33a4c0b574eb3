#!/usr/bin/env bash
# Throughput-harness smoke: run the deterministic bench suite at quick
# scale, validate the BENCH JSON schema (repro-bench-throughput-v2: each
# entry's unit, rep count, and min/median/p90 ns per unit), and prove the
# harness itself is deterministic — two same-seed runs must agree
# byte-for-byte once the timing fields (the only nondeterministic outputs)
# are stripped. Then run once at default scale and compare against the
# committed BENCH_26 baseline: schema, op coverage, units, seed, and n must
# match, and the median deltas are rendered as a table (to
# $GITHUB_STEP_SUMMARY when set). No wall-clock thresholds anywhere: CI
# runners share cores, so asserting on absolute timings would only
# manufacture flakes. Artifacts land in target/bench/ so CI uploads them
# for offline comparison. Last, `calibrate` and the figure benches that
# share its permuted-tree measurement (Figs. 6-12 and two ablations) run
# twice under different pool sizes: both runs must print the same bytes,
# and every "shape check:" line must read PASS.
set -euo pipefail

cd "$(dirname "$0")/.."

BENCH_DIR=target/bench
mkdir -p "$BENCH_DIR"

run() { cargo run --release -q -p repro-cli --bin repro-reduce -- "$@"; }

echo "== build (release) =="
cargo build --release -p repro-cli

echo "== bench suite (quick scale), twice, fixed seed =="
REPRO_SCALE=quick run bench --out "$BENCH_DIR/bench-a.json"
REPRO_SCALE=quick run bench --out "$BENCH_DIR/bench-b.json"

echo "== schema check =="
grep -q '"schema": "repro-bench-throughput-v2"' "$BENCH_DIR/bench-a.json" \
  || { echo "bench output lacks the schema marker" >&2; exit 1; }
required_ops=(sum/ST sum/PW sum/K sum/N sum/CP sum/DD sum/PR sum/DS
              rung/ST rung/K rung/CP rung/DS/call
              rung/DS/p2 rung/DS/p3 rung/DS/p4 rung/DS/p5 rung/DS/p6
              rung/DS/p7 rung/DS/p8 rung/DS/p9
              superacc/scalar superacc/batched superacc/wide simd/scalar
              select/profile
              select/sampled_profile select/cache_hit select/cache_miss
              obs/noop obs/ring obs/jsonl
              agg/ingest agg/merge agg/snapshot agg/finalize)
# The simd/<tier> entry list follows the machine: sse2/avx2 entries are
# required exactly when `repro-reduce simd --check` says the CPU has them.
for tier in sse2 avx2; do
  if run simd --check "$tier" >/dev/null 2>&1; then
    required_ops+=("simd/$tier")
  else
    echo "!! tier $tier unsupported here — not requiring simd/$tier coverage" >&2
  fi
done
for op in "${required_ops[@]}"; do
  grep -q "\"op\": \"$op\"" "$BENCH_DIR/bench-a.json" \
    || { echo "bench output is missing op $op" >&2; exit 1; }
done
grep -Eq '"unit": "(elem|call|event|update)", "reps": [0-9]+, "min_ns": [0-9]+(\.[0-9]+)?, "median_ns": [0-9]+(\.[0-9]+)?, "p90_ns": [0-9]+(\.[0-9]+)?' "$BENCH_DIR/bench-a.json" \
  || { echo "bench output lacks unit/reps/min/median/p90 readings" >&2; exit 1; }
grep -Eq '"git_rev": "[0-9a-f]{12}|unknown"' "$BENCH_DIR/bench-a.json" \
  || { echo "bench output lacks a git revision" >&2; exit 1; }

echo "== harness determinism (byte-for-byte modulo timing fields) =="
strip_timing() {
  # Every v2 timing field, formatted {:.4} today; a bare integer is
  # tolerated too — an earlier version of this strip missed integer
  # readings and let a "deterministic" diff compare live timings.
  sed -E 's/"(min|median|p90)_ns": [0-9]+(\.[0-9]+)?/"\1_ns": X/g' "$1"
}
diff <(strip_timing "$BENCH_DIR/bench-a.json") <(strip_timing "$BENCH_DIR/bench-b.json") \
  || { echo "same-seed bench runs diverged outside the timing fields" >&2; exit 1; }

echo "== baseline comparison (default scale vs committed BENCH_*.json) =="
run bench --out "$BENCH_DIR/bench-default.json"

ops_of() { sed -nE 's|.*"op": "([^"]+)".*|\1|p' "$1"; }
field_of() { sed -nE 's|.*"'"$2"'": ([0-9]+).*|\1|p' "$1" | sort -u; }
unit_of() { # $1 = file, $2 = op — empty when the op is absent
  sed -nE 's|.*"op": "'"$2"'", "n": [0-9]+, "unit": "([a-z]+)".*|\1|p' "$1"
}
median_of() { # $1 = file, $2 = op — empty when the op is absent
  sed -nE 's|.*"op": "'"$2"'", .*"median_ns": ([0-9]+(\.[0-9]+)?).*|\1|p' "$1"
}

baseline=BENCH_26.json
[ -f "$baseline" ] || { echo "committed baseline $baseline is missing" >&2; exit 1; }

grep -q '"schema": "repro-bench-throughput-v2"' "$baseline" \
  || { echo "$baseline lacks the schema marker" >&2; exit 1; }
for f in seed n; do
  a=$(field_of "$baseline" "$f"); b=$(field_of "$BENCH_DIR/bench-default.json" "$f")
  [ "$a" = "$b" ] || { echo "$f mismatch vs $baseline: baseline=$a run=$b" >&2; exit 1; }
done

# Op coverage: every baseline op must be reproduced here, except a simd
# tier this machine genuinely lacks (tolerated loudly); a fresh op absent
# from the baseline means the baseline is stale — fail so it gets refreshed.
while read -r op; do
  if ! ops_of "$BENCH_DIR/bench-default.json" | grep -qx "$op"; then
    case "$op" in
      simd/*)
        tier="${op#simd/}"
        if ! run simd --check "$tier" >/dev/null 2>&1; then
          echo "!! baseline op $op needs tier $tier, unsupported here — tolerated" >&2
          continue
        fi ;;
    esac
    echo "run is missing baseline op $op" >&2; exit 1
  fi
done < <(ops_of "$baseline")
while read -r op; do
  ops_of "$baseline" | grep -qx "$op" \
    || { echo "op $op is not in $baseline — refresh the committed baseline" >&2; exit 1; }
  a=$(unit_of "$baseline" "$op"); b=$(unit_of "$BENCH_DIR/bench-default.json" "$op")
  [ "$a" = "$b" ] || { echo "$op unit mismatch vs $baseline: baseline=$a run=$b" >&2; exit 1; }
done < <(ops_of "$BENCH_DIR/bench-default.json")

# Delta table: informational only (shared CI cores), but it rides every run.
table="$BENCH_DIR/baseline-delta.md"
{
  echo "### Bench vs committed baseline (median ns per unit)"
  echo ""
  echo "| op | unit | BENCH_26 | this run | Δ vs 26 |"
  echo "|---|---|---|---|---|"
  while read -r op; do
    b26=$(median_of "$baseline" "$op")
    now=$(median_of "$BENCH_DIR/bench-default.json" "$op")
    # A baseline that rounds to 0.0000 has no relative delta; gawk would
    # abort on the division.
    delta=$(awk -v a="$b26" -v b="$now" \
      'BEGIN { if (a == "" || b == "" || a + 0 == 0) print "n/a"; else printf "%+.1f%%", (b - a) / a * 100 }')
    echo "| $op | $(unit_of "$baseline" "$op") | ${b26:-–} | ${now:-–} | $delta |"
  done < <(ops_of "$baseline")
} > "$table"
cat "$table"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  cat "$table" >> "$GITHUB_STEP_SUMMARY"
fi

echo "== calibrate and figure benches (quick scale), at 1 and 4 pool workers =="
for workers in 1 4; do
  REPRO_RUNTIME_WORKERS=$workers run calibrate --n 2048 --perms 10 --seed 7 \
    > "$BENCH_DIR/calibrate-w$workers.csv"
done
cmp -s "$BENCH_DIR/calibrate-w1.csv" "$BENCH_DIR/calibrate-w4.csv" \
  || { echo "calibrate prints different bytes at 1 and 4 workers" >&2; exit 1; }
figs=(fig06_sensitivity fig07_error_distributions fig08_grid_methodology
      fig09_grid_k_dr fig10_grid_n_dr fig11_grid_n_k fig12_selection_map
      ablation_tree_shapes ablation_algorithms)
for fig in "${figs[@]}"; do
  for workers in 1 4; do
    REPRO_SCALE=quick REPRO_RUNTIME_WORKERS=$workers \
      cargo bench -q -p repro-bench --bench "$fig" > "$BENCH_DIR/$fig-w$workers.txt"
  done
  cmp -s "$BENCH_DIR/$fig-w1.txt" "$BENCH_DIR/$fig-w4.txt" \
    || { echo "$fig prints different bytes at 1 and 4 workers" >&2; exit 1; }
  if grep '^shape check:' "$BENCH_DIR/$fig-w1.txt" | grep -qv '^shape check: PASS'; then
    echo "$fig failed its shape check" >&2; exit 1
  fi
done

echo "== bench OK =="
