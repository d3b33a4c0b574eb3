#!/usr/bin/env bash
# Throughput-harness smoke: run the deterministic bench suite at quick
# scale, validate the BENCH JSON schema, and prove the harness itself is
# deterministic — two same-seed runs must agree byte-for-byte once the
# timing fields (the only nondeterministic outputs) are stripped. Then run
# once at default scale and compare against the committed BENCH_21/BENCH_22
# baselines: schema, op coverage, seed, and n must match, and the ns/elem
# deltas are rendered as a table (to $GITHUB_STEP_SUMMARY when set). No
# wall-clock thresholds anywhere: CI runners share cores, so asserting on
# absolute ns/elem would only manufacture flakes. Artifacts land in
# target/bench/ so CI uploads them for offline comparison.
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
grep -q '"schema": "repro-bench-throughput-v1"' "$BENCH_DIR/bench-a.json" \
  || { echo "bench output lacks the schema marker" >&2; exit 1; }
required_ops=(sum/ST sum/PW sum/K sum/N sum/CP sum/DD sum/PR sum/DS
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
grep -Eq '"ns_per_elem": [0-9]+(\.[0-9]+)?' "$BENCH_DIR/bench-a.json" \
  || { echo "bench output lacks ns_per_elem readings" >&2; exit 1; }
grep -Eq '"git_rev": "[0-9a-f]{12}|unknown"' "$BENCH_DIR/bench-a.json" \
  || { echo "bench output lacks a git revision" >&2; exit 1; }

echo "== harness determinism (byte-for-byte modulo timing fields) =="
strip_timing() {
  # ns_per_elem is {:.4}-formatted today, but tolerate a bare integer too —
  # an earlier version of this strip missed integer readings and let a
  # "deterministic" diff compare live timings.
  sed -E 's/"ns_per_elem": [0-9]+(\.[0-9]+)?/"ns_per_elem": X/; s/"bytes_per_sec": [0-9]+/"bytes_per_sec": X/' "$1"
}
diff <(strip_timing "$BENCH_DIR/bench-a.json") <(strip_timing "$BENCH_DIR/bench-b.json") \
  || { echo "same-seed bench runs diverged outside the timing fields" >&2; exit 1; }

echo "== baseline comparison (default scale vs committed BENCH_*.json) =="
run bench --out "$BENCH_DIR/bench-default.json"

ops_of() { sed -nE 's|.*"op": "([^"]+)".*|\1|p' "$1"; }
field_of() { sed -nE 's|.*"'"$2"'": ([0-9]+).*|\1|p' "$1" | sort -u; }
ns_of() { # $1 = file, $2 = op — empty when the op is absent
  sed -nE 's|.*"op": "'"$2"'", "n": [0-9]+, "ns_per_elem": ([0-9]+(\.[0-9]+)?).*|\1|p' "$1"
}

baseline=BENCH_22.json
[ -f "$baseline" ] || { echo "committed baseline $baseline is missing" >&2; exit 1; }

grep -q '"schema": "repro-bench-throughput-v1"' "$baseline" \
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
done < <(ops_of "$BENCH_DIR/bench-default.json")

# Delta table: informational only (shared CI cores), but it rides every run.
table="$BENCH_DIR/baseline-delta.md"
{
  echo "### Bench vs committed baselines (ns/elem)"
  echo ""
  echo "| op | BENCH_21 | BENCH_22 | this run | Δ vs 22 |"
  echo "|---|---|---|---|---|"
  while read -r op; do
    b21=$(ns_of BENCH_21.json "$op"); b22=$(ns_of "$baseline" "$op")
    now=$(ns_of "$BENCH_DIR/bench-default.json" "$op")
    delta=$(awk -v a="$b22" -v b="$now" \
      'BEGIN { if (a == "" || b == "") print "n/a"; else printf "%+.1f%%", (b - a) / a * 100 }')
    echo "| $op | ${b21:-–} | ${b22:-–} | ${now:-–} | $delta |"
  done < <(ops_of "$baseline")
} > "$table"
cat "$table"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  cat "$table" >> "$GITHUB_STEP_SUMMARY"
fi

echo "== bench OK =="
