#!/usr/bin/env bash
# Aggregation-engine smoke: the sharded engine's headline claim is that
# finalized sums are bitwise invariant, so this gate runs the seeded
# loadgen swarm under different arrival shuffles, shard counts, and a
# kill/restore split, and diffs the byte-comparable output lines (the
# `agg <name> <bits> ...` and `digest <bits>` lines; `#` stats lines
# carry wall-clock and are excluded). Then the provenance loop: a
# finished `agg serve` run must `replay` bitwise-identically from its
# manifest, and the strict repro-agg-state-v2 parser must reject corrupt,
# truncated, v1, and hostile-count snapshots with exit code 2. Artifacts
# land in target/agg/.
set -euo pipefail

cd "$(dirname "$0")/.."

AGG_DIR=target/agg
mkdir -p "$AGG_DIR"

run() { cargo run --release -q -p repro-cli --bin repro-reduce -- "$@"; }
lines() { grep -v '^#' "$1"; } # the byte-comparable half of agg output

echo "== build (release) =="
cargo build --release -p repro-cli

# Small enough to finish in seconds, big enough that a broken merge or a
# racy shard would almost surely scramble some aggregate's low bits.
SPEC=(--aggregates 3 --clients 64 --batches 4 --batch-len 128)

echo "== loadgen: two arrival shuffles, byte-identical aggregates =="
run agg loadgen "${SPEC[@]}" --shuffle 1 > "$AGG_DIR/shuffle-1.txt"
run agg loadgen "${SPEC[@]}" --shuffle 99 --workers 8 > "$AGG_DIR/shuffle-99.txt"
diff <(lines "$AGG_DIR/shuffle-1.txt") <(lines "$AGG_DIR/shuffle-99.txt") \
  || { echo "arrival order changed a finalized sum" >&2; exit 1; }

echo "== loadgen: shard counts 1 and 16 agree with the default 4 =="
run agg loadgen "${SPEC[@]}" --shards 1 > "$AGG_DIR/shards-1.txt"
run agg loadgen "${SPEC[@]}" --shards 16 > "$AGG_DIR/shards-16.txt"
diff <(lines "$AGG_DIR/shards-1.txt") <(lines "$AGG_DIR/shards-16.txt") \
  || { echo "shard count changed a finalized sum" >&2; exit 1; }
diff <(lines "$AGG_DIR/shards-1.txt") <(lines "$AGG_DIR/shuffle-1.txt") \
  || { echo "shard count changed a finalized sum vs default" >&2; exit 1; }

echo "== serve: kill at the midpoint, restore from snapshot, resume =="
# 3 aggregates x 64 clients x 4 batches = 768 events; cut at 384.
run agg serve "${SPEC[@]}" > "$AGG_DIR/uninterrupted.txt"
run agg serve "${SPEC[@]}" --stop-at 384 --snapshot "$AGG_DIR/mid.state" \
  > "$AGG_DIR/first-half.txt"
grep -q '^# partial run' "$AGG_DIR/first-half.txt" \
  || { echo "partial run failed to say so" >&2; exit 1; }
run agg serve "${SPEC[@]}" --restore "$AGG_DIR/mid.state" --start-at 384 \
  --manifest "$AGG_DIR/run.manifest" > "$AGG_DIR/resumed.txt"
diff <(lines "$AGG_DIR/resumed.txt") <(lines "$AGG_DIR/uninterrupted.txt") \
  || { echo "kill/restore changed a finalized sum" >&2; exit 1; }

echo "== snapshot passes the strict parser =="
run agg check --file "$AGG_DIR/mid.state"

echo "== replay: the finished run's manifest verifies bitwise =="
run replay "$AGG_DIR/run.manifest" | tee "$AGG_DIR/replay.txt"
grep -q '^replay OK (bitwise): cmd=agg' "$AGG_DIR/replay.txt" \
  || { echo "agg manifest replay did not verify" >&2; exit 1; }

echo "== corrupt snapshots exit 2 (schema contract) =="
head -n 2 "$AGG_DIR/mid.state" > "$AGG_DIR/truncated.state"
# A real snapshot relabelled v1: the retired format must not load.
sed '1s/repro-agg-snapshot-v2/repro-agg-snapshot-v1/' "$AGG_DIR/mid.state" \
  > "$AGG_DIR/badschema.state"
sed 's/^shard=0;sa2;/shard=0;zz9;/' "$AGG_DIR/mid.state" > "$AGG_DIR/badshard.state"
# Header counts are claims, never allocation sizes.
printf 'repro-agg-snapshot-v2 aggregates=18446744073709551615\n' \
  > "$AGG_DIR/hostile-aggregates.state"
printf 'repro-agg-snapshot-v2 aggregates=1\nrepro-agg-state-v2 name=a shards=4000000000000 updates=0 batches=0\n' \
  > "$AGG_DIR/hostile-shards.state"
for edited in badschema badshard; do
  if cmp -s "$AGG_DIR/mid.state" "$AGG_DIR/$edited.state"; then
    echo "$edited.state: the edit did not apply" >&2; exit 1
  fi
done
for bad in truncated badschema badshard hostile-aggregates hostile-shards; do
  set +e
  run agg check --file "$AGG_DIR/$bad.state" >/dev/null 2>&1
  code=$?
  set -e
  [ "$code" -eq 2 ] \
    || { echo "$bad.state: expected exit 2, got $code" >&2; exit 1; }
done
for bad in truncated hostile-shards; do
  set +e
  run agg serve "${SPEC[@]}" --restore "$AGG_DIR/$bad.state" >/dev/null 2>&1
  code=$?
  set -e
  [ "$code" -eq 2 ] \
    || { echo "serve --restore on $bad.state: expected exit 2, got $code" >&2; exit 1; }
done

echo "== shard sweep benchmark (1/4/16, digest equality enforced) =="
run agg bench "${SPEC[@]}" | tee "$AGG_DIR/bench.txt"

echo "== agg OK =="
