//! Property tests for the sharded aggregation engine (`repro-agg`),
//! driven through the `repro-core` facade:
//!
//! 1. Any sharding, arrival permutation, and merge-tree shape finalizes
//!    to the exact bits of a serial single-shard run of the engine's
//!    shard operator, the exact superaccumulator.
//! 2. The `repro-agg-state-v2` wire format round-trips shard states
//!    bit-exactly, including subnormals, signed zeros, and non-finites,
//!    and merging a shipped snapshot into a differently-sharded peer
//!    changes nothing about the finalized bits.
//! 3. The v2 codec survives mutation: over a real multi-aggregate
//!    snapshot, no truncation or byte substitution panics, every
//!    truncation is rejected, anything that parses re-serializes
//!    byte-identically, and v1 documents and `sa1;` checkpoints are
//!    rejected.

use proptest::prelude::*;
use repro_core::agg::state::{render_aggregate, render_snapshot};
use repro_core::agg::{parse_snapshot, AggConfig, AggEngine, OperatorKind, ParsedAggregate};
use repro_core::fp::rng::DetRng;
use repro_core::fp::Superaccumulator;
use repro_core::sum::lanes::merge_in_lane_order;

/// The edge of the f64 lattice: signed zeros, subnormals (including the
/// smallest), huge magnitudes that overflow when summed, and infinities.
fn specials() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1), // smallest subnormal
        -f64::from_bits(1),
        1e308,
        -1e308,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -1e16f64..1e16f64,
        2 => (0usize..specials().len()).prop_map(|i| specials()[i]),
        // Exact powers of two across most of the binade range.
        2 => (-900i32..=900).prop_map(|e| f64::from_bits(((1023 + e) as u64) << 52)),
    ]
}

/// Serial reference: one state, original order.
fn serial_bits(values: &[f64]) -> u64 {
    let mut state = OperatorKind::Exact.new_state();
    state.add_slice(values);
    state.to_f64().to_bits()
}

/// Shard `values` by round-robin, deposit each shard's share in a
/// shuffled arrival order, then collapse with a seeded *random* merge
/// tree (repeatedly merge two random states until one remains).
fn sharded_bits(values: &[f64], shards: usize, seed: u64) -> u64 {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut per_shard: Vec<Vec<f64>> = vec![Vec::new(); shards];
    for (i, &v) in values.iter().enumerate() {
        per_shard[i % shards].push(v);
    }
    let mut states: Vec<Superaccumulator> = per_shard
        .into_iter()
        .map(|mut share| {
            rng.shuffle(&mut share);
            let mut state = OperatorKind::Exact.new_state();
            for v in share {
                state.add(v);
            }
            state
        })
        .collect();
    while states.len() > 1 {
        let a = rng.random_range(0..states.len());
        let donor = states.swap_remove(a);
        let b = rng.random_range(0..states.len());
        states[b].merge(&donor);
    }
    states.pop().unwrap().to_f64().to_bits()
}

/// Re-render parsed aggregates, in their parsed order.
fn render(parsed: &[ParsedAggregate]) -> String {
    let docs: Vec<String> = parsed
        .iter()
        .map(|p| render_aggregate(&p.name, p.updates, p.batches, &p.shards))
        .collect();
    render_snapshot(&docs)
}

/// A real multi-aggregate snapshot: three 3-shard aggregates, two with
/// negative totals and one holding an infinity.
fn real_snapshot() -> String {
    let engine = AggEngine::new(AggConfig { shards: 3 });
    let mut rng = DetRng::seed_from_u64(2015);
    for (a, name) in ["alpha", "beta.2", "g:m-a"].iter().enumerate() {
        let agg = engine.declare(name, &[]);
        for client in 0..5u64 {
            let batch: Vec<f64> = (0..16)
                .map(|_| {
                    let e = rng.random_range(-30i32..=30);
                    (rng.next_f64() - 0.5 - a as f64) * f64::from_bits(((1023 + e) as u64) << 52)
                })
                .collect();
            agg.ingest(client, &batch);
        }
    }
    engine.get("g:m-a").unwrap().ingest(7, &[f64::INFINITY]);
    engine.serialize()
}

#[test]
fn v2_codec_survives_truncation_and_byte_substitution() {
    let good = real_snapshot();
    let parsed = parse_snapshot(&good).expect("real snapshot parses");
    assert_eq!(parsed.len(), 3);
    assert_eq!(
        render(&parsed),
        good,
        "valid snapshot re-serializes byte-identically"
    );

    // Every proper prefix is rejected, including the one that drops only
    // the final newline.
    for cut in 0..good.len() {
        assert!(
            parse_snapshot(&good[..cut]).is_err(),
            "accepted a {cut}-byte prefix"
        );
    }

    // Every single-byte substitution from an alphabet of structural,
    // digit and junk bytes, at every position: none panics, and whatever
    // still parses is a canonical document that re-serializes to exactly
    // its own bytes.
    let alphabet = b"0123456789abcdefABCDEF;=,-+ .:_\n\rsaxz";
    let mut accepted = 0;
    for at in 0..good.len() {
        for &byte in alphabet {
            let mut mutated = good.clone().into_bytes();
            mutated[at] = byte;
            let text = String::from_utf8(mutated).expect("ASCII stays UTF-8");
            if let Ok(parsed) = parse_snapshot(&text) {
                accepted += 1;
                assert_eq!(render(&parsed), text);
            }
        }
    }
    // Counter digits and interior checkpoint digits do mutate validly.
    assert!(accepted > 0);

    // v1 documents and sa1 checkpoints are rejected.
    let v1 = good.replace("-v2 ", "-v1 ");
    assert!(parse_snapshot(&v1).is_err());
    let sa1 = good.replacen(";sa2;", ";sa1;", 1);
    assert!(parse_snapshot(&sa1).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole invariant: shard count x arrival permutation x merge-tree
    /// shape never changes a finalized bit.
    #[test]
    fn any_sharding_permutation_and_tree_matches_serial_bitwise(
        values in prop::collection::vec(value_strategy(), 1..260),
        shards in 1usize..17,
        seed in 0u64..10_000,
    ) {
        let serial = serial_bits(&values);
        let sharded = sharded_bits(&values, shards, seed);
        prop_assert_eq!(sharded, serial, "shards={} seed={}", shards, seed);
        // The engine's own stride-doubling merge agrees too.
        let states: Vec<Superaccumulator> = values
            .chunks(values.len().div_ceil(shards))
            .map(|chunk| {
                let mut s = OperatorKind::Exact.new_state();
                s.add_slice(chunk);
                s
            })
            .collect();
        let tree = merge_in_lane_order(states).unwrap().to_f64().to_bits();
        prop_assert_eq!(tree, serial, "merge_in_lane_order");
    }

    /// Checkpoint text round-trips every shard state bit-exactly, and a
    /// restored state keeps accumulating as if never serialized.
    #[test]
    fn shard_state_checkpoint_roundtrip_is_bitwise_transparent(
        head in prop::collection::vec(value_strategy(), 1..120),
        tail in prop::collection::vec(value_strategy(), 0..120),
    ) {
        let mut whole = OperatorKind::Exact.new_state();
        whole.add_slice(&head);
        let text = whole.checkpoint();
        let mut restored = Superaccumulator::restore(&text)
            .unwrap_or_else(|| panic!("own checkpoint restores: {text}"));
        prop_assert_eq!(restored.to_f64().to_bits(), whole.to_f64().to_bits());
        prop_assert_eq!(restored.checkpoint(), text);
        whole.add_slice(&tail);
        restored.add_slice(&tail);
        prop_assert_eq!(
            restored.to_f64().to_bits(),
            whole.to_f64().to_bits(),
            "resume after restore"
        );
    }

    /// Engine wire format: serialize -> restore preserves every
    /// aggregate's bits, and merging the shipped snapshot into an empty
    /// peer with a *different* shard count reproduces them too.
    #[test]
    fn engine_snapshot_roundtrips_and_merges_across_shard_counts(
        values in prop::collection::vec(value_strategy(), 1..200),
        shards in 1usize..9,
        peer_shards in 1usize..9,
        clients in 1u64..40,
    ) {
        let engine = AggEngine::new(AggConfig { shards });
        let agg = engine.declare("p", &values);
        for (i, chunk) in values.chunks(16).enumerate() {
            agg.ingest(i as u64 % clients, chunk);
        }
        let want = agg.finalize().to_bits();
        let shipped = engine.serialize();

        let restored = AggEngine::restore(&shipped, AggConfig::default()).unwrap();
        prop_assert_eq!(restored.get("p").unwrap().finalize().to_bits(), want);
        prop_assert_eq!(restored.serialize(), shipped, "serialize is stable");

        let peer = AggEngine::new(AggConfig { shards: peer_shards });
        peer.merge_serialized(&shipped).unwrap();
        prop_assert_eq!(
            peer.get("p").unwrap().finalize().to_bits(),
            want,
            "merge into {peer_shards}-shard peer"
        );
    }
}
