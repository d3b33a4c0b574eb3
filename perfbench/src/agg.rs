//! `agg-ingest` and `agg-ship`: the aggregation engine's write path and
//! its state-shipping path, which trade against each other by operator.

use crate::check::{Checks, Verdict};
use crate::trace::{Total, Tracer};
use crate::{Layers, Workload};
use repro_agg::{
    aggregate_name, batch_values, schedule, AggConfig, AggEngine, Aggregate, LoadEvent, LoadSpec,
    OperatorKind,
};
use repro_sum::Accumulator;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Values per batch in both workloads.
pub const BATCH_LEN: usize = 256;
/// Aggregates `agg-ingest` declares per op.
pub const INGEST_AGGREGATES: usize = 4;
/// Clients per aggregate in `agg-ingest`, one batch each.
pub const INGEST_CLIENTS: usize = 1024;
/// Aggregates on each `agg-ship` node.
pub const SHIP_AGGREGATES: usize = 1024;
/// Clients per aggregate on each `agg-ship` node, one batch each; the
/// nodes' clients are disjoint.
pub const SHIP_CLIENTS: usize = 8;

/// The engine configuration both workloads measure: the default.
fn config() -> AggConfig {
    AggConfig::default()
}

/// Max over mean of the updates each shard receives.
fn skew(updates_per_shard: &[u64]) -> f64 {
    let max = updates_per_shard.iter().copied().max().unwrap_or(0);
    let mean = updates_per_shard.iter().sum::<u64>() as f64 / updates_per_shard.len() as f64;
    max as f64 / mean
}

/// Mean duration of one call of `layer`, in ns; 0 when none was recorded.
fn mean_ns(totals: &BTreeMap<&str, Total>, layer: &str) -> f64 {
    match totals.get(layer) {
        Some(t) if t.count > 0 => t.ns as f64 / t.count as f64,
        _ => 0.0,
    }
}

/// Fill the `agg.*` per-call timings present in `totals`.
fn call_layers(totals: &BTreeMap<&str, Total>, layers: &mut Layers) {
    for (layer, name) in [
        ("agg.serialize", "agg.serialize_ms"),
        ("agg.restore", "agg.restore_ms"),
        ("agg.merge", "agg.merge_ms"),
        ("agg.digest", "agg.digest_ms"),
    ] {
        layers.set(name, mean_ns(totals, layer) / 1e6);
    }
    layers.set("agg.declare_us", mean_ns(totals, "agg.declare") / 1e3);
}

struct IngestState {
    /// Digest of a one-shard engine fed the batches in canonical order.
    reference: u64,
    /// Operator of each aggregate.
    operators: Vec<OperatorKind>,
    /// Shard of each schedule event in the measured engine.
    shards: Vec<usize>,
    shard_skew: f64,
}

/// `agg-ingest`: one seeded, shuffled pass of 4 aggregates × 1,024
/// clients × one 256-value batch into a fresh 4-shard engine per op.
pub struct AggIngest {
    names: Vec<String>,
    events: Vec<LoadEvent>,
    /// Payload of client `c` of aggregate `a` at `a * INGEST_CLIENTS + c`.
    payloads: Vec<Vec<f64>>,
    state: Option<IngestState>,
}

impl AggIngest {
    /// Generate the schedule and every payload from `seed`.
    pub fn new(seed: u64) -> Self {
        let spec = LoadSpec {
            aggregates: INGEST_AGGREGATES,
            clients: INGEST_CLIENTS,
            batches: 1,
            batch_len: BATCH_LEN,
            seed,
            shuffle: !seed,
            workers: 1,
        };
        let payloads = (0..INGEST_AGGREGATES as u32)
            .flat_map(|a| (0..INGEST_CLIENTS as u32).map(move |c| (a, c)))
            .map(|(a, c)| batch_values(seed, a, c, 0, BATCH_LEN))
            .collect();
        AggIngest {
            names: (0..INGEST_AGGREGATES).map(aggregate_name).collect(),
            events: schedule(&spec),
            payloads,
            state: None,
        }
    }

    fn payload(&self, aggregate: usize, client: usize) -> &[f64] {
        &self.payloads[aggregate * INGEST_CLIENTS + client]
    }

    /// The batch an aggregate is declared with: its client 0's, a fixed
    /// function of the inputs and never of arrival order.
    fn sample(&self, aggregate: usize) -> &[f64] {
        self.payload(aggregate, 0)
    }

    fn state(&self) -> &IngestState {
        self.state.as_ref().expect("setup runs before any op")
    }
}

impl Workload for AggIngest {
    fn pass_ops(&self) -> usize {
        1
    }

    fn values_per_op(&self) -> u64 {
        (self.events.len() * BATCH_LEN) as u64
    }

    fn setup(&mut self) {
        let reference = AggEngine::new(AggConfig {
            shards: 1,
            ..config()
        });
        for a in 0..INGEST_AGGREGATES {
            let agg = reference.declare(&self.names[a], self.sample(a));
            for c in 0..INGEST_CLIENTS {
                agg.ingest(c as u64, self.payload(a, c));
            }
        }
        let layout = AggEngine::new(config());
        let aggs: Vec<Arc<Aggregate>> = (0..INGEST_AGGREGATES)
            .map(|a| layout.declare(&self.names[a], self.sample(a)))
            .collect();
        let shards: Vec<usize> = self
            .events
            .iter()
            .map(|e| aggs[e.aggregate as usize].shard_of(e.client as u64))
            .collect();
        let per_agg = config().shards;
        let mut updates = vec![0u64; INGEST_AGGREGATES * per_agg];
        for (e, &s) in self.events.iter().zip(&shards) {
            updates[e.aggregate as usize * per_agg + s] += BATCH_LEN as u64;
        }
        self.state = Some(IngestState {
            reference: reference.digest_bits(),
            operators: aggs.iter().map(|a| a.op()).collect(),
            shards,
            shard_skew: skew(&updates),
        });
        self.op(0, &mut Tracer::off());
    }

    fn op(&mut self, _: usize, tracer: &mut Tracer) -> Checks {
        let engine = tracer.span("agg.new", || AggEngine::new(config()));
        let aggs: Vec<Arc<Aggregate>> = (0..INGEST_AGGREGATES)
            .map(|a| {
                tracer.span("agg.declare", || {
                    engine.declare(&self.names[a], self.sample(a))
                })
            })
            .collect();
        for e in &self.events {
            let agg = &aggs[e.aggregate as usize];
            let batch = self.payload(e.aggregate as usize, e.client as usize);
            tracer.span("agg.ingest", || agg.ingest(e.client as u64, batch));
        }
        let digest = tracer.span("agg.digest", || engine.digest_bits());
        tracer.span("agg.drop", || drop((aggs, engine)));
        let mut checks = Checks::default();
        checks.record(if digest == self.state().reference {
            Verdict::Pass
        } else {
            Verdict::Broken
        });
        checks
    }

    fn probe(&mut self, tracer: &mut Tracer) {
        let st = self.state();
        let per_agg = config().shards;
        let mut states: Vec<_> = st
            .operators
            .iter()
            .flat_map(|op| (0..per_agg).map(move |_| op.new_state()))
            .collect();
        for (e, &s) in self.events.iter().zip(&st.shards) {
            let state = &mut states[e.aggregate as usize * per_agg + s];
            let batch = self.payload(e.aggregate as usize, e.client as usize);
            tracer.span("agg.kernel", || state.add_slice(batch));
        }
        black_box(states.iter().map(|s| s.finalize()).sum::<f64>());
    }

    fn layers(&self, totals: &BTreeMap<&str, Total>, layers: &mut Layers) {
        let per_update = |layer: &str| mean_ns(totals, layer) / BATCH_LEN as f64;
        layers.set("agg.ingest_ns_per_update", per_update("agg.ingest"));
        layers.set("agg.kernel_ns_per_update", per_update("agg.kernel"));
        layers.set("agg.shard_skew", self.state().shard_skew);
        call_layers(totals, layers);
    }

    fn failures(&self) -> Vec<String> {
        Vec::new()
    }
}

struct ShipState {
    nodes: [AggEngine; 2],
    /// Digest of one engine fed both nodes' batches.
    reference: u64,
    /// Mean snapshot length per node in the latest op, bytes.
    state_bytes: f64,
    shard_skew: f64,
}

/// `agg-ship`: two nodes of 1,024 aggregates × 4 shards, filled at set-up
/// from disjoint clients. One op ships both nodes' state to a coordinator
/// and checks its digest.
pub struct AggShip {
    names: Vec<String>,
    /// Payload of local client `c` of aggregate `a` on node `n` at
    /// `(n * SHIP_AGGREGATES + a) * SHIP_CLIENTS + c`.
    payloads: Vec<Vec<f64>>,
    state: Option<ShipState>,
}

impl AggShip {
    /// Generate every payload from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut payloads = Vec::with_capacity(2 * SHIP_AGGREGATES * SHIP_CLIENTS);
        for node in 0..2 {
            for a in 0..SHIP_AGGREGATES {
                for c in 0..SHIP_CLIENTS {
                    let client = Self::client(node, c) as u32;
                    payloads.push(batch_values(seed, a as u32, client, 0, BATCH_LEN));
                }
            }
        }
        AggShip {
            names: (0..SHIP_AGGREGATES).map(aggregate_name).collect(),
            payloads,
            state: None,
        }
    }

    /// Global id of node `node`'s local client `c`.
    fn client(node: usize, c: usize) -> u64 {
        (node * SHIP_CLIENTS + c) as u64
    }

    fn payload(&self, node: usize, aggregate: usize, c: usize) -> &[f64] {
        &self.payloads[(node * SHIP_AGGREGATES + aggregate) * SHIP_CLIENTS + c]
    }

    /// Declare every aggregate on `engine` (each with node 0's client 0
    /// batch, so all engines pick the same operators) and ingest the
    /// batches of `nodes`.
    fn fill(&self, engine: &AggEngine, nodes: &[usize]) -> Vec<Arc<Aggregate>> {
        (0..SHIP_AGGREGATES)
            .map(|a| {
                let agg = engine.declare(&self.names[a], self.payload(0, a, 0));
                for &node in nodes {
                    for c in 0..SHIP_CLIENTS {
                        agg.ingest(Self::client(node, c), self.payload(node, a, c));
                    }
                }
                agg
            })
            .collect()
    }

    fn state(&self) -> &ShipState {
        self.state.as_ref().expect("setup runs before any op")
    }
}

impl Workload for AggShip {
    fn pass_ops(&self) -> usize {
        1
    }

    fn values_per_op(&self) -> u64 {
        (self.payloads.len() * BATCH_LEN) as u64
    }

    fn setup(&mut self) {
        let nodes = [AggEngine::new(config()), AggEngine::new(config())];
        let mut updates = vec![0u64; config().shards];
        for (n, node) in nodes.iter().enumerate() {
            for agg in self.fill(node, &[n]) {
                for c in 0..SHIP_CLIENTS {
                    updates[agg.shard_of(Self::client(n, c))] += BATCH_LEN as u64;
                }
            }
        }
        let reference = AggEngine::new(config());
        self.fill(&reference, &[1, 0]);
        self.state = Some(ShipState {
            nodes,
            reference: reference.digest_bits(),
            state_bytes: 0.0,
            shard_skew: skew(&updates),
        });
        self.op(0, &mut Tracer::off());
    }

    fn op(&mut self, _: usize, tracer: &mut Tracer) -> Checks {
        let st = self.state.as_mut().expect("setup runs before any op");
        let texts = [0, 1].map(|n| tracer.span("agg.serialize", || st.nodes[n].serialize()));
        st.state_bytes = (texts[0].len() + texts[1].len()) as f64 / 2.0;
        let shipped = tracer
            .span("agg.restore", || AggEngine::restore(&texts[0], config()))
            .and_then(|coordinator| {
                tracer.span("agg.merge", || coordinator.merge_serialized(&texts[1]))?;
                Ok(coordinator)
            });
        let verdict = match shipped {
            Ok(coordinator) => {
                let digest = tracer.span("agg.digest", || coordinator.digest_bits());
                tracer.span("agg.drop", || drop((coordinator, texts)));
                if digest == st.reference {
                    Verdict::Pass
                } else {
                    Verdict::Broken
                }
            }
            Err(_) => Verdict::Broken,
        };
        let mut checks = Checks::default();
        checks.record(verdict);
        checks
    }

    fn probe(&mut self, _: &mut Tracer) {}

    fn layers(&self, totals: &BTreeMap<&str, Total>, layers: &mut Layers) {
        let st = self.state();
        call_layers(totals, layers);
        layers.set("agg.state_bytes", st.state_bytes);
        let shards = (SHIP_AGGREGATES * config().shards) as f64;
        layers.set("agg.bytes_per_shard", st.state_bytes / shards);
        layers.set("agg.shard_skew", st.shard_skew);
    }

    fn failures(&self) -> Vec<String> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_is_max_over_mean() {
        assert_eq!(skew(&[4, 4, 4, 4]), 1.0);
        assert_eq!(skew(&[8, 0, 4, 4]), 2.0);
    }

    #[test]
    fn ingest_schedule_covers_every_client_once() {
        let w = AggIngest::new(9);
        assert_eq!(w.values_per_op(), 1 << 20);
        let mut seen = vec![false; INGEST_AGGREGATES * INGEST_CLIENTS];
        for e in &w.events {
            let i = e.aggregate as usize * INGEST_CLIENTS + e.client as usize;
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
