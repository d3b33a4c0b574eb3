//! `reduce-large` and `reduce-small`: one API, `AdaptiveReducer::
//! reduce_cached` with a shared `DecisionCache`, used the two ways round.
//! On large arrays the operators and the full-profile fallback carry the
//! time; on small ones the per-call selection does.

use crate::check::{self, Checks, Verdict};
use crate::trace::{Total, Tracer};
use crate::{Layers, Workload};
use repro_fp::rng::DetRng;
use repro_select::cache::CacheCounters;
use repro_select::{AdaptiveReducer, DecisionCache, SampleConfig, SampledProfile, Tolerance};
use repro_sum::{Accumulator, Algorithm};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Values per array in `reduce-large`.
pub const LARGE_N: usize = 1 << 19;
/// `(k, dr)` of `reduce-large`'s arrays: well- and ill-conditioned.
pub const LARGE_SHAPES: [(f64, u32); 2] = [(1.0, 0), (1e12, 16)];
/// Budgets every `reduce-large` array is reduced under.
pub const LARGE_BUDGETS: [Tolerance; 2] = [Tolerance::Bitwise, Tolerance::RelativeSpread(1e-12)];

/// Array sizes of `reduce-small`'s classes.
pub const SMALL_SIZES: [usize; 3] = [256, 1024, 4096];
/// `(k, dr)` of `reduce-small`'s classes.
pub const SMALL_SHAPES: [(f64, u32); 4] = [(1.0, 0), (1e4, 8), (1e12, 16), (f64::INFINITY, 16)];
/// Budgets of `reduce-small`'s classes.
pub const SMALL_BUDGETS: [Tolerance; 3] = [
    Tolerance::Bitwise,
    Tolerance::RelativeSpread(1e-8),
    Tolerance::RelativeSpread(1e-14),
];
/// Seeded request groups in `reduce-small`'s pool; one op is one group.
/// The groups share one decision cache, so per seed a few first decisions
/// fix the operators of many requests; 32 groups rather than 8 halve the
/// seed-to-seed spread of the fail ratio (IQR 2.1% to 1.1%, eight seeds).
pub const SMALL_GROUPS: usize = 32;

/// `Σ|x|` that `grid_cell` gives an exact-zero-sum (`k = ∞`) array.
const INF_ABS_SUM: f64 = 1e16;

/// A request class: array size, shape and budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Class {
    /// Values in the array.
    pub n: usize,
    /// Target condition number.
    pub k: f64,
    /// Target dynamic range, decimal decades.
    pub dr: u32,
    /// Reproducibility budget.
    pub budget: Tolerance,
}

impl Class {
    fn label(&self) -> String {
        let budget = match self.budget {
            Tolerance::Bitwise => "bitwise".to_string(),
            Tolerance::RelativeSpread(r) => format!("rel:{r:e}"),
            Tolerance::AbsoluteSpread(t) => format!("abs:{t:e}"),
        };
        format!("n={} k={:e} dr={} budget={budget}", self.n, self.k, self.dr)
    }
}

/// `reduce-small`'s 36 classes, in a fixed order.
pub fn small_classes() -> Vec<Class> {
    let mut classes = Vec::new();
    for n in SMALL_SIZES {
        for (k, dr) in SMALL_SHAPES {
            for budget in SMALL_BUDGETS {
                classes.push(Class { n, k, dr, budget });
            }
        }
    }
    classes
}

/// One request: a class, its group, and the array it reduces.
#[derive(Clone, Copy, Debug)]
struct Request {
    class: Class,
    group: usize,
    dataset: usize,
}

/// State a set-up builds; dropped and rebuilt by the next set-up.
struct State {
    /// One reducer per budget, all sharing `cache`.
    reducers: Vec<(Tolerance, AdaptiveReducer)>,
    cache: DecisionCache,
    /// Correctly rounded sum of each dataset.
    exact: Vec<f64>,
    /// Each request's result bits per order in the first measured pass,
    /// against which later passes are checked. (The warm-up pass may
    /// differ: it fills the cache, and a hit can stand in for a fallback.)
    steady: Vec<Option<[u64; 2]>>,
    /// Each request's result bits per order in the latest pass.
    last: Vec<[u64; 2]>,
    /// Each request's chosen operator per order in the latest pass.
    chosen: Vec<[Algorithm; 2]>,
    /// Cache counters when the warm-up pass ended.
    cache_base: CacheCounters,
}

/// A reduce workload: seeded arrays in two element orders each, requests
/// over them, and the calls each op of a pass makes.
pub struct Reduce {
    /// Each array in its two element orders.
    datasets: Vec<[Vec<f64>; 2]>,
    requests: Vec<Request>,
    /// Per op of a pass: `(request, order)` calls, in call order.
    ops: Vec<Vec<(usize, usize)>>,
    /// Per op: requests whose two orders are both done once it ends.
    checked: Vec<Vec<usize>>,
    state: Option<State>,
}

/// `values` as generated (a seeded shuffle already) and a seeded
/// reordering of it.
fn two_orders(values: Vec<f64>, rng: &mut DetRng) -> [Vec<f64>; 2] {
    let mut other = values.clone();
    rng.shuffle(&mut other);
    [values, other]
}

impl Reduce {
    /// `reduce-large`: a well- and an ill-conditioned 2^19-value array,
    /// each under `Bitwise` and a 1e-12 relative budget. Op `i` reduces
    /// all four requests in element order `i % 2`.
    pub fn large(seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut datasets = Vec::new();
        let mut requests = Vec::new();
        for (k, dr) in LARGE_SHAPES {
            let values = repro_gen::grid_cell(LARGE_N, k, dr, rng.next_u64(), INF_ABS_SUM);
            datasets.push(two_orders(values, &mut rng));
            for budget in LARGE_BUDGETS {
                let class = Class {
                    n: LARGE_N,
                    k,
                    dr,
                    budget,
                };
                requests.push(Request {
                    class,
                    group: 0,
                    dataset: datasets.len() - 1,
                });
            }
        }
        let all: Vec<usize> = (0..requests.len()).collect();
        Reduce {
            ops: (0..2)
                .map(|order| all.iter().map(|&r| (r, order)).collect())
                .collect(),
            checked: vec![Vec::new(), all],
            datasets,
            requests,
            state: None,
        }
    }

    /// `reduce-small`: [`SMALL_GROUPS`] seeded groups of one request per
    /// class. Op `g` reduces every request of group `g` in both orders.
    /// The three budgets of one size and shape share an array.
    pub fn small(seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut datasets: Vec<[Vec<f64>; 2]> = Vec::new();
        let mut requests = Vec::new();
        let mut ops = Vec::new();
        let mut checked = Vec::new();
        for group in 0..SMALL_GROUPS {
            let first = requests.len();
            let mut arrays: BTreeMap<(usize, u64, u32), usize> = BTreeMap::new();
            for class in small_classes() {
                let key = (class.n, class.k.to_bits(), class.dr);
                let dataset = *arrays.entry(key).or_insert_with(|| {
                    let values = repro_gen::grid_cell(
                        class.n,
                        class.k,
                        class.dr,
                        rng.next_u64(),
                        INF_ABS_SUM,
                    );
                    datasets.push(two_orders(values, &mut rng));
                    datasets.len() - 1
                });
                requests.push(Request {
                    class,
                    group,
                    dataset,
                });
            }
            let group_requests: Vec<usize> = (first..requests.len()).collect();
            ops.push(
                group_requests
                    .iter()
                    .flat_map(|&r| [(r, 0), (r, 1)])
                    .collect(),
            );
            checked.push(group_requests);
        }
        Reduce {
            datasets,
            requests,
            ops,
            checked,
            state: None,
        }
    }

    fn state(&self) -> &State {
        self.state.as_ref().expect("setup runs before any op")
    }

    fn values(&self, request: usize, order: usize) -> &[f64] {
        &self.datasets[self.requests[request].dataset][order]
    }

    /// Make op `i`'s calls, recording each result and choice.
    fn call(&mut self, i: usize, tracer: &mut Tracer) {
        let st = self.state.as_mut().expect("setup runs before any op");
        for &(r, order) in &self.ops[i] {
            let req = &self.requests[r];
            let values = &self.datasets[req.dataset][order];
            let reducer = &st
                .reducers
                .iter()
                .find(|(b, _)| *b == req.class.budget)
                .expect("a reducer per budget")
                .1;
            let out = tracer.span("select.reduce_cached", || {
                reducer.reduce_cached(values, &st.cache)
            });
            st.last[r][order] = out.sum.to_bits();
            st.chosen[r][order] = out.algorithm;
        }
    }

    /// Verdict on request `r` from the latest pass.
    fn verdict(&self, r: usize) -> Verdict {
        let st = self.state();
        if st.steady[r].is_some_and(|bits| bits != st.last[r]) {
            return Verdict::Broken;
        }
        let [a, b] = st.last[r].map(f64::from_bits);
        let req = &self.requests[r];
        check::reproducible(req.class.budget, a, b, st.exact[req.dataset])
    }

    /// Every call of a pass, in order.
    fn calls(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ops.iter().flatten().copied()
    }
}

impl Workload for Reduce {
    fn pass_ops(&self) -> usize {
        self.ops.len()
    }

    fn values_per_op(&self) -> u64 {
        let pass: usize = self.calls().map(|(r, o)| self.values(r, o).len()).sum();
        (pass / self.ops.len()) as u64
    }

    fn setup(&mut self) {
        let mut budgets: Vec<Tolerance> = Vec::new();
        for r in &self.requests {
            if !budgets.contains(&r.class.budget) {
                budgets.push(r.class.budget);
            }
        }
        let n = self.requests.len();
        self.state = Some(State {
            reducers: budgets
                .into_iter()
                .map(|b| (b, AdaptiveReducer::heuristic(b)))
                .collect(),
            cache: DecisionCache::new(),
            exact: self
                .datasets
                .iter()
                .map(|d| repro_fp::exact_sum(&d[0]))
                .collect(),
            steady: vec![None; n],
            last: vec![[0; 2]; n],
            chosen: vec![[Algorithm::Standard; 2]; n],
            cache_base: CacheCounters::default(),
        });
        for i in 0..self.ops.len() {
            self.call(i, &mut Tracer::off());
        }
        let st = self.state.as_mut().expect("just built");
        st.cache_base = st.cache.counters();
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> Checks {
        self.call(i, tracer);
        let mut checks = Checks::default();
        for &r in &self.checked[i] {
            checks.record(self.verdict(r));
            let st = self.state.as_mut().expect("set up");
            st.steady[r].get_or_insert(st.last[r]);
        }
        checks
    }

    fn probe(&mut self, tracer: &mut Tracer) {
        let st = self.state();
        for (r, order) in self.calls() {
            let alg = st.chosen[r][order];
            let values = self.values(r, order);
            tracer.span("sum.probe", || {
                let mut acc = alg.new_accumulator();
                acc.add_slice(black_box(values));
                black_box(acc.finalize())
            });
        }
    }

    fn layers(&self, totals: &BTreeMap<&str, Total>, layers: &mut Layers) {
        let st = self.state();
        let get = |layer: &str| totals.get(layer).copied().unwrap_or_default();
        let (ops, reduce, probe) = (get("op"), get("select.reduce_cached"), get("sum.probe"));
        // Each traced pass is followed by one probe pass over the same
        // calls, so the two totals cover equal work.
        let select_ns = reduce.ns as f64 - probe.ns as f64;
        layers.set("select.ms_per_op", select_ns / ops.count as f64 / 1e6);
        layers.set("select.share", select_ns / ops.ns as f64);

        let pass_values: usize = self.calls().map(|(r, o)| self.values(r, o).len()).sum();
        let probe_values = (pass_values as u64 * get("probe").count) as f64;
        layers.set("sum.ns_per_value", probe.ns as f64 / probe_values);
        layers.set(
            "sum.gbytes_per_s_computed",
            8.0 * probe_values / probe.ns as f64,
        );

        let cfg = SampleConfig::default();
        let calls = self.calls().count() as f64;
        let fallbacks = self
            .calls()
            .filter(|&(r, o)| !SampledProfile::collect(self.values(r, o), &cfg).bounds_tight(&cfg))
            .count();
        layers.set("select.fallback_ratio", fallbacks as f64 / calls);

        let now = st.cache.counters();
        let (hits, misses) = (
            now.hits - st.cache_base.hits,
            now.misses - st.cache_base.misses,
        );
        if hits + misses > 0 {
            layers.set(
                "select.cache_hit_ratio",
                hits as f64 / (hits + misses) as f64,
            );
        }

        let mut chosen: BTreeMap<&str, usize> = BTreeMap::new();
        for (r, order) in self.calls() {
            *chosen.entry(st.chosen[r][order].abbrev()).or_default() += 1;
        }
        for (alg, calls) in chosen {
            let per_op = calls as f64 / self.ops.len() as f64;
            layers.set(&format!("select.chosen.{alg}"), per_op);
        }
    }

    fn failures(&self) -> Vec<String> {
        let st = self.state();
        (0..self.requests.len())
            .filter(|&r| self.verdict(r) != Verdict::Pass)
            .map(|r| {
                let req = &self.requests[r];
                let [a, b] = st.last[r].map(f64::from_bits);
                let [alg_a, alg_b] = st.chosen[r].map(|a| a.abbrev());
                format!(
                    "group={} {} chosen={alg_a}/{alg_b} sums={a:e}/{b:e} |diff|={:e} exact={:e}",
                    req.group,
                    req.class.label(),
                    (a - b).abs(),
                    st.exact[req.dataset]
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_small_op_holds_one_request_per_class_in_both_orders() {
        let w = Reduce::small(3);
        let classes = small_classes();
        assert_eq!(classes.len(), 36);
        assert_eq!(w.pass_ops(), SMALL_GROUPS);
        for (g, calls) in w.ops.iter().enumerate() {
            let mut seen = vec![0; classes.len()];
            for &r in &w.checked[g] {
                let req = w.requests[r];
                assert_eq!(req.group, g);
                let c = classes.iter().position(|c| *c == req.class).unwrap();
                seen[c] += 1;
                let orders: Vec<usize> =
                    calls.iter().filter(|(q, _)| *q == r).map(|c| c.1).collect();
                assert_eq!(orders, [0, 1]);
            }
            assert!(seen.iter().all(|&s| s == 1), "group {g}: {seen:?}");
            assert_eq!(calls.len(), 2 * classes.len());
        }
    }

    fn sorted(values: &[f64]) -> Vec<f64> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn orders_are_seeded_permutations_of_one_array() {
        let (a, b, c) = (Reduce::small(5), Reduce::small(5), Reduce::small(6));
        assert_eq!(a.datasets, b.datasets);
        assert_ne!(a.datasets, c.datasets);
        for r in 0..a.requests.len() {
            let (x, y) = (a.values(r, 0), a.values(r, 1));
            assert_eq!(x.len(), a.requests[r].class.n);
            assert_ne!(x, y);
            assert_eq!(sorted(x), sorted(y));
        }
    }

    #[test]
    fn large_ops_alternate_orders_and_check_after_the_pass() {
        let w = Reduce::large(1);
        assert_eq!(w.pass_ops(), 2);
        assert_eq!(w.values_per_op(), 4 * LARGE_N as u64);
        assert!(w.ops[0].iter().all(|c| c.1 == 0));
        assert!(w.ops[1].iter().all(|c| c.1 == 1));
        assert!(w.checked[0].is_empty());
        assert_eq!(w.checked[1].len(), 4);
        for r in 0..4 {
            assert_eq!(sorted(w.values(r, 0)), sorted(w.values(r, 1)));
        }
    }
}
