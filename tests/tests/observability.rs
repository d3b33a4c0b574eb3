//! Cross-crate observability guarantees.
//!
//! Two contracts from PR 3 live here because they span crates:
//!
//! 1. **Profile merging is order-free in bits.** `DataProfile::merge`
//!    carries the binned-accumulator residues, so *every* permutation of
//!    chunk partials — and `profile_parallel`, which merges in plan
//!    order — reproduces the serial profile bit for bit.
//! 2. **Seeded chaos traces replay byte-identically.** The CLI's
//!    `trace chaos` event stream is a pure function of the seed, and every
//!    traced run carries a selector decision record.

use proptest::prelude::*;
use repro_core::select::{profile, profile_parallel, DataProfile};

fn hostile(seed: u64, dr: u32) -> Vec<f64> {
    repro_core::gen::zero_sum_with_range(4_000, dr, seed)
}

/// All permutations of `0..n` via Heap's algorithm.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, idx: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(idx.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, idx, out);
            if k % 2 == 0 {
                idx.swap(i, k - 1);
            } else {
                idx.swap(0, k - 1);
            }
        }
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    heap(n, &mut idx, &mut out);
    out
}

fn assert_bitwise_eq(got: &DataProfile, want: &DataProfile, context: &str) {
    assert_eq!(got.n, want.n, "{context}: n");
    assert_eq!(got.min_exp, want.min_exp, "{context}: min_exp");
    assert_eq!(got.max_exp, want.max_exp, "{context}: max_exp");
    assert_eq!(got.dr_binades, want.dr_binades, "{context}: dr_binades");
    assert_eq!(
        got.max_abs.to_bits(),
        want.max_abs.to_bits(),
        "{context}: max_abs"
    );
    assert_eq!(
        got.abs_sum.to_bits(),
        want.abs_sum.to_bits(),
        "{context}: abs_sum {:e} vs {:e}",
        got.abs_sum,
        want.abs_sum
    );
    assert_eq!(
        got.sum_estimate.to_bits(),
        want.sum_estimate.to_bits(),
        "{context}: sum_estimate {:e} vs {:e}",
        got.sum_estimate,
        want.sum_estimate
    );
    assert_eq!(got.k.to_bits(), want.k.to_bits(), "{context}: k");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every one of the 120 permutations of five chunk partials merges to
    /// the exact bits of the serial whole-dataset profile, and so does the
    /// runtime-pool parallel profiler.
    #[test]
    fn every_merge_permutation_matches_serial_profile_bitwise(
        seed in 0u64..200,
        dr in 1u32..28,
    ) {
        let values = hostile(seed, dr);
        let serial = profile(&values);

        const CHUNKS: usize = 5;
        let per = values.len().div_ceil(CHUNKS);
        let partials: Vec<DataProfile> =
            values.chunks(per).map(profile).collect();
        prop_assert_eq!(partials.len(), CHUNKS);

        for perm in permutations(CHUNKS) {
            // Left-fold merge in permuted order ...
            let mut linear = DataProfile::empty();
            for &i in &perm {
                linear.merge(&partials[i]);
            }
            assert_bitwise_eq(&linear, &serial, &format!("linear {perm:?}"));

            // ... and a balanced merge tree over the same order.
            let mut level: Vec<DataProfile> =
                perm.iter().map(|&i| partials[i].clone()).collect();
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|pair| {
                        let mut m = pair[0].clone();
                        if let Some(r) = pair.get(1) {
                            m.merge(r);
                        }
                        m
                    })
                    .collect();
            }
            assert_bitwise_eq(&level[0], &serial, &format!("tree {perm:?}"));
        }

        let parallel = profile_parallel(&values);
        assert_bitwise_eq(&parallel, &serial, "profile_parallel");
    }
}

mod traced_chaos {
    use repro_cli::{run, CliError};

    fn no_fs(_: &str) -> Result<String, CliError> {
        Err(CliError::new("no filesystem in tests"))
    }

    fn run_cmd(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, &no_fs).expect("trace command")
    }

    /// Regression for the PR 3 acceptance gate: two traced chaos runs with
    /// the same seed produce byte-identical output — events *and* summary —
    /// and the schema validator accepts the stream.
    #[test]
    fn seeded_chaos_trace_replays_byte_identically() {
        let args = [
            "trace", "chaos", "--ranks", "5", "--n", "640", "--seed", "20150923", "--drop", "0.25",
            "--dup", "0.15", "--kill", "2",
        ];
        let first = run_cmd(&args);
        let second = run_cmd(&args);
        assert_eq!(first, second);

        let summary = repro_core::obs::validate_trace(&first).expect("valid trace");
        assert!(summary.events > 0);
        assert!(
            summary.subsystems.iter().any(|s| s == "select"),
            "{summary:?}"
        );
        assert!(first.contains("OK (bitwise)"), "{first}");
    }

    /// Every traced run — reduce or chaos — carries at least one selector
    /// decision record.
    #[test]
    fn traced_runs_always_carry_a_decision_record() {
        for args in [
            vec![
                "trace", "chaos", "--ranks", "3", "--n", "128", "--seed", "4",
            ],
            vec!["trace", "reduce", "--n", "256", "--dr", "8", "--seed", "4"],
        ] {
            let out = run_cmd(&args);
            let decisions = out
                .lines()
                .filter(|l| l.contains("\"sub\":\"select\"") && l.contains("\"kind\":\"decision\""))
                .count();
            assert_eq!(decisions, 1, "args {args:?}:\n{out}");
        }
    }
}
