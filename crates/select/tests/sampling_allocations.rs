//! Sampled profiling allocates a fixed number of times, whatever the input
//! size: the halves' estimates are derived once per `collect`, not once
//! per sampled value.
//!
//! One test in its own binary, because the counting allocator replaces
//! the global allocator of the whole binary. It counts allocation calls,
//! not time, so the result is deterministic.

use repro_select::{SampleConfig, SampledProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// The system allocator, counting each thread's allocation calls.
struct CountingAlloc;

thread_local! {
    // `const` initialization and no destructor: counting never allocates
    // and works at any point in a thread's life.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// plain statistic and never touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls the current thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn collect_allocates_the_same_for_every_input_size() {
    // The counter sees allocations: one box is one.
    assert_eq!(allocations_during(|| drop(black_box(Box::new(1u64)))), 1);
    // The sample folds through the SIMD-dispatched kernels, whose tier is
    // resolved once per process on first use, reading (and so allocating)
    // `REPRO_SIMD` when it is set. Resolve it before counting.
    repro_fp::simd::active_tier();
    let cfg = SampleConfig::default();
    // 256 values are sampled exhaustively; 4,096 and 10⁶ stride down to
    // ~2,048 sampled values.
    let counts: Vec<(usize, usize)> = [256usize, 4_096, 1_000_000]
        .into_iter()
        .map(|n| {
            let values = repro_gen::uniform(n, -1.0, 1.0, n as u64);
            let allocations = allocations_during(|| {
                black_box(SampledProfile::collect(black_box(&values), &cfg));
            });
            (n, allocations)
        })
        .collect();
    assert!(
        counts.iter().all(|&(_, c)| c == counts[0].1),
        "allocations per collect must not grow with the input: {counts:?}"
    );
}
