//! `Superaccumulator::to_f64` allocates nothing: it normalizes a stack copy
//! of the register, not a heap clone.
//!
//! One test in its own binary, because the counting allocator replaces
//! the global allocator of the whole binary. It counts allocation calls,
//! not time, so the result is deterministic.

use repro_fp::Superaccumulator;
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
fn to_f64_on_a_negative_register_allocates_nothing() {
    // The counter sees allocations: one box is one.
    assert_eq!(allocations_during(|| drop(black_box(Box::new(1u64)))), 1);
    // A negative total (two's-complement register, so the conversion
    // negates), left unnormalized by the scalar adds.
    let mut acc = Superaccumulator::new();
    for x in [-1e300, 3.5, -2.5e-300, -7.0] {
        acc.add(x);
    }
    let mut sum = 0.0;
    let allocations = allocations_during(|| sum = black_box(&acc).to_f64());
    assert_eq!(sum, -1e300);
    assert_eq!(allocations, 0, "to_f64 allocated");
}
