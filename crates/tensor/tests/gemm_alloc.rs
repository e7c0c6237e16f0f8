//! A warm one-thread GEMM makes zero heap allocations.
//!
//! The pack buffers are thread-local and reused, so once the calling
//! thread has run a shape, repeating it touches the allocator zero times.
//! This binary installs a counting `#[global_allocator]` that counts the
//! allocations of the thread under test only (other test threads of the
//! harness may allocate freely), and checks VITAL's served shapes: the
//! paper-config patch embedding, one attention head's `Q·Kᵀ` and the
//! classification head of a single observation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tensor::{gemm_ex_into, MatmulSpec};

thread_local! {
    /// Allocations made by this thread. `const`-initialised and free of
    /// destructors, so reading it from inside the allocator never
    /// allocates.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which neither allocates
// nor touches the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's pointer/layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer/layout contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[test]
fn warm_one_thread_gemm_makes_zero_heap_allocations() {
    // The counter sees this thread's allocations (or the zero below
    // would prove nothing).
    let before = thread_allocs();
    std::hint::black_box(vec![1u8; 64]);
    assert!(thread_allocs() > before, "counting allocator is installed");

    let shapes = [
        ("patch_embed", 100, 1200, 80, MatmulSpec::NN),
        ("scores", 100, 16, 100, MatmulSpec::NT),
        ("head1", 1, 144, 128, MatmulSpec::NN),
    ];
    for (name, m, k, n, spec) in shapes {
        let a: Vec<f32> = (0..m * k).map(|i| ((i % 13) as f32) * 0.25 - 1.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i % 7) as f32) * 0.5 - 1.5).collect();
        let mut out = vec![0.0f32; m * n];
        parallel::with_threads(1, || {
            // Warm-up: grows this thread's pack buffers to the shape and
            // latches the dispatch level.
            gemm_ex_into(m, k, n, &a, &b, spec, &mut out);
            let before = thread_allocs();
            for _ in 0..3 {
                gemm_ex_into(m, k, n, &a, &b, spec, &mut out);
            }
            let allocs = thread_allocs() - before;
            assert_eq!(
                allocs, 0,
                "{name} {m}x{k}x{n} {spec:?}: {allocs} allocations"
            );
        });
        assert!(out.iter().all(|v| v.is_finite()), "{name} produced output");
    }
}
