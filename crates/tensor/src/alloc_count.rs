//! Tensor-buffer allocation counting (feature `alloc-count`).
//!
//! The serve hot path's headline number is *allocations per request*, and
//! a number nobody measures regresses silently. With the `alloc-count`
//! feature enabled, every fresh tensor buffer — everything funnelled
//! through the crate-internal `Tensor::from_parts` constructor — bumps a
//! process-wide relaxed atomic counter that benches and tests read via
//! [`tensor_allocs`].
//!
//! What is (deliberately) counted: every constructor that builds a new
//! `Vec<f32>` buffer (`from_vec`, `zeros`, kernel outputs, slices,
//! concats…). What is not: `O(1)` `Arc` clones and `reshape` (they share
//! storage — those *are* the zero-alloc paths the graph executor exploits)
//! and transient scratch such as the GEMM pack buffers, which exist with
//! or without the graph executor and are not tensors. The metric is
//! therefore "tensor materialisations", the thing the compiled-plan arena
//! exists to eliminate.
//!
//! A `#[global_allocator]` hook would count raw mallocs instead, but needs
//! `unsafe` — banned in this crate's library code by the lint-pinned
//! `#![forbid(unsafe_code)]` attribute — and would also count noise the
//! arena cannot address. Counting at the `from_parts` choke point keeps
//! the number attributable. (The raw-malloc question for the GEMM alone
//! is answered by the integration test `tests/gemm_alloc.rs`, whose
//! counting allocator shows a warm one-thread product allocates nothing.)

use std::sync::atomic::{AtomicU64, Ordering};

static TENSOR_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Total tensor-buffer allocations since process start.
///
/// Monotonic; callers diff two readings around a region of interest.
/// Relaxed ordering is sufficient — the count is a statistic, not a
/// synchronisation point.
pub fn tensor_allocs() -> u64 {
    TENSOR_ALLOCS.load(Ordering::Relaxed)
}

/// Records one fresh tensor-buffer allocation (crate-internal hook).
#[inline]
pub(crate) fn record_alloc() {
    TENSOR_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    // Other tests allocate concurrently, so assertions here are
    // monotonic lower bounds, not exact deltas.
    #[test]
    fn fresh_buffers_bump_the_counter() {
        let before = super::tensor_allocs();
        let _t = Tensor::zeros(&[4, 4]);
        assert!(super::tensor_allocs() > before, "zeros must allocate");
    }
}
