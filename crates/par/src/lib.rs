//! Host-width queries for the commspec workspace.
//!
//! The analysis stages — the inter-rank merge and Algorithms 1 and 2 —
//! run sequentially on the caller's thread (DESIGN.md §12 gives the
//! measurements). What remains here is the width interface the external
//! benchmark harness calls: the host's core count, and an analysis width
//! that is always 1.

/// Number of hardware threads the OS reports for this process.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Width of the analysis stages: always 1, they run sequentially.
pub fn threads() -> usize {
    1
}

/// Accept a requested width and ignore it; the analysis stages always run
/// at width 1. Returns the previous width, which is always 1.
pub fn set_threads(_n: usize) -> usize {
    1
}
