//! End-to-end and per-layer benchmark of the pipeline
//! app → trace → generator → executed benchmark.
//!
//! Three workloads ([`workloads::WORKLOADS`]), each a closed loop from a
//! single thread. The end-to-end run (`--trace 0`) times whole passes; the
//! traced run (`--trace 1`) records spans around each call into a layer's
//! public API and derives the per-layer metrics from them. Both runs check
//! the generated programs and count every failed step or check. See
//! `METRICS.md` for what each metric means and which layer should move it.

pub mod alloc;
pub mod cpu;
pub mod metrics;
pub mod spans;
pub mod stages;
pub mod stats;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
