//! A counting global allocator: live bytes, their high-water mark, and the
//! running total of bytes ever allocated. It wraps the system allocator and
//! changes nothing about where memory comes from.
//!
//! `peak_heap_mb` reads the high-water mark; the per-layer `*.alloc_mb`
//! metrics read the growth of the running total across a span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The wrapper installed as `#[global_allocator]` by this crate.
pub struct Counting;

// Statistics only: no other data is published through these counters, so
// every access is `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    TOTAL.fetch_add(bytes, Ordering::Relaxed);
}

fn shrank(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, which
        // always allocates through `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this
        // allocator and the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                grew(new - old);
            } else {
                shrank(old - new);
            }
        }
        p
    }
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Highest [`live_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the current live bytes.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Bytes ever allocated (growth by `realloc` included); only increases.
pub fn total_bytes() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    // Other tests allocate concurrently, so each assertion is a lower bound
    // on what this test itself did.
    #[test]
    fn counts_an_allocation_and_its_peak() {
        const N: usize = 8 << 20;
        let total0 = total_bytes();
        let v: Vec<u8> = black_box(vec![1u8; N]);
        assert!(total_bytes() - total0 >= N as u64);
        assert!(live_bytes() >= N as u64);
        assert!(peak_bytes() >= N as u64);
        drop(v);
    }

    #[test]
    fn realloc_growth_counts_toward_total() {
        let total0 = total_bytes();
        let mut v: Vec<u8> = Vec::with_capacity(1024);
        v.resize(4 << 20, 7);
        black_box(&v);
        assert!(total_bytes() - total0 >= 4 << 20);
    }
}
