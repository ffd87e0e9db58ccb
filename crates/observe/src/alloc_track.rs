//! Allocation high-water tracking via a wrapping global allocator.
//!
//! Meta-blocking's memory profile is spiky — the blocking graph's edge
//! list dwarfs steady state — so the interesting number is the *peak*
//! bytes live during a stage, not the total allocated. A binary opts in
//! by installing the wrapper around the system allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mb_observe::alloc_track::TrackingAllocator<std::alloc::System> =
//!     mb_observe::alloc_track::TrackingAllocator::new(std::alloc::System);
//! ```
//!
//! [`crate::StageScope`] calls [`rebase_peak`] on stage entry and
//! [`peak_bytes`] on exit; when no tracking allocator is installed both
//! are zero and the `alloc_peak_bytes` counter is simply absent from
//! reports. The atomics use relaxed ordering: counters tolerate benign
//! races (a concurrent alloc slipping over a rebase) — this is telemetry,
//! not accounting.

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this is the one
                       // place in the workspace that implements it.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's tally: allocation events, and bytes allocated minus
    /// bytes freed here (wrapping, so only differences mean anything). Const
    /// cells with no destructor, so the allocator may touch them at any
    /// point of a thread's life without allocating.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_NET: Cell<u64> = const { Cell::new(0) };
}

/// A [`GlobalAlloc`] wrapper that maintains live-byte and peak counters.
pub struct TrackingAllocator<A> {
    inner: A,
}

impl<A> TrackingAllocator<A> {
    /// Wraps `inner` (typically [`std::alloc::System`]).
    pub const fn new(inner: A) -> TrackingAllocator<A> {
        TrackingAllocator { inner }
    }
}

fn on_alloc(bytes: usize) {
    let now = CURRENT.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(now, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_NET.try_with(|c| c.set(c.get().wrapping_add(bytes as u64)));
}

fn on_dealloc(bytes: usize) {
    // Saturating: a dealloc of memory allocated before the tracker saw it
    // (e.g. pre-main) must not wrap the counter.
    let _ = CURRENT.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(bytes as u64)));
    let _ = THREAD_NET.try_with(|c| c.set(c.get().wrapping_sub(bytes as u64)));
}

// SAFETY: every method delegates to the wrapped allocator with the exact
// arguments it received; the counter updates touch no allocator state.
unsafe impl<A: GlobalAlloc> GlobalAlloc for TrackingAllocator<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.inner.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { self.inner.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.inner.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { self.inner.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// Bytes currently live, as seen by the tracker (zero when no
/// [`TrackingAllocator`] is installed).
pub fn current_bytes() -> u64 {
    CURRENT.load(Relaxed)
}

/// The high-water mark since the last [`rebase_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Resets the high-water mark to the current live total, so the next
/// [`peak_bytes`] reading reflects only growth after this point.
pub fn rebase_peak() {
    PEAK.store(CURRENT.load(Relaxed), Relaxed);
}

/// Number of allocation events (alloc, alloc_zeroed, and the alloc half of
/// realloc) since process start. Monotonic; read it before and after a
/// region and subtract to count the region's allocations.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Allocation events on the calling thread since it started — what
/// [`alloc_count`] counts, without other threads' events.
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes the calling thread allocated minus bytes it freed, wrapping: read
/// it before and after a region and `wrapping_sub` to get the bytes the
/// region left live, without other threads' allocations.
pub fn thread_net_bytes() -> u64 {
    THREAD_NET.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    // No #[global_allocator] here — installing one inside a unit test
    // would affect the whole test binary. Instead the bookkeeping is
    // exercised directly; the GlobalAlloc impl is a thin shim over it.

    // One test, not several: the counters are process-global statics. This
    // is the only test in the binary that moves CURRENT or ALLOCS, so their
    // arithmetic is asserted exactly; parallel StageScope tests do call
    // rebase_peak() concurrently, so PEAK is only held to its
    // interleaving-proof invariant, peak ≥ current.
    #[test]
    fn bookkeeping_tracks_peak_rebases_counts_and_saturates() {
        let base_current = current_bytes();
        let base_allocs = alloc_count();
        on_alloc(1000);
        on_alloc(500);
        assert_eq!(current_bytes(), base_current + 1500);
        assert_eq!(alloc_count(), base_allocs + 2);
        assert!(peak_bytes() >= current_bytes());
        on_dealloc(1200);
        assert_eq!(current_bytes(), base_current + 300);
        assert_eq!(alloc_count(), base_allocs + 2); // deallocs never move it
        assert!(peak_bytes() >= current_bytes());
        rebase_peak();
        assert!(peak_bytes() >= current_bytes());
        on_dealloc(300);
        assert_eq!(current_bytes(), base_current);

        // Over-freeing (memory allocated before the tracker was watching)
        // saturates at zero instead of wrapping.
        let live = current_bytes();
        on_dealloc(live as usize + 4096);
        assert_eq!(current_bytes(), 0);
        rebase_peak();

        // The thread tally sees this thread's events only.
        let (allocs, net) = (thread_alloc_count(), thread_net_bytes());
        on_alloc(1000);
        std::thread::spawn(|| {
            on_alloc(64);
            on_dealloc(64);
        })
        .join()
        .unwrap();
        on_dealloc(200);
        assert_eq!(thread_alloc_count() - allocs, 1);
        assert_eq!(thread_net_bytes().wrapping_sub(net), 800);
        on_dealloc(800);
        assert_eq!(thread_net_bytes(), net);
    }
}
