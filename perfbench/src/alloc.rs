//! Counting global allocator: live heap bytes and their high-water mark,
//! the benchmark's `peak_heap_mib`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and accounts for every live byte.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// Set while [`uncounted`] runs on this thread: its allocations are
    /// not the program's.
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn paused() -> bool {
    PAUSED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call is delegated verbatim to `System`; the atomics only
// account for sizes and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && !paused() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc` above, i.e. by `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if !paused() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
    }
}

/// Runs `f` with this thread's accounting off. Memory allocated inside
/// must be freed inside a later `uncounted` call, and the reverse, or the
/// live count drifts; the reference clock's kernel is the one user.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    PAUSED.with(|p| p.set(true));
    let r = f();
    PAUSED.with(|p| p.set(false));
    r
}

/// Starts a new high-water window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap size since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
