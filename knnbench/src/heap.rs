//! The heap a search call needs, counted by a global allocator that
//! forwards to the system allocator.
//!
//! The peak resident set (`VmHWM`) is not a steady measure of the
//! library's memory on the streamed entry. glibc gives the spawned
//! worker thread a heap arena of its own, and how much of it a run
//! touches depends on how many query blocks that worker happened to
//! claim; `VmHWM` moved in 0.5 MiB steps between about 9.5 and 10.6 MiB
//! across runs of `batch-k1024`. The bytes a call holds live do not
//! depend on which thread allocated them.
//!
//! Counting is off except inside [`call_peak`], so the timed calls pay
//! one relaxed load per allocation and nothing else: counting every
//! allocation would put two threads on one contended counter, and the
//! `batch-k32` call makes about half a million allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed, Ordering::SeqCst};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(delta: isize) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    let now = LIVE.fetch_add(delta, Relaxed) + delta;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Run `f` and return its result with the most heap bytes, in MiB,
/// that it held live at once; what `f` returns is still live at its
/// end, so it counts. Worker threads `f` spawns are counted too.
pub fn call_peak<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, SeqCst);
    PEAK.store(0, SeqCst);
    COUNTING.store(true, SeqCst);
    let out = f();
    COUNTING.store(false, SeqCst);
    (out, PEAK.load(SeqCst) as f64 / (1024.0 * 1024.0))
}
