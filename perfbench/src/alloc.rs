//! Allocation counting: the binary's global allocator, which forwards to
//! the system allocator and counts every allocation the process makes,
//! the program's and the benchmark's, except on a thread while it runs
//! inside `uncounted`.
//!
//! How much a query allocates is the data plane's copy volume; unlike
//! its time, it does not move with the load on a shared host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter stripes, so that threads allocating at once rarely share a
/// cache line.
const STRIPES: usize = 16;

#[repr(align(64))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

static STRIPE: [Stripe; STRIPES] = [const {
    Stripe {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without destructors, so the allocator can
    // read them at any point of a thread's life without allocating.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    static COUNTING: Cell<bool> = const { Cell::new(true) };
}

fn count(bytes: usize) {
    if !COUNTING.with(Cell::get) {
        return;
    }
    let i = MY_STRIPE.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
        }
        s.get()
    });
    STRIPE[i].allocs.fetch_add(1, Ordering::Relaxed);
    STRIPE[i].bytes.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only atomics and const-initialised thread-locals.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (a `realloc` counts as one) and bytes requested so far.
pub fn totals() -> (u64, u64) {
    STRIPE.iter().fold((0, 0), |(n, b), s| {
        (
            n + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Runs `f` with this thread's allocations left out of `totals`.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = COUNTING.with(|c| c.replace(false));
    let out = f();
    COUNTING.with(|c| c.set(was));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_except_uncounted_ones() {
        // Other test threads allocate too, so bound from below only, and
        // check the uncounted block on this thread's own stripe.
        let (n0, b0) = totals();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let (n1, b1) = totals();
        assert!(n1 > n0 && b1 - b0 >= 1 << 20);
        let mine = MY_STRIPE.with(Cell::get);
        let before = STRIPE[mine].bytes.load(Ordering::Relaxed);
        let w: Vec<u8> = uncounted(|| Vec::with_capacity(1 << 22));
        let after = STRIPE[mine].bytes.load(Ordering::Relaxed);
        assert!(after - before < 1 << 22, "{} bytes counted", after - before);
        drop((v, w));
    }
}
