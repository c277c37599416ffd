//! Bumping a resolved handle allocates nothing, checked with a counting
//! global allocator that counts the calling thread's allocations only (the
//! test harness's own threads allocate while a test runs). Run with
//! `--release --nocapture` to see what a bump costs (ROADMAP item 2 sets a
//! 5 ns target for it).

use obs::Obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BUMPS: u64 = 1_000_000;

#[test]
fn handle_bumps_allocate_nothing() {
    let obs = Obs::enabled();
    let (c, h) = (obs.counter("hot"), obs.histogram("hot_lat"));
    let before = allocs();
    let start = Instant::now();
    for _ in 0..BUMPS {
        black_box(&c).incr();
    }
    let counter_ns = start.elapsed().as_nanos() as f64 / BUMPS as f64;
    let start = Instant::now();
    for i in 0..BUMPS {
        black_box(&h).observe(i);
    }
    let histogram_ns = start.elapsed().as_nanos() as f64 / BUMPS as f64;
    assert_eq!(allocs() - before, 0, "handle bumps allocated");
    assert_eq!(obs.registry().unwrap().counter_value("hot"), BUMPS);
    eprintln!("counter bump {counter_ns:.2} ns, histogram observe {histogram_ns:.2} ns");
}
