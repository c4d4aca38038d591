//! Heap footprint of the full-SoC netlist (580 654 instances), counted by
//! a global allocator that wraps `System` and tallies `alloc`/`realloc`
//! calls and live bytes.
//!
//! With per-instance `String` names, cell names and pin names, and one
//! `String` per pin reference in the connectivity index, the same counts
//! read:
//! - `build_soc`: 13.05 allocations and 434 live bytes per instance;
//! - `Design::connectivity`: 3 063 140 allocations and 329 live bytes per
//!   instance.
//!
//! The levels (`Design::levels`) are kept in the design beside the
//! connectivity: an instance order and a slot per net, about 8 bytes per
//! instance.
//!
//! The file holds a single test, so no other test thread allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use cryo_soc::netlist::{build_soc, SocConfig};

struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(new_size, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocation calls, live bytes)` so far.
fn count() -> (usize, usize) {
    (CALLS.load(Relaxed), LIVE.load(Relaxed))
}

#[test]
fn full_soc_netlist_is_compact() {
    let (calls0, live0) = count();
    let design = build_soc(&SocConfig::default());
    let (calls1, live1) = count();
    let _ = design.connectivity();
    let (calls2, live2) = count();
    // The index is kept in the design: asking again allocates nothing.
    let _ = design.connectivity();
    let (calls3, live3) = count();
    let seq: Vec<bool> = design
        .cell_types()
        .iter()
        .map(|t| t.name.starts_with("DFF"))
        .collect();
    let (_, live4) = count();
    let _ = design.levels(&seq);
    let (calls5, live5) = count();
    // The levels are kept too.
    let _ = design.levels(&seq);
    let (calls6, live6) = count();

    let n = design.cell_count() as f64;
    let build_calls = (calls1 - calls0) as f64 / n;
    let build_bytes = (live1 - live0) as f64 / n;
    let conn_calls = calls2 - calls1;
    let conn_bytes = (live2 - live1) as f64 / n;
    let level_bytes = (live5 - live4) as f64 / n;
    eprintln!(
        "{n} instances: build_soc {build_calls:.2} allocations and {build_bytes:.1} B per \
         instance; connectivity {conn_calls} allocations and {conn_bytes:.1} B per instance; \
         levels {level_bytes:.1} B per instance"
    );
    assert!(
        build_calls <= 2.0,
        "build_soc: {build_calls:.2} allocations per instance"
    );
    assert!(
        build_bytes <= 128.0,
        "build_soc: {build_bytes:.1} live bytes per instance"
    );
    assert!(conn_calls <= 16, "connectivity: {conn_calls} allocations");
    assert!(
        conn_bytes <= 64.0,
        "connectivity: {conn_bytes:.1} live bytes per instance"
    );
    assert_eq!(
        (calls3 - calls2, live3),
        (0, live2),
        "a second connectivity() call"
    );
    assert!(
        level_bytes <= 12.0,
        "levels: {level_bytes:.1} live bytes per instance"
    );
    assert_eq!(
        (calls6 - calls5, live6),
        (0, live5),
        "a second levels() call"
    );
}
