//! Allocation budget of one Figure 6 statement.
//!
//! A counting global allocator wraps the system allocator; the test builds
//! a 200 x 200 Figure 6-shaped database (`t` holds a correlated 4-point
//! `(p, q)` joint per row, `b` a 4-point `y`), then counts the heap
//! allocations of one
//! `SELECT t.id, p FROM t JOIN b ON t.id = b.id AND p < y WHERE q > c`
//! through `DurableSession::execute` plus `render_output`, per output row.
//!
//! [`BOUND_PER_ROW`] is fixed at 40 % of the count before discrete joints
//! were stored flat (its doc has both numbers). Allocations of every thread
//! are counted, so morsel workers would be charged too.

use orion_sql::{render_output, DurableSession, Output};
use orion_tests::scratch_dir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every `alloc`, `alloc_zeroed` and `realloc` call.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the allocator's; the counter is a relaxed
// atomic statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per output row allowed for the statement plus its
/// rendering: 40 % of the count when a discrete joint kept one heap `Vec`
/// per point and operators copied the pdfs they were about to replace,
/// 50 802 allocations for 183 rows (277.6 per row). With flat joints the
/// count is 13 856 (75.7 per row). Both are debug-build counts (a release
/// build makes 17 more) and are the same in every
/// `ORION_THREADS` / `ORION_MODE` configuration: 200 pairs fit in one
/// morsel, so no worker thread starts.
const BOUND_PER_ROW: f64 = 111.0;

const N: usize = 200;

/// A deterministic stream of values in `[0, 10)`, rounded to 2 places.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 11) % 1000) as f64 / 100.0
    }
}

#[test]
fn fig6_join_allocations_per_row_stay_in_budget() {
    let dir = scratch_dir("alloc-budget");
    let mut s = DurableSession::open(&dir).unwrap();
    s.execute("CREATE TABLE t (id INT, p REAL UNCERTAIN, q REAL UNCERTAIN, CORRELATED (p, q))")
        .unwrap();
    s.execute("CREATE TABLE b (id INT, y REAL UNCERTAIN)").unwrap();
    let mut rng = Lcg(42);
    let mut t_rows = Vec::with_capacity(N);
    let mut b_rows = Vec::with_capacity(N);
    for id in 0..N {
        let joint: Vec<String> =
            (0..4).map(|_| format!("({}, {}):0.25", rng.next(), rng.next())).collect();
        t_rows.push(format!("({id}, JOINT({}))", joint.join(", ")));
        let ys: Vec<String> = (0..4).map(|_| format!("{}:0.25", rng.next())).collect();
        b_rows.push(format!("({id}, DISCRETE({}))", ys.join(", ")));
    }
    s.execute(&format!("INSERT INTO t VALUES {}", t_rows.join(", "))).unwrap();
    s.execute(&format!("INSERT INTO b VALUES {}", b_rows.join(", "))).unwrap();

    let sql = "SELECT t.id, p FROM t JOIN b ON t.id = b.id AND p < y WHERE q > 4";
    // Warm-up: first-use allocations (planner caches, thread pool) are not
    // what the budget measures.
    render_output(&s.execute(sql).unwrap()).unwrap();

    let before = ALLOCS.load(Ordering::Relaxed);
    let out = s.execute(sql).unwrap();
    let text = render_output(&out).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let Output::Table(rel) = &out else { panic!("SELECT returns a table") };
    let rows = rel.len();
    assert!(rows > N / 4, "the statement keeps a fair share of the pairs: {rows}");
    assert_eq!(text.lines().count(), rows + 4, "one text line per row plus the frame");
    let per_row = allocs as f64 / rows as f64;
    eprintln!("alloc_budget: {allocs} allocations for {rows} rows = {per_row:.1} per row");
    assert!(
        per_row <= BOUND_PER_ROW,
        "{per_row:.1} allocations per output row exceed the budget of {BOUND_PER_ROW}"
    );
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}
