//! What a run costs in memory, per request: the peak bytes the engine holds
//! beyond the log it returns and the bytes of that log, at an open-loop
//! n = 16 shape; then, at a closed-loop n = 4 shape, the heap allocations
//! the run makes, the bytes the finished observation log holds and the
//! peak transient bytes of the two readers every run ends with,
//! `suite::check_run` and `SafetyAuditor::check`.
//!
//! A counting global allocator measures them, so this file is its own test
//! binary with one test: a second test running in parallel would allocate
//! into the same counters. The figures are exact for a seed and compiler,
//! in debug and release alike.
//!
//! ```text
//! cargo test --release --test memory -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use untrusted_txn::prelude::*;
use untrusted_txn::protocols::suite::check_run;

/// The system allocator, counting the bytes live now and their high-water
/// mark since the last [`Counting::reset_peak`], and every allocation and
/// reallocation.
struct Counting {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocations: AtomicUsize,
}

impl Counting {
    fn live(&self) -> usize {
        self.live.load(Relaxed)
    }

    fn reset_peak(&self) {
        self.peak.store(self.live(), Relaxed);
    }

    /// Peak bytes above `base` while `f` ran.
    fn transient<T>(&self, f: impl FnOnce() -> T) -> (T, usize) {
        let base = self.live();
        self.reset_peak();
        let value = f();
        (value, self.peak.load(Relaxed) - base)
    }

    /// Allocations and reallocations while `f` ran.
    fn allocations<T>(&self, f: impl FnOnce() -> T) -> (T, usize) {
        let base = self.allocations.load(Relaxed);
        let value = f();
        (value, self.allocations.load(Relaxed) - base)
    }

    fn grew(&self, bytes: usize) {
        self.allocations.fetch_add(1, Relaxed);
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes passed through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.grew(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // the old block stays live until the move is done
        self.grew(new_size);
        // SAFETY: the caller's contract for `realloc` is `System`'s.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        self.live.fetch_sub(layout.size(), Relaxed);
        moved
    }
}

#[global_allocator]
static ALLOC: Counting = Counting {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
    allocations: AtomicUsize::new(0),
};

/// Bytes per request on PBFT, 2 clients × 2 000 requests, seed 1, before
/// the log became compact rows with interned digests (measured with this
/// file's code, rustc 1.95, x86-64).
const BEFORE: Bytes = Bytes {
    log: 3_471.872,
    check_run: 750.69,
    audit: 643.592,
};

#[derive(Debug)]
struct Bytes {
    log: f64,
    check_run: f64,
    audit: f64,
}

/// The same run's bytes per request when the log stored each observation
/// as a 48-byte row: the log, and the peak transients of `check_run` and
/// of the audit before they kept their indices in vectors.
const ROWS: Bytes = Bytes {
    log: 1_112.768,
    check_run: 274.71,
    audit: 220.076,
};

/// Heap allocations and reallocations per request of the n = 4 run below
/// while a batch digest hashed each request's whole encoding, signatures
/// covered it too and clients derived their key per request (measured with
/// this file's code, rustc 1.95, x86-64).
const ALLOCATIONS_BEFORE: f64 = 77.44;

/// Peak live bytes of one `ProtocolId::Pbft.run` above the log it returns,
/// per request, at the shape of `open_loop_n16` below, before the calendar
/// queue released burst storage and the log grew in fixed segments
/// (measured with this file's code, rustc 1.95, x86-64).
const ENGINE_BEFORE: f64 = 33_837.0;

/// The log's bytes per request at the shape of `open_loop_n16` with
/// 48-byte rows (measured with this file's code, rustc 1.95, x86-64).
const OPEN_LOOP_LOG_ROWS: f64 = 3_943.0;

/// The `sim-pbft-n16-open` benchmark shape at a debug-mode size: PBFT
/// f = 5, n = 16, eight open-loop clients at 1 000 requests per second
/// each, Zipfian keys, seed 1, 40 requests per client (≈ 1.2 laps of the
/// calendar queue's ring).
fn open_loop_n16() -> Scenario {
    let workload = WorkloadConfig::uniform()
        .with_keys(10_000)
        .zipfian(0.99)
        .open_loop(1_000);
    Scenario::small(5)
        .with_load(8, 40)
        .with_workload(workload)
        .with_seed(1)
}

#[test]
fn the_log_and_its_readers_stay_within_half_their_former_bytes_per_request() {
    // the engine: what a run holds at its peak beyond the log it returns
    let open = open_loop_n16();
    let (mut out, peak) = ALLOC.transient(|| ProtocolId::Pbft.run(&open));
    assert_eq!(out.log.accepted() as u64, open.total_requests());
    let before = ALLOC.live();
    drop(std::mem::take(&mut out.log));
    let open_log = before - ALLOC.live();
    let engine = (peak - open_log) as f64 / open.total_requests() as f64;
    let open_log = open_log as f64 / open.total_requests() as f64;
    drop(out);
    println!("engine bytes per request above the log: {engine:.1} (before: {ENGINE_BEFORE})");
    assert!(engine <= 0.5 * ENGINE_BEFORE, "{engine}");
    println!(
        "log bytes per request at this shape: {open_log:.1} (48-byte rows: {OPEN_LOOP_LOG_ROWS})"
    );
    // 620.0 since rows are byte-packed, with 10 % headroom
    assert!(open_log <= 680.0, "{open_log}");

    let scenario = Scenario::small(1).with_load(2, 2_000).with_seed(1);
    let requests = scenario.total_requests() as f64;
    let (mut out, allocations) = ALLOC.allocations(|| ProtocolId::Pbft.run(&scenario));
    assert_eq!(out.log.accepted() as f64, requests);
    let allocations = allocations as f64 / requests;
    println!("heap allocations per request: {allocations:.2} (before: {ALLOCATIONS_BEFORE})");
    // 41.44 since digests stream into the hash, with 3 % headroom
    assert!(allocations <= 1.03 * 41.44, "{allocations}");

    let (violations, check_run) =
        ALLOC.transient(|| check_run(ProtocolId::Pbft, &scenario, &out).len());
    assert_eq!(violations, 0);
    let (unsafe_commits, audit) =
        ALLOC.transient(|| SafetyAuditor::all_correct().check(&out.log).len());
    assert_eq!(unsafe_commits, 0);
    let before = ALLOC.live();
    drop(std::mem::take(&mut out.log));
    let log = before - ALLOC.live();

    let now = Bytes {
        log: log as f64 / requests,
        check_run: check_run as f64 / requests,
        audit: audit as f64 / requests,
    };
    println!("bytes per request: {now:?} (before: {BEFORE:?}, 48-byte rows: {ROWS:?})");
    // 315.7 since rows are byte-packed, with 10 % headroom
    assert!(now.log <= 350.0, "{now:?}");
    assert!(now.check_run <= 0.5 * ROWS.check_run, "{now:?}");
    assert!(now.audit <= 0.5 * ROWS.audit, "{now:?}");
}
