//! The ledger's memory is its outstanding leases: once warm, a ledger
//! that commits and releases forever holds the same live heap bytes.
//!
//! A counting `#[global_allocator]` tracks the live bytes (allocated
//! minus freed) of the test's own thread, so the harness's threads do
//! not bleed into the count. Eight leases stay in flight while 10,000
//! more are committed and released, oldest first; the live bytes after
//! them must equal the live bytes before. A log that kept an entry per
//! reservation or release would grow by megabytes here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};

use dagsfc_net::{CommitLedger, LinkId, Network, NodeId, VnfTypeId};

/// Counts the bytes the counting thread holds through the global
/// allocator.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: i64) {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        LIVE.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// A 6-node ring with one instance of each of three kinds on every
/// node, every capacity roomy enough for all leases in flight.
fn ring() -> Network {
    let mut g = Network::new();
    g.add_nodes(6);
    for i in 0..6u32 {
        g.add_link(NodeId(i), NodeId((i + 1) % 6), 1.0, 100.0)
            .unwrap();
        for k in 0..3u16 {
            g.deploy_vnf(NodeId(i), VnfTypeId(k), 1.0, 100.0).unwrap();
        }
    }
    g
}

#[test]
fn commit_release_cycles_leave_live_bytes_flat() {
    const IN_FLIGHT: usize = 8;
    const CYCLES: usize = 10_000;
    COUNTED.with(|c| c.set(true));
    let net = ring();
    let mut ledger = CommitLedger::new(&net);
    let mut leases = VecDeque::with_capacity(IN_FLIGHT + 1);
    let mut cycle = |ledger: &mut CommitLedger<'_>, i: usize| {
        let node = |j: usize| NodeId(((i + j) % 6) as u32);
        let vnf = [
            (node(0), VnfTypeId(0), 1.0),
            (node(1), VnfTypeId(1), 0.5),
            (node(2), VnfTypeId(2), 0.25),
        ];
        let links = [
            (LinkId((i % 6) as u32), 1.0),
            (LinkId(((i + 1) % 6) as u32), 1.0),
        ];
        leases.push_back(ledger.commit(vnf, links).expect("roomy ring admits"));
        if leases.len() > IN_FLIGHT {
            let oldest = leases.pop_front().expect("a lease is in flight");
            ledger.release(oldest).expect("in-flight lease releases");
        }
    };
    for i in 0..1_000 {
        cycle(&mut ledger, i);
    }
    let before = live();
    for i in 0..CYCLES {
        cycle(&mut ledger, i);
    }
    let after = live();
    assert_eq!(ledger.active_leases(), IN_FLIGHT);
    assert_eq!(
        after - before,
        0,
        "{CYCLES} commit/release cycles changed the live heap by {} bytes",
        after - before
    );
}
