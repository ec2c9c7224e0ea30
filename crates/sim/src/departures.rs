//! The flow-departure queue of the lifecycle driver.
//!
//! [`crate::lifecycle::drive`] — the one event loop behind the
//! lifecycle runner, the trace auditor, the serve-layer replayer and
//! both chaos runs — walks arrivals in order and, at each time
//! boundary, releases the leases of flows whose holding time expired.
//! This queue orders those releases: min departure time first,
//! ascending arrival index on ties, so every run of one trace observes
//! the same release order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pending departures ordered by `(time, arrival index)` ascending.
///
/// Times are the fixed-point microsecond ticks of
/// [`crate::lifecycle::to_fixed`]; ids are arrival indices into the
/// caller's lease table.
#[derive(Debug, Default, Clone)]
pub struct DepartureQueue {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl DepartureQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules arrival `id` to depart at fixed-point time `at`.
    pub fn schedule(&mut self, at: u64, id: usize) {
        self.heap.push(Reverse((at, id)));
    }

    /// Pops the next departure due at or before `now` (min time first,
    /// ascending id on ties), or `None` when nothing is due yet.
    pub fn pop_due(&mut self, now: u64) -> Option<usize> {
        let &Reverse((t, _)) = self.heap.peek()?;
        if t > now {
            return None;
        }
        // lint:allow(expect) — invariant: peek above proved non-empty
        let Reverse((_, id)) = self.heap.pop().expect("peeked entry");
        Some(id)
    }

    /// Pops the next departure unconditionally — the end-of-trace drain
    /// measuring leakage. Returns `(time, id)`.
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_id_order() {
        let mut q = DepartureQueue::new();
        q.schedule(30, 2);
        q.schedule(10, 7);
        q.schedule(20, 1);
        q.schedule(10, 3);
        let mut order = Vec::new();
        while let Some(e) = q.pop() {
            order.push(e);
        }
        // Time ascending; equal times break ties on ascending id.
        assert_eq!(order, vec![(10, 3), (10, 7), (20, 1), (30, 2)]);
    }

    #[test]
    fn pop_due_respects_the_boundary() {
        let mut q = DepartureQueue::new();
        q.schedule(5, 0);
        q.schedule(10, 1);
        q.schedule(15, 2);
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(10), Some(0));
        assert_eq!(q.pop_due(10), Some(1));
        assert_eq!(q.pop_due(10), None, "15 is beyond the boundary");
        assert_eq!(q.pop(), Some((15, 2)));
        assert_eq!(q.pop_due(u64::MAX), None, "empty queue yields nothing");
    }

    #[test]
    fn interleaved_schedule_and_drain() {
        // Schedule while draining, as the arrival loop does: departures
        // scheduled for later boundaries never surface early.
        let mut q = DepartureQueue::new();
        q.schedule(2, 0);
        assert_eq!(q.pop_due(2), Some(0));
        q.schedule(4, 1);
        q.schedule(3, 2);
        assert_eq!(q.pop_due(3), Some(2));
        assert_eq!(q.pop_due(3), None);
        assert_eq!(q.pop_due(4), Some(1));
        assert_eq!(q.pop(), None);
    }
}
