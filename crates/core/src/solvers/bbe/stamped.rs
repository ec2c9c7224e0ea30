//! Epoch-stamped per-link counts, reused across scopes on a thread:
//! layer scoring's multicast dedup and the lineage loads both count
//! link uses over one short scope at a time.

/// Epoch-stamped per-id counts: `begin` opens a fresh all-zero scope in
/// O(1) (an epoch bump), so one allocation serves every scope on the
/// thread instead of a hash set or a cleared array per scope.
#[derive(Debug)]
pub(super) struct Stamped {
    /// `(epoch, count)` per id; a stale epoch reads as zero.
    slots: Vec<(u32, u32)>,
    epoch: u32,
}

impl Stamped {
    /// An empty counter, for `const` thread-local initialisers.
    pub const fn new() -> Self {
        Stamped {
            slots: Vec::new(),
            epoch: 0,
        }
    }

    /// Starts a fresh scope covering ids `0..ids`.
    pub fn begin(&mut self, ids: usize) {
        if self.slots.len() < ids {
            self.slots.resize(ids, (0, 0));
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: hard-reset the stamps so stale marks from
                // u32::MAX scopes ago cannot alias the new epoch.
                self.slots.fill((0, 0));
                1
            }
        };
    }

    /// The count of `id` in the current scope.
    #[inline]
    pub fn get(&self, id: u32) -> u32 {
        match self.slots[id as usize] {
            (e, n) if e == self.epoch => n,
            _ => 0,
        }
    }

    /// Adds `n` to the count of `id`.
    #[inline]
    pub fn add(&mut self, id: u32, n: u32) {
        let epoch = self.epoch;
        let s = &mut self.slots[id as usize];
        *s = if s.0 == epoch {
            (epoch, s.1 + n)
        } else {
            (epoch, n)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_start_empty() {
        let mut s = Stamped::new();
        s.begin(4);
        s.add(2, 1);
        s.add(2, 1);
        s.add(3, 5);
        assert_eq!((s.get(2), s.get(3), s.get(0)), (2, 5, 0));
        s.begin(6);
        assert_eq!((s.get(2), s.get(3), s.get(5)), (0, 0, 0));
        s.epoch = u32::MAX;
        s.add(1, 1);
        s.begin(6);
        assert_eq!(s.get(1), 0, "an epoch wrap must not alias old marks");
    }
}
