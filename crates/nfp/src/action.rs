//! Packet-action profiles of network functions.
//!
//! A profile abstracts what a network function does to traffic — which
//! fields it reads and writes, whether it may drop packets, and whether it
//! accounts traffic — which is exactly the information needed to decide
//! whether two functions can run in parallel (NFP \[17\], ParaBox
//! \[22\]).

use crate::field::FieldSet;
use serde::{Deserialize, Serialize};

/// What a network function reads from and does to packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ActionProfile {
    /// Fields the function inspects.
    pub reads: FieldSet,
    /// Fields the function modifies.
    pub writes: FieldSet,
    /// Whether the function may discard packets (firewall, IPS, policer).
    pub may_drop: bool,
    /// Whether the function accounts traffic volume (billing, monitoring).
    /// Counting functions are order-sensitive relative to droppers: counting
    /// before or after a firewall gives different numbers.
    pub counts_traffic: bool,
    /// Whether the function terminates and re-originates connections
    /// (terminating proxy, VPN endpoint). Such functions rewrite the whole
    /// packet and force sequential placement.
    pub terminates: bool,
}

impl ActionProfile {
    /// A pure reader of `fields` (classifier, IDS-style inspector).
    pub fn reader(fields: FieldSet) -> Self {
        ActionProfile {
            reads: fields,
            ..ActionProfile::default()
        }
    }

    /// Reads `reads` and rewrites `writes` (NAT, load balancer, marker).
    pub fn rewriter(reads: FieldSet, writes: FieldSet) -> Self {
        ActionProfile {
            reads,
            writes,
            ..ActionProfile::default()
        }
    }

    /// A dropper inspecting `fields` (firewall, IPS, policer).
    pub fn dropper(fields: FieldSet) -> Self {
        ActionProfile {
            reads: fields,
            may_drop: true,
            ..ActionProfile::default()
        }
    }

    /// A terminating function (proxy, VPN endpoint).
    pub fn terminator() -> Self {
        ActionProfile {
            reads: FieldSet::ALL,
            writes: FieldSet::ALL,
            terminates: true,
            ..ActionProfile::default()
        }
    }

    /// A pure monitor: reads everything, writes nothing, counts traffic.
    pub fn monitor() -> Self {
        ActionProfile {
            reads: FieldSet::ALL,
            writes: FieldSet::EMPTY,
            may_drop: false,
            counts_traffic: true,
            terminates: false,
        }
    }

    /// Effective write set: terminating functions rewrite every field.
    pub fn effective_writes(&self) -> FieldSet {
        if self.terminates {
            FieldSet::ALL
        } else {
            self.writes
        }
    }

    /// Effective read set: terminating functions depend on every field.
    pub fn effective_reads(&self) -> FieldSet {
        if self.terminates {
            FieldSet::ALL
        } else {
            self.reads
        }
    }

    /// Whether the function never alters traffic (pure reader).
    pub fn is_read_only(&self) -> bool {
        self.effective_writes().is_empty() && !self.may_drop
    }
}

/// Whether — and at what cost — an *ordered* NF pair `(first, second)` can
/// run in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Parallelism {
    /// Parallelizable with no extra resource overhead: at most one of the
    /// two modifies packets, so no packet copying is needed (the 41.5%
    /// class measured by NFP).
    Full,
    /// Parallelizable, but both functions modify disjoint field sets, so
    /// the merger must copy packets and merge the modifications (part of
    /// NFP's 53.8% class).
    WithCopyOverhead,
    /// Order-dependent: must stay sequential.
    Sequential,
}

impl Parallelism {
    /// Whether the pair may share a parallel layer at all.
    #[inline]
    pub fn is_parallelizable(self) -> bool {
        !matches!(self, Parallelism::Sequential)
    }
}

/// Why an ordered NF pair must stay sequential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConflictReason {
    /// One of the functions terminates/re-originates connections.
    Termination,
    /// `second` reads a field `first` writes (read-after-write).
    ReadAfterWrite,
    /// `second` writes a field `first` reads (write-after-read).
    WriteAfterRead,
    /// Both write a common field (merge ambiguity).
    WriteWrite,
    /// One may drop packets while the other accounts traffic.
    DropVsCount,
}

/// Explains why the ordered pair `(first, second)` cannot parallelize,
/// or `None` when it can. The first matching rule (in the order the
/// rules are documented on [`parallelism`]) is reported.
pub fn conflict(first: &ActionProfile, second: &ActionProfile) -> Option<ConflictReason> {
    if first.terminates || second.terminates {
        return Some(ConflictReason::Termination);
    }
    let (w1, w2) = (first.effective_writes(), second.effective_writes());
    let (r1, r2) = (first.effective_reads(), second.effective_reads());
    if w1.intersects(r2) {
        return Some(ConflictReason::ReadAfterWrite);
    }
    if r1.intersects(w2) {
        return Some(ConflictReason::WriteAfterRead);
    }
    if w1.intersects(w2) {
        return Some(ConflictReason::WriteWrite);
    }
    if (first.may_drop && second.counts_traffic) || (second.may_drop && first.counts_traffic) {
        return Some(ConflictReason::DropVsCount);
    }
    None
}

/// Decides parallelizability of the ordered pair `(first, second)`.
///
/// The pair must stay sequential when any of the following holds
/// (NFP's dependency rules):
///
/// 1. either function terminates connections;
/// 2. `first` writes a field `second` reads (read-after-write);
/// 3. `first` reads a field `second` writes (write-after-read — in
///    parallel, `first` could observe the modified value after merging);
/// 4. both write a common field (merge conflict);
/// 5. one may drop packets while the other accounts traffic (the count
///    depends on whether it runs before or after the dropper).
///
/// Otherwise the pair is parallelizable; if both functions write
/// (necessarily disjoint) fields the merger must copy packets, which NFP
/// classifies as parallelism *with* resource overhead.
pub fn parallelism(first: &ActionProfile, second: &ActionProfile) -> Parallelism {
    if conflict(first, second).is_some() {
        return Parallelism::Sequential;
    }
    if !first.effective_writes().is_empty() && !second.effective_writes().is_empty() {
        Parallelism::WithCopyOverhead
    } else {
        Parallelism::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::PacketField;

    fn reader(fields: &[PacketField]) -> ActionProfile {
        ActionProfile {
            reads: FieldSet::of(fields),
            ..ActionProfile::default()
        }
    }

    fn writer(reads: &[PacketField], writes: &[PacketField]) -> ActionProfile {
        ActionProfile {
            reads: FieldSet::of(reads),
            writes: FieldSet::of(writes),
            ..ActionProfile::default()
        }
    }

    #[test]
    fn two_readers_fully_parallel() {
        let a = reader(&[PacketField::SrcIp]);
        let b = reader(&[PacketField::SrcIp, PacketField::Payload]);
        assert_eq!(parallelism(&a, &b), Parallelism::Full);
        assert_eq!(parallelism(&b, &a), Parallelism::Full);
    }

    #[test]
    fn read_after_write_is_sequential() {
        let nat = writer(&[PacketField::SrcIp], &[PacketField::SrcIp]);
        let fw = reader(&[PacketField::SrcIp]);
        assert_eq!(parallelism(&nat, &fw), Parallelism::Sequential);
    }

    #[test]
    fn write_after_read_is_sequential() {
        let fw = reader(&[PacketField::SrcIp]);
        let nat = writer(&[], &[PacketField::SrcIp]);
        assert_eq!(parallelism(&fw, &nat), Parallelism::Sequential);
    }

    #[test]
    fn write_write_conflict_is_sequential() {
        let a = writer(&[], &[PacketField::Payload]);
        let b = writer(&[], &[PacketField::Payload]);
        assert_eq!(parallelism(&a, &b), Parallelism::Sequential);
    }

    #[test]
    fn disjoint_writers_need_copy() {
        let a = writer(&[], &[PacketField::Tos]);
        let b = writer(&[], &[PacketField::Ttl]);
        assert_eq!(parallelism(&a, &b), Parallelism::WithCopyOverhead);
        assert!(Parallelism::WithCopyOverhead.is_parallelizable());
    }

    #[test]
    fn single_writer_is_full() {
        let a = writer(&[], &[PacketField::Tos]);
        let b = reader(&[PacketField::Payload]);
        assert_eq!(parallelism(&a, &b), Parallelism::Full);
    }

    #[test]
    fn terminator_forces_sequential() {
        let proxy = ActionProfile {
            terminates: true,
            ..ActionProfile::default()
        };
        let b = reader(&[PacketField::Payload]);
        assert_eq!(parallelism(&proxy, &b), Parallelism::Sequential);
        assert_eq!(parallelism(&b, &proxy), Parallelism::Sequential);
        assert_eq!(proxy.effective_writes(), FieldSet::ALL);
        assert_eq!(proxy.effective_reads(), FieldSet::ALL);
        assert!(!proxy.is_read_only());
    }

    #[test]
    fn dropper_vs_counter_is_sequential() {
        let fw = ActionProfile {
            reads: FieldSet::FIVE_TUPLE,
            may_drop: true,
            ..ActionProfile::default()
        };
        let mon = ActionProfile::monitor();
        assert_eq!(parallelism(&fw, &mon), Parallelism::Sequential);
        assert_eq!(parallelism(&mon, &fw), Parallelism::Sequential);
    }

    #[test]
    fn two_droppers_parallelize() {
        let fw = ActionProfile {
            reads: FieldSet::FIVE_TUPLE,
            may_drop: true,
            ..ActionProfile::default()
        };
        // Two ACL-style droppers: reading + dropping commute (drop wins).
        assert_eq!(parallelism(&fw, &fw), Parallelism::Full);
    }

    #[test]
    fn conflict_reasons_reported() {
        let proxy = ActionProfile {
            terminates: true,
            ..ActionProfile::default()
        };
        let fw = ActionProfile {
            reads: FieldSet::FIVE_TUPLE,
            may_drop: true,
            ..ActionProfile::default()
        };
        let nat = writer(&[PacketField::SrcIp], &[PacketField::SrcIp]);
        let mon = ActionProfile::monitor();
        assert_eq!(conflict(&proxy, &fw), Some(ConflictReason::Termination));
        assert_eq!(conflict(&nat, &fw), Some(ConflictReason::ReadAfterWrite));
        assert_eq!(conflict(&fw, &nat), Some(ConflictReason::WriteAfterRead));
        assert_eq!(
            conflict(
                &writer(&[], &[PacketField::Payload]),
                &writer(&[], &[PacketField::Payload])
            ),
            Some(ConflictReason::WriteWrite)
        );
        assert_eq!(conflict(&fw, &mon), Some(ConflictReason::DropVsCount));
        assert_eq!(conflict(&fw, &fw), None);
        // conflict() and parallelism() always agree.
        for (a, b) in [(&proxy, &fw), (&nat, &fw), (&fw, &mon), (&fw, &fw)] {
            assert_eq!(
                conflict(a, b).is_some(),
                parallelism(a, b) == Parallelism::Sequential
            );
        }
    }

    #[test]
    fn convenience_constructors() {
        let r = ActionProfile::reader(FieldSet::FIVE_TUPLE);
        assert!(r.is_read_only());
        let w = ActionProfile::rewriter(
            FieldSet::of(&[PacketField::SrcIp]),
            FieldSet::of(&[PacketField::SrcIp]),
        );
        assert!(!w.is_read_only());
        let d = ActionProfile::dropper(FieldSet::FIVE_TUPLE);
        assert!(d.may_drop && d.writes.is_empty());
        let t = ActionProfile::terminator();
        assert!(t.terminates);
        assert_eq!(parallelism(&r, &d), Parallelism::Full);
        assert_eq!(parallelism(&t, &r), Parallelism::Sequential);
    }

    #[test]
    fn monitor_profile_shape() {
        let m = ActionProfile::monitor();
        assert!(m.is_read_only());
        assert!(m.counts_traffic);
        assert_eq!(m.reads, FieldSet::ALL);
    }
}
