//! Commit/release ledger: leased resource commitments over a
//! [`NetworkState`].
//!
//! An online embedding service admits a request, commits its VNF and
//! link loads, and hands the caller back a **lease**. When the request
//! departs (a client disconnects, a trace event fires), the lease is
//! released and exactly the committed resources return to the pool. The
//! [`CommitLedger`] packages that lifecycle:
//!
//! * [`CommitLedger::commit`] reserves a whole load set **atomically** —
//!   if any single reservation fails, everything already reserved for
//!   the lease is rolled back and the state is untouched;
//! * [`CommitLedger::release`] returns a lease's resources and rejects
//!   unknown or double releases with [`NetError::UnknownLease`];
//! * every successful commit/release bumps an **epoch** counter, so
//!   residual-network caches (e.g. a daemon's shared solve context) know
//!   exactly when their snapshot went stale.
//!
//! The ledger is the serving-path twin of the solver-facing
//! checkpoint/rollback API on [`NetworkState`]: solvers backtrack within
//! one request, the ledger tracks commitments *across* requests.

use crate::error::{NetError, NetResult};
use crate::fault::FaultEvent;
use crate::fxmap::FxHashMap;
use crate::graph::Network;
use crate::ids::{LinkId, NodeId, VnfTypeId};
use crate::state::NetworkState;

/// Opaque handle to one committed load set (monotonically increasing,
/// never reused within a ledger's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(pub u64);

impl std::fmt::Display for LeaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lease#{}", self.0)
    }
}

/// The loads one lease committed (kept verbatim so release restores
/// exactly what was reserved).
#[derive(Debug, Clone)]
struct LeaseRecord {
    vnf: Vec<(NodeId, VnfTypeId, f64)>,
    links: Vec<(LinkId, f64)>,
    /// The client session that committed this lease, when known. Leases
    /// whose owner disappears without releasing are *orphans*, found by
    /// [`CommitLedger::leases_owned_by`] and freed in bulk by
    /// [`CommitLedger::reclaim_owner`].
    owner: Option<u64>,
}

/// Lease-tracked resource commitments over a residual [`NetworkState`].
#[derive(Debug)]
pub struct CommitLedger<'a> {
    state: NetworkState<'a>,
    /// Active leases keyed by id: O(1) release/liveness checks with the
    /// deterministic in-repo [`FxHashMap`] (ordered views sort the ids).
    active: FxHashMap<u64, LeaseRecord>,
    next_lease: u64,
    epoch: u64,
    total_committed: u64,
    total_released: u64,
    /// Owner tag stamped onto subsequent commits (serving-path sessions
    /// set this around each request; simulation paths to the arrival).
    default_owner: Option<u64>,
    faults_applied: u64,
    orphans_reclaimed: u64,
}

impl<'a> CommitLedger<'a> {
    /// A fresh ledger over `net` with all capacities available.
    pub fn new(net: &'a Network) -> Self {
        CommitLedger {
            state: NetworkState::new(net),
            active: FxHashMap::default(),
            next_lease: 0,
            epoch: 0,
            total_committed: 0,
            total_released: 0,
            default_owner: None,
            faults_applied: 0,
            orphans_reclaimed: 0,
        }
    }

    /// The underlying immutable network.
    #[inline]
    pub fn network(&self) -> &'a Network {
        self.state.network()
    }

    /// Read access to the residual state (remaining capacities).
    #[inline]
    pub fn state(&self) -> &NetworkState<'a> {
        &self.state
    }

    /// The change epoch: bumped by every successful commit or release.
    /// Caches of the residual network are valid exactly while the epoch
    /// they were built at is still current.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of currently outstanding leases.
    #[inline]
    pub fn active_leases(&self) -> usize {
        self.active.len()
    }

    /// Total leases ever committed.
    #[inline]
    pub fn committed_total(&self) -> u64 {
        self.total_committed
    }

    /// Total leases ever released.
    #[inline]
    pub fn released_total(&self) -> u64 {
        self.total_released
    }

    /// Materializes the current residual capacities as a fresh
    /// [`Network`] (topology and prices unchanged).
    pub fn residual(&self) -> Network {
        self.state.to_residual_network()
    }

    /// Committed-but-unreleased load across all resources — a leak
    /// detector once every lease has been released (must be ~0).
    pub fn outstanding_load(&self) -> f64 {
        self.state.total_link_load() + self.state.total_vnf_load()
    }

    /// Atomically reserves a whole load set and opens a lease for it.
    ///
    /// `vnf_loads` are `(node, kind, rate)` triples; `link_loads` are
    /// `(link, rate)` pairs (zero-rate entries are skipped). On any
    /// individual failure the partial reservation is rolled back, the
    /// state is left untouched, and the error is returned.
    pub fn commit<V, L>(&mut self, vnf_loads: V, link_loads: L) -> NetResult<LeaseId>
    where
        V: IntoIterator<Item = (NodeId, VnfTypeId, f64)>,
        L: IntoIterator<Item = (LinkId, f64)>,
    {
        let cp = self.state.checkpoint();
        let mut record = LeaseRecord {
            vnf: Vec::new(),
            links: Vec::new(),
            owner: None,
        };
        for (node, kind, rate) in vnf_loads {
            if rate <= 0.0 {
                continue;
            }
            if let Err(e) = self.state.reserve_vnf(node, kind, rate) {
                self.state.rollback(cp);
                return Err(e);
            }
            record.vnf.push((node, kind, rate));
        }
        for (link, rate) in link_loads {
            if rate <= 0.0 {
                continue;
            }
            if let Err(e) = self.state.reserve_link(link, rate) {
                self.state.rollback(cp);
                return Err(e);
            }
            record.links.push((link, rate));
        }
        record.owner = self.default_owner;
        let id = LeaseId(self.next_lease);
        self.next_lease += 1;
        self.epoch += 1;
        self.total_committed += 1;
        self.active.insert(id.0, record);
        Ok(id)
    }

    /// Releases every resource `lease` committed. Unknown ids — never
    /// issued, or already released — fail with
    /// [`NetError::UnknownLease`] and leave the state untouched.
    pub fn release(&mut self, lease: LeaseId) -> NetResult<()> {
        let record = self
            .active
            .remove(&lease.0)
            .ok_or(NetError::UnknownLease(lease.0))?;
        for &(node, kind, rate) in &record.vnf {
            self.state
                .release_vnf(node, kind, rate)
                // lint:allow(expect) — invariant: release mirrors a recorded reservation
                .expect("release mirrors a recorded reservation");
        }
        for &(link, rate) in &record.links {
            self.state
                .release_link(link, rate)
                // lint:allow(expect) — invariant: release mirrors a recorded reservation
                .expect("release mirrors a recorded reservation");
        }
        self.epoch += 1;
        self.total_released += 1;
        Ok(())
    }

    /// Whether `lease` is currently outstanding.
    pub fn is_active(&self, lease: LeaseId) -> bool {
        self.active.contains_key(&lease.0)
    }

    /// The ids of all outstanding leases, in commit order (ids are
    /// issued monotonically, so sorted order *is* commit order).
    pub fn active_lease_ids(&self) -> Vec<LeaseId> {
        let mut ids: Vec<LeaseId> = self.active.keys().map(|&id| LeaseId(id)).collect();
        ids.sort_unstable();
        ids
    }

    /// Sets the owner tag stamped onto every subsequent commit (`None`
    /// clears it). The serving path wraps each request's commit with the
    /// client session's id so the leases of a vanished client can be
    /// found and reclaimed; the in-process lifecycle tags each commit
    /// with its arrival index, so it reclaims exactly the leases whose
    /// release was dropped.
    pub fn set_default_owner(&mut self, owner: Option<u64>) {
        self.default_owner = owner;
    }

    /// The outstanding leases committed under `owner`, in commit order.
    pub fn leases_owned_by(&self, owner: u64) -> Vec<LeaseId> {
        let mut ids: Vec<LeaseId> = self
            .active
            .iter()
            .filter(|(_, r)| r.owner == Some(owner))
            .map(|(&id, _)| LeaseId(id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Releases every outstanding lease committed under `owner` (orphan
    /// reclaim after a client disconnect or dropped release). Returns
    /// the reclaimed ids in commit order; empty when the owner holds
    /// nothing — that is not an error.
    pub fn reclaim_owner(&mut self, owner: u64) -> Vec<LeaseId> {
        let ids = self.leases_owned_by(owner);
        for &id in &ids {
            self.release(id)
                // lint:allow(expect) — invariant: id came from the live lease set
                .expect("reclaimed lease is active");
            self.orphans_reclaimed += 1;
        }
        ids
    }

    /// Applies one substrate [`FaultEvent`] to the residual state,
    /// bumping the epoch when the state actually changed so residual
    /// caches rebuild. Returns whether the state changed.
    pub fn apply_fault(&mut self, event: &FaultEvent) -> NetResult<bool> {
        let changed = self.state.apply_fault(event)?;
        if changed {
            self.epoch += 1;
            self.faults_applied += 1;
        }
        Ok(changed)
    }

    /// Total fault events that changed the substrate state.
    #[inline]
    pub fn faults_applied(&self) -> u64 {
        self.faults_applied
    }

    /// Total leases released through [`Self::reclaim_owner`].
    #[inline]
    pub fn orphans_reclaimed(&self) -> u64 {
        self.orphans_reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0, 2.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 1.0, 2.0).unwrap();
        g.deploy_vnf(NodeId(0), VnfTypeId(0), 1.0, 3.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(1), 1.0, 3.0).unwrap();
        g
    }

    #[test]
    fn commit_then_release_round_trips() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        let lease = ledger
            .commit(
                [(NodeId(0), VnfTypeId(0), 2.0)],
                [(LinkId(0), 1.5), (LinkId(1), 0.0)],
            )
            .unwrap();
        assert_eq!(ledger.active_leases(), 1);
        assert!(ledger.is_active(lease));
        assert_eq!(ledger.epoch(), 1);
        assert!(ledger.outstanding_load() > 0.0);
        let residual = ledger.residual();
        assert_eq!(residual.link(LinkId(0)).capacity, 0.5);

        ledger.release(lease).unwrap();
        assert_eq!(ledger.active_leases(), 0);
        assert!(!ledger.is_active(lease));
        assert_eq!(ledger.epoch(), 2);
        assert!(ledger.outstanding_load().abs() < 1e-12);
        assert_eq!(ledger.committed_total(), 1);
        assert_eq!(ledger.released_total(), 1);
    }

    #[test]
    fn commit_is_atomic_on_failure() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        // Second reservation exceeds link 0's bandwidth: the first VNF
        // reservation must be rolled back.
        let err = ledger
            .commit([(NodeId(0), VnfTypeId(0), 1.0)], [(LinkId(0), 5.0)])
            .unwrap_err();
        assert!(matches!(err, NetError::InsufficientBandwidth { .. }));
        assert_eq!(ledger.active_leases(), 0);
        assert_eq!(ledger.epoch(), 0, "failed commit must not bump the epoch");
        assert!(ledger.outstanding_load().abs() < 1e-12);
    }

    #[test]
    fn vnf_failure_also_rolls_back() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        let err = ledger
            .commit(
                [
                    (NodeId(0), VnfTypeId(0), 1.0),
                    (NodeId(2), VnfTypeId(0), 1.0),
                ],
                [],
            )
            .unwrap_err();
        assert!(matches!(err, NetError::VnfNotDeployed { .. }));
        assert!(ledger.outstanding_load().abs() < 1e-12);
    }

    #[test]
    fn double_release_rejected() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        let lease = ledger.commit([(NodeId(0), VnfTypeId(0), 1.0)], []).unwrap();
        ledger.release(lease).unwrap();
        assert_eq!(ledger.release(lease), Err(NetError::UnknownLease(lease.0)));
        assert_eq!(
            ledger.release(LeaseId(999)),
            Err(NetError::UnknownLease(999))
        );
    }

    #[test]
    fn lease_ids_are_unique_and_ordered() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        let a = ledger.commit([(NodeId(0), VnfTypeId(0), 0.5)], []).unwrap();
        let b = ledger.commit([(NodeId(1), VnfTypeId(1), 0.5)], []).unwrap();
        assert!(a < b);
        assert_eq!(ledger.active_lease_ids(), vec![a, b]);
        ledger.release(a).unwrap();
        // Ids are never reused, even after a release.
        let c = ledger.commit([(NodeId(1), VnfTypeId(1), 0.5)], []).unwrap();
        assert!(b < c);
        assert_eq!(ledger.active_lease_ids(), vec![b, c]);
    }

    #[test]
    fn interleaved_commits_and_releases_track_capacity() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        let a = ledger.commit([], [(LinkId(0), 1.0)]).unwrap();
        let _b = ledger.commit([], [(LinkId(0), 1.0)]).unwrap();
        // Link 0 is full: a third unit must be refused.
        assert!(ledger.commit([], [(LinkId(0), 1.0)]).is_err());
        ledger.release(a).unwrap();
        // ...and admitted again after a release frees the bandwidth.
        assert!(ledger.commit([], [(LinkId(0), 1.0)]).is_ok());
        assert_eq!(ledger.active_leases(), 2);
    }

    #[test]
    fn owner_tagging_and_reclaim() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        ledger.set_default_owner(Some(7));
        let a = ledger.commit([], [(LinkId(0), 0.5)]).unwrap();
        let b = ledger.commit([], [(LinkId(1), 0.5)]).unwrap();
        ledger.set_default_owner(Some(8));
        let c = ledger.commit([], [(LinkId(0), 0.5)]).unwrap();
        ledger.set_default_owner(None);
        let d = ledger.commit([], [(LinkId(1), 0.5)]).unwrap();

        assert_eq!(ledger.leases_owned_by(7), vec![a, b]);
        assert_eq!(ledger.leases_owned_by(9), vec![]);

        let epoch_before = ledger.epoch();
        let reclaimed = ledger.reclaim_owner(7);
        assert_eq!(reclaimed, vec![a, b]);
        assert_eq!(ledger.orphans_reclaimed(), 2);
        // Each reclaim is a real release: epoch moved, leases are gone,
        // untagged and other-owner leases survive.
        assert_eq!(ledger.epoch(), epoch_before + 2);
        assert!(!ledger.is_active(a));
        assert!(ledger.is_active(c));
        assert!(ledger.is_active(d));
        // Reclaiming again is a clean no-op.
        assert!(ledger.reclaim_owner(7).is_empty());
        assert_eq!(ledger.orphans_reclaimed(), 2);
    }

    #[test]
    fn fault_bumps_epoch_only_on_change() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        let e0 = ledger.epoch();
        assert!(ledger
            .apply_fault(&FaultEvent::LinkDown { link: LinkId(0) })
            .unwrap());
        assert_eq!(ledger.epoch(), e0 + 1);
        assert_eq!(ledger.faults_applied(), 1);
        // No-op repeat: epoch must NOT move, so caches stay warm.
        assert!(!ledger
            .apply_fault(&FaultEvent::LinkDown { link: LinkId(0) })
            .unwrap());
        assert_eq!(ledger.epoch(), e0 + 1);
        assert_eq!(ledger.faults_applied(), 1);
        // Residual view reflects the down link.
        assert_eq!(ledger.residual().link(LinkId(0)).capacity, 0.0);
        // Unknown target surfaces the NetError and changes nothing.
        assert!(ledger
            .apply_fault(&FaultEvent::LinkDown { link: LinkId(42) })
            .is_err());
        assert_eq!(ledger.epoch(), e0 + 1);
    }

    #[test]
    fn commit_fails_onto_down_resources_and_recovers() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        ledger
            .apply_fault(&FaultEvent::NodeDown { node: NodeId(0) })
            .unwrap();
        let err = ledger
            .commit([(NodeId(0), VnfTypeId(0), 1.0)], [])
            .unwrap_err();
        assert_eq!(err, NetError::NodeUnavailable(NodeId(0)));
        assert!(ledger.outstanding_load().abs() < 1e-12);
        ledger
            .apply_fault(&FaultEvent::NodeUp { node: NodeId(0) })
            .unwrap();
        assert!(ledger.commit([(NodeId(0), VnfTypeId(0), 1.0)], []).is_ok());
    }

    #[test]
    fn churn_then_release_leaves_no_leak() {
        let g = net();
        let mut ledger = CommitLedger::new(&g);
        let lease = ledger.commit([], [(LinkId(0), 1.5)]).unwrap();
        ledger
            .apply_fault(&FaultEvent::LinkCapacity {
                link: LinkId(0),
                factor: 0.5,
            })
            .unwrap();
        // Outstanding load still reports the committed 1.5.
        assert!((ledger.outstanding_load() - 1.5).abs() < 1e-12);
        ledger.release(lease).unwrap();
        assert!(ledger.outstanding_load().abs() < 1e-12);
    }
}
