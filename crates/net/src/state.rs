//! Residual-capacity view of a [`Network`].
//!
//! Embedding algorithms tentatively reserve VNF processing capacity and
//! link bandwidth while they build one embedding, and the serving
//! ledger reserves whole load sets across requests. `NetworkState`
//! keeps the *remaining* capacity of every VNF instance and link. Every
//! reservation is checked in full before it changes anything — a single
//! resource, a path ([`NetworkState::reserve_path`]) or a ledger's load
//! set ([`CommitLedger::commit`](crate::CommitLedger::commit)) — so a
//! refused one leaves the state bit-identical, and the state keeps no
//! log of what it did.

use crate::error::{NetError, NetResult};
use crate::fault::FaultEvent;
use crate::graph::Network;
use crate::ids::{LinkId, NodeId, VnfTypeId};
use crate::path::Path;

/// Tolerance used for all capacity comparisons.
pub const CAP_EPS: f64 = 1e-9;

/// Mutable residual capacities layered over an immutable [`Network`],
/// plus a fault overlay (down flags and effective capacities) applied
/// through [`Self::apply_fault`].
#[derive(Debug, Clone)]
pub struct NetworkState<'a> {
    net: &'a Network,
    /// Remaining capacity per VNF instance, indexed by flat slot id.
    /// May transiently go negative after a downward capacity churn
    /// (overcommitted); recovers as leases release.
    vnf_remaining: Vec<f64>,
    /// First slot id of each node's instances.
    node_slot_base: Vec<usize>,
    /// Remaining bandwidth per link (may go negative under churn).
    link_remaining: Vec<f64>,
    /// Effective capacity per VNF instance (base capacity until churned).
    vnf_eff: Vec<f64>,
    /// Effective bandwidth per link (base capacity until churned).
    link_eff: Vec<f64>,
    /// Links currently out of service.
    link_down: Vec<bool>,
    /// Nodes currently out of service (implies incident links down).
    node_down: Vec<bool>,
}

impl<'a> NetworkState<'a> {
    /// Creates a fresh state with all capacities at their maxima.
    pub fn new(net: &'a Network) -> Self {
        let mut node_slot_base = Vec::with_capacity(net.node_count() + 1);
        let mut vnf_remaining = Vec::new();
        let mut base = 0usize;
        for n in net.node_ids() {
            node_slot_base.push(base);
            for inst in net.node(n).instances() {
                vnf_remaining.push(inst.capacity);
            }
            base += net.node(n).instances().len();
        }
        node_slot_base.push(base);
        let link_remaining: Vec<f64> = net.link_ids().map(|l| net.link(l).capacity).collect();
        let vnf_eff = vnf_remaining.clone();
        let link_eff = link_remaining.clone();
        NetworkState {
            net,
            vnf_remaining,
            node_slot_base,
            link_remaining,
            vnf_eff,
            link_eff,
            link_down: vec![false; net.link_count()],
            node_down: vec![false; net.node_count()],
        }
    }

    /// The underlying immutable network.
    #[inline]
    pub fn network(&self) -> &'a Network {
        self.net
    }

    fn slot(&self, node: NodeId, vnf: VnfTypeId) -> NetResult<usize> {
        let instances = self.net.try_node(node)?.instances();
        let idx = instances
            .binary_search_by_key(&vnf, |i| i.vnf)
            .map_err(|_| NetError::VnfNotDeployed { node, vnf })?;
        Ok(self.node_slot_base[node.index()] + idx)
    }

    /// Remaining processing capability of `vnf` on `node`.
    pub fn vnf_remaining(&self, node: NodeId, vnf: VnfTypeId) -> NetResult<f64> {
        Ok(self.vnf_remaining[self.slot(node, vnf)?])
    }

    /// Remaining bandwidth of `link`.
    pub fn link_remaining(&self, link: LinkId) -> NetResult<f64> {
        self.link_remaining
            .get(link.index())
            .copied()
            .ok_or(NetError::UnknownLink(link))
    }

    /// Whether `node` is currently in service.
    #[inline]
    pub fn node_available(&self, node: NodeId) -> bool {
        !self.node_down.get(node.index()).copied().unwrap_or(true)
    }

    /// Whether `link` is currently in service (the link itself up and
    /// both endpoints up).
    #[inline]
    pub fn link_available(&self, link: LinkId) -> bool {
        if self.link_down.get(link.index()).copied().unwrap_or(true) {
            return false;
        }
        let l = self.net.link(link);
        self.node_available(l.a) && self.node_available(l.b)
    }

    /// Whether `vnf` on `node` can absorb `rate` more traffic.
    pub fn vnf_fits(&self, node: NodeId, vnf: VnfTypeId, rate: f64) -> bool {
        self.node_available(node)
            && self
                .slot(node, vnf)
                .map(|s| self.vnf_remaining[s] + CAP_EPS >= rate)
                .unwrap_or(false)
    }

    /// Whether `link` can absorb `rate` more traffic.
    pub fn link_fits(&self, link: LinkId, rate: f64) -> bool {
        link.index() < self.link_remaining.len()
            && self.link_available(link)
            && self.link_remaining[link.index()] + CAP_EPS >= rate
    }

    /// The slot of `vnf@node` when it can absorb `rate` more traffic,
    /// else the error a reservation of it returns.
    fn check_vnf(&self, node: NodeId, vnf: VnfTypeId, rate: f64) -> NetResult<usize> {
        let slot = self.slot(node, vnf)?;
        if !self.node_available(node) {
            return Err(NetError::NodeUnavailable(node));
        }
        let avail = self.vnf_remaining[slot];
        if avail + CAP_EPS < rate {
            return Err(NetError::InsufficientVnfCapacity {
                node,
                vnf,
                requested: rate,
                available: avail,
            });
        }
        Ok(slot)
    }

    /// Whether `link` can absorb `rate` more traffic, as the error a
    /// reservation of it returns.
    fn check_link(&self, link: LinkId, rate: f64) -> NetResult<()> {
        let avail = self.link_remaining(link)?;
        if !self.link_available(link) {
            return Err(NetError::LinkUnavailable(link));
        }
        if avail + CAP_EPS < rate {
            return Err(NetError::InsufficientBandwidth {
                link,
                requested: rate,
                available: avail,
            });
        }
        Ok(())
    }

    /// Reserves `rate` units of processing on `vnf@node`.
    pub fn reserve_vnf(&mut self, node: NodeId, vnf: VnfTypeId, rate: f64) -> NetResult<()> {
        let slot = self.check_vnf(node, vnf, rate)?;
        self.vnf_remaining[slot] -= rate;
        Ok(())
    }

    /// Reserves `rate` units of bandwidth on `link`.
    pub fn reserve_link(&mut self, link: LinkId, rate: f64) -> NetResult<()> {
        self.check_link(link, rate)?;
        self.link_remaining[link.index()] -= rate;
        Ok(())
    }

    /// Reserves `rate` on every link of `path`, or nothing: each link is
    /// checked for `rate` times the number of times the path crosses it
    /// before any is reserved, so a refused path leaves the state
    /// unchanged.
    pub fn reserve_path(&mut self, path: &Path, rate: f64) -> NetResult<()> {
        let links = path.links();
        for (i, &link) in links.iter().enumerate() {
            if !links[..i].contains(&link) {
                let crossings = links[i..].iter().filter(|&&l| l == link).count();
                self.check_link(link, rate * crossings as f64)?;
            }
        }
        for &link in links {
            self.link_remaining[link.index()] -= rate;
        }
        Ok(())
    }

    /// Reserves a whole load set — `(node, kind, rate)` processing and
    /// `(link, rate)` bandwidth — or nothing: each resource is checked
    /// for the sum of the loads the set puts on it before any load is
    /// reserved, so a refused set leaves the state bit-identical.
    pub(crate) fn reserve_loads(
        &mut self,
        vnf: &[(NodeId, VnfTypeId, f64)],
        links: &[(LinkId, f64)],
    ) -> NetResult<()> {
        let mut slots = Vec::with_capacity(vnf.len());
        for (i, &(node, kind, _)) in vnf.iter().enumerate() {
            let slot = self.slot(node, kind)?;
            if !slots.contains(&slot) {
                let same = vnf[i..].iter().filter(|e| (e.0, e.1) == (node, kind));
                self.check_vnf(node, kind, same.map(|e| e.2).sum())?;
            }
            slots.push(slot);
        }
        for (i, &(link, _)) in links.iter().enumerate() {
            if !links[..i].iter().any(|e| e.0 == link) {
                let total = links[i..].iter().filter(|e| e.0 == link).map(|e| e.1).sum();
                self.check_link(link, total)?;
            }
        }
        for (&slot, &(_, _, rate)) in slots.iter().zip(vnf) {
            self.vnf_remaining[slot] -= rate;
        }
        for &(link, rate) in links {
            self.link_remaining[link.index()] -= rate;
        }
        Ok(())
    }

    /// Releases `rate` units of processing on `vnf@node` (the inverse of
    /// [`Self::reserve_vnf`], e.g. when an embedded request departs).
    ///
    /// Fails if the release would exceed the instance's total capacity —
    /// that always indicates a double-release bug in the caller.
    pub fn release_vnf(&mut self, node: NodeId, vnf: VnfTypeId, rate: f64) -> NetResult<()> {
        let slot = self.slot(node, vnf)?;
        // Compare against the *effective* capacity: the invariant
        // `remaining + total_reserved == effective` holds under churn, so
        // an over-release is still exactly a double-free.
        let capacity = self.vnf_eff[slot];
        if self.vnf_remaining[slot] + rate > capacity + CAP_EPS {
            return Err(NetError::InvalidParameter(
                "VNF release exceeds reserved amount",
            ));
        }
        self.vnf_remaining[slot] += rate;
        Ok(())
    }

    /// Releases `rate` units of bandwidth on `link` (the inverse of
    /// [`Self::reserve_link`]).
    pub fn release_link(&mut self, link: LinkId, rate: f64) -> NetResult<()> {
        self.net.try_link(link)?;
        let capacity = self.link_eff[link.index()];
        let remaining = self.link_remaining[link.index()];
        if remaining + rate > capacity + CAP_EPS {
            return Err(NetError::InvalidParameter(
                "link release exceeds reserved amount",
            ));
        }
        self.link_remaining[link.index()] = remaining + rate;
        Ok(())
    }

    /// Materializes the residual capacities as a fresh immutable
    /// [`Network`] (same topology and prices, capacities = remaining).
    ///
    /// Online simulations embed each arriving request against this
    /// residual network, then commit the accepted embedding's loads back
    /// into the state.
    pub fn to_residual_network(&self) -> Network {
        self.net.map_capacities(
            |node, vnf, _| {
                if !self.node_available(node) {
                    return 0.0;
                }
                self.vnf_remaining(node, vnf)
                    // lint:allow(expect) — invariant: instance exists in source network
                    .expect("instance exists in source network")
                    .max(0.0)
            },
            |link, _| {
                if !self.link_available(link) {
                    return 0.0;
                }
                self.link_remaining(link)
                    // lint:allow(expect) — invariant: link exists in source network
                    .expect("link exists in source network")
                    .max(0.0)
            },
        )
    }

    /// Applies one substrate [`FaultEvent`]. Returns `true` when the
    /// state actually changed (e.g. `LinkDown` on an already-down link
    /// returns `false`).
    ///
    /// Down/up events toggle availability flags; capacity churn moves
    /// the effective capacity to `factor x` base and shifts the
    /// remaining capacity by the same delta, so outstanding
    /// reservations are preserved exactly (remaining may transiently go
    /// negative when shrinking below the committed load).
    pub fn apply_fault(&mut self, event: &FaultEvent) -> NetResult<bool> {
        match *event {
            FaultEvent::LinkDown { link } => {
                self.net.try_link(link)?;
                Ok(!std::mem::replace(&mut self.link_down[link.index()], true))
            }
            FaultEvent::LinkUp { link } => {
                self.net.try_link(link)?;
                Ok(std::mem::replace(&mut self.link_down[link.index()], false))
            }
            FaultEvent::NodeDown { node } => {
                self.net.try_node(node)?;
                Ok(!std::mem::replace(&mut self.node_down[node.index()], true))
            }
            FaultEvent::NodeUp { node } => {
                self.net.try_node(node)?;
                Ok(std::mem::replace(&mut self.node_down[node.index()], false))
            }
            FaultEvent::LinkCapacity { link, factor } => {
                if !(factor.is_finite() && factor >= 0.0) {
                    return Err(NetError::InvalidParameter(
                        "capacity factor must be finite and non-negative",
                    ));
                }
                let base = self.net.try_link(link)?.capacity;
                let new_eff = base * factor;
                let delta = new_eff - self.link_eff[link.index()];
                if delta == 0.0 {
                    return Ok(false);
                }
                self.link_eff[link.index()] = new_eff;
                self.link_remaining[link.index()] += delta;
                Ok(true)
            }
            FaultEvent::VnfCapacity { node, vnf, factor } => {
                if !(factor.is_finite() && factor >= 0.0) {
                    return Err(NetError::InvalidParameter(
                        "capacity factor must be finite and non-negative",
                    ));
                }
                let slot = self.slot(node, vnf)?;
                let base = self
                    .net
                    .instance(node, vnf)
                    // lint:allow(expect) — invariant: slot implies instance
                    .expect("slot implies instance")
                    .capacity;
                let new_eff = base * factor;
                let delta = new_eff - self.vnf_eff[slot];
                if delta == 0.0 {
                    return Ok(false);
                }
                self.vnf_eff[slot] = new_eff;
                self.vnf_remaining[slot] += delta;
                Ok(true)
            }
        }
    }

    /// Effective bandwidth of `link` (base capacity after any churn).
    pub fn effective_link_capacity(&self, link: LinkId) -> NetResult<f64> {
        self.net.try_link(link)?;
        Ok(self.link_eff[link.index()])
    }

    /// Effective capacity of `vnf@node` (base capacity after any churn).
    pub fn effective_vnf_capacity(&self, node: NodeId, vnf: VnfTypeId) -> NetResult<f64> {
        Ok(self.vnf_eff[self.slot(node, vnf)?])
    }

    /// Number of links currently out of service (directly or via a down
    /// endpoint).
    pub fn links_down(&self) -> usize {
        self.net
            .link_ids()
            .filter(|&l| !self.link_available(l))
            .count()
    }

    /// Total reserved bandwidth across all links (diagnostics).
    ///
    /// Load is measured against the *effective* capacity so the figure
    /// tracks actual reservations, not churn deltas.
    pub fn total_link_load(&self) -> f64 {
        self.net
            .link_ids()
            .map(|l| self.link_eff[l.index()] - self.link_remaining[l.index()])
            .sum()
    }

    /// Total reserved VNF processing across all instances (diagnostics).
    pub fn total_vnf_load(&self) -> f64 {
        self.vnf_eff
            .iter()
            .zip(&self.vnf_remaining)
            .map(|(eff, rem)| eff - rem)
            .sum()
    }

    /// Reserved load per region: each link's load goes to region
    /// `link_region(link)`, each VNF instance's to `node_region(node)`,
    /// and a region's figure is its link sum plus its VNF sum, both in
    /// id order — with one region, exactly `total_link_load() +
    /// total_vnf_load()`.
    pub fn load_by_region(
        &self,
        regions: usize,
        node_region: impl Fn(NodeId) -> usize,
        link_region: impl Fn(LinkId) -> usize,
    ) -> Vec<f64> {
        let mut links = vec![0.0; regions];
        for l in self.net.link_ids() {
            links[link_region(l)] += self.link_eff[l.index()] - self.link_remaining[l.index()];
        }
        let mut vnfs = vec![0.0; regions];
        for n in self.net.node_ids() {
            for slot in self.node_slot_base[n.index()]..self.node_slot_base[n.index() + 1] {
                vnfs[node_region(n)] += self.vnf_eff[slot] - self.vnf_remaining[slot];
            }
        }
        links.iter().zip(&vnfs).map(|(l, v)| l + v).collect()
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
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 3.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(1), 1.0, 3.0).unwrap();
        g
    }

    #[test]
    fn fresh_state_has_full_capacity() {
        let g = net();
        let s = NetworkState::new(&g);
        assert_eq!(s.vnf_remaining(NodeId(0), VnfTypeId(0)).unwrap(), 3.0);
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 2.0);
        assert_eq!(s.total_link_load(), 0.0);
        assert_eq!(s.total_vnf_load(), 0.0);
    }

    #[test]
    fn reserve_and_exhaust_vnf() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_vnf(NodeId(1), VnfTypeId(1), 2.0).unwrap();
        assert_eq!(s.vnf_remaining(NodeId(1), VnfTypeId(1)).unwrap(), 1.0);
        assert!(s.vnf_fits(NodeId(1), VnfTypeId(1), 1.0));
        assert!(!s.vnf_fits(NodeId(1), VnfTypeId(1), 1.5));
        assert!(s.reserve_vnf(NodeId(1), VnfTypeId(1), 1.5).is_err());
        // failed reservation must not change state
        assert_eq!(s.vnf_remaining(NodeId(1), VnfTypeId(1)).unwrap(), 1.0);
    }

    #[test]
    fn reserve_missing_vnf_fails() {
        let g = net();
        let mut s = NetworkState::new(&g);
        assert!(matches!(
            s.reserve_vnf(NodeId(2), VnfTypeId(0), 1.0),
            Err(NetError::VnfNotDeployed { .. })
        ));
        assert!(!s.vnf_fits(NodeId(2), VnfTypeId(0), 1.0));
    }

    #[test]
    fn reserve_and_exhaust_link() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_link(LinkId(0), 2.0).unwrap();
        assert!(!s.link_fits(LinkId(0), 0.1));
        assert!(s.reserve_link(LinkId(0), 0.1).is_err());
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 0.0);
    }

    #[test]
    fn reserve_path_is_atomic() {
        let g = net();
        let mut s = NetworkState::new(&g);
        // Drain the second link so the path reservation must fail midway.
        s.reserve_link(LinkId(1), 2.0).unwrap();
        let before = s.link_remaining(LinkId(0)).unwrap();
        let p = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert!(s.reserve_path(&p, 1.0).is_err());
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), before);
    }

    #[test]
    fn reserve_path_checks_a_link_it_crosses_twice_for_both_crossings() {
        let g = net();
        let mut s = NetworkState::new(&g);
        // 0-1-0 crosses link 0 twice: 1.5 fits once, not twice.
        let there_and_back = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(0)]).unwrap();
        assert!(matches!(
            s.reserve_path(&there_and_back, 1.5),
            Err(NetError::InsufficientBandwidth { requested, .. }) if requested == 3.0
        ));
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 2.0);
        s.reserve_path(&there_and_back, 1.0).unwrap();
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 0.0);
    }

    #[test]
    fn reserve_loads_sums_a_resource_named_twice_and_refuses_whole() {
        let g = net();
        let mut s = NetworkState::new(&g);
        let v = (NodeId(1), VnfTypeId(0));
        // Each load fits alone; the two on one instance do not.
        let err = s
            .reserve_loads(&[(v.0, v.1, 2.0), (v.0, v.1, 2.0)], &[(LinkId(0), 1.0)])
            .unwrap_err();
        assert!(
            matches!(err, NetError::InsufficientVnfCapacity { requested, .. } if requested == 4.0)
        );
        assert_eq!(s.vnf_remaining(v.0, v.1).unwrap(), 3.0);
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 2.0);
        let err = s
            .reserve_loads(&[(v.0, v.1, 1.0)], &[(LinkId(0), 1.5), (LinkId(0), 1.5)])
            .unwrap_err();
        assert!(
            matches!(err, NetError::InsufficientBandwidth { requested, .. } if requested == 3.0)
        );
        assert_eq!(s.vnf_remaining(v.0, v.1).unwrap(), 3.0);
        s.reserve_loads(
            &[(v.0, v.1, 1.0), (v.0, v.1, 2.0)],
            &[(LinkId(0), 1.0), (LinkId(0), 1.0)],
        )
        .unwrap();
        assert_eq!(s.vnf_remaining(v.0, v.1).unwrap(), 0.0);
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 0.0);
    }

    #[test]
    fn reserve_path_success() {
        let g = net();
        let mut s = NetworkState::new(&g);
        let p = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        s.reserve_path(&p, 1.5).unwrap();
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 0.5);
        assert_eq!(s.link_remaining(LinkId(1)).unwrap(), 0.5);
        assert!((s.total_link_load() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn release_restores_capacity() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_vnf(NodeId(0), VnfTypeId(0), 2.0).unwrap();
        s.reserve_link(LinkId(0), 1.5).unwrap();
        s.release_vnf(NodeId(0), VnfTypeId(0), 2.0).unwrap();
        s.release_link(LinkId(0), 1.5).unwrap();
        assert_eq!(s.vnf_remaining(NodeId(0), VnfTypeId(0)).unwrap(), 3.0);
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 2.0);
    }

    #[test]
    fn double_release_rejected() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_vnf(NodeId(0), VnfTypeId(0), 1.0).unwrap();
        s.release_vnf(NodeId(0), VnfTypeId(0), 1.0).unwrap();
        assert!(s.release_vnf(NodeId(0), VnfTypeId(0), 0.5).is_err());
        assert!(s.release_link(LinkId(0), 0.1).is_err());
    }

    #[test]
    fn residual_network_reflects_reservations() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_vnf(NodeId(0), VnfTypeId(0), 1.0).unwrap();
        s.reserve_link(LinkId(1), 0.5).unwrap();
        let reduced = s.to_residual_network();
        assert_eq!(
            reduced.instance(NodeId(0), VnfTypeId(0)).unwrap().capacity,
            2.0
        );
        assert_eq!(reduced.link(LinkId(1)).capacity, 1.5);
        // Untouched resources keep full capacity; prices unchanged.
        assert_eq!(reduced.link(LinkId(0)).capacity, 2.0);
        assert_eq!(reduced.link(LinkId(0)).price, g.link(LinkId(0)).price);
        assert_eq!(reduced.node_count(), g.node_count());
    }

    #[test]
    fn trivial_path_reservation_is_noop() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_path(&Path::trivial(NodeId(0)), 5.0).unwrap();
        assert_eq!(s.total_link_load(), 0.0);
    }

    #[test]
    fn link_down_blocks_reservation_until_recovery() {
        let g = net();
        let mut s = NetworkState::new(&g);
        assert!(s
            .apply_fault(&FaultEvent::LinkDown { link: LinkId(0) })
            .unwrap());
        // Idempotent: second down is a no-op.
        assert!(!s
            .apply_fault(&FaultEvent::LinkDown { link: LinkId(0) })
            .unwrap());
        assert!(!s.link_available(LinkId(0)));
        assert!(!s.link_fits(LinkId(0), 0.1));
        assert_eq!(
            s.reserve_link(LinkId(0), 0.1),
            Err(NetError::LinkUnavailable(LinkId(0)))
        );
        assert_eq!(s.links_down(), 1);
        assert!(s
            .apply_fault(&FaultEvent::LinkUp { link: LinkId(0) })
            .unwrap());
        assert!(s.reserve_link(LinkId(0), 0.1).is_ok());
    }

    #[test]
    fn node_down_blocks_vnf_and_incident_links() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.apply_fault(&FaultEvent::NodeDown { node: NodeId(1) })
            .unwrap();
        assert!(!s.vnf_fits(NodeId(1), VnfTypeId(0), 0.1));
        assert_eq!(
            s.reserve_vnf(NodeId(1), VnfTypeId(0), 0.1),
            Err(NetError::NodeUnavailable(NodeId(1)))
        );
        // Both links touch node 1, so both become unroutable.
        assert_eq!(s.links_down(), 2);
        assert!(s.reserve_link(LinkId(0), 0.1).is_err());
        s.apply_fault(&FaultEvent::NodeUp { node: NodeId(1) })
            .unwrap();
        assert_eq!(s.links_down(), 0);
        assert!(s.reserve_vnf(NodeId(1), VnfTypeId(0), 0.1).is_ok());
    }

    #[test]
    fn release_still_works_while_resource_is_down() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_link(LinkId(0), 1.5).unwrap();
        s.reserve_vnf(NodeId(0), VnfTypeId(0), 2.0).unwrap();
        s.apply_fault(&FaultEvent::LinkDown { link: LinkId(0) })
            .unwrap();
        s.apply_fault(&FaultEvent::NodeDown { node: NodeId(0) })
            .unwrap();
        // Departing requests must still credit their capacity back.
        s.release_link(LinkId(0), 1.5).unwrap();
        s.release_vnf(NodeId(0), VnfTypeId(0), 2.0).unwrap();
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 2.0);
        assert_eq!(s.total_link_load(), 0.0);
        assert_eq!(s.total_vnf_load(), 0.0);
    }

    #[test]
    fn capacity_churn_preserves_reservations() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_link(LinkId(0), 1.5).unwrap();
        // Shrink to half capacity: 2.0 -> 1.0 effective, remaining 0.5 -> -0.5.
        s.apply_fault(&FaultEvent::LinkCapacity {
            link: LinkId(0),
            factor: 0.5,
        })
        .unwrap();
        assert_eq!(s.effective_link_capacity(LinkId(0)).unwrap(), 1.0);
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), -0.5);
        assert!(!s.link_fits(LinkId(0), 0.1));
        // Load accounting still reports the 1.5 actually reserved.
        assert!((s.total_link_load() - 1.5).abs() < 1e-12);
        // The overcommitted release is legal and restores balance.
        s.release_link(LinkId(0), 1.5).unwrap();
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 1.0);
        assert_eq!(s.total_link_load(), 0.0);
        // Restoring factor 1.0 returns to base capacity.
        s.apply_fault(&FaultEvent::LinkCapacity {
            link: LinkId(0),
            factor: 1.0,
        })
        .unwrap();
        assert_eq!(s.link_remaining(LinkId(0)).unwrap(), 2.0);
    }

    #[test]
    fn vnf_capacity_churn_and_release_check_use_effective() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_vnf(NodeId(0), VnfTypeId(0), 1.0).unwrap();
        // Grow 3.0 -> 4.5; the release check must allow exactly the 1.0
        // reserved and reject anything beyond.
        s.apply_fault(&FaultEvent::VnfCapacity {
            node: NodeId(0),
            vnf: VnfTypeId(0),
            factor: 1.5,
        })
        .unwrap();
        assert_eq!(
            s.effective_vnf_capacity(NodeId(0), VnfTypeId(0)).unwrap(),
            4.5
        );
        assert_eq!(s.vnf_remaining(NodeId(0), VnfTypeId(0)).unwrap(), 3.5);
        assert!(s.release_vnf(NodeId(0), VnfTypeId(0), 1.5).is_err());
        s.release_vnf(NodeId(0), VnfTypeId(0), 1.0).unwrap();
        assert!((s.total_vnf_load()).abs() < 1e-12);
    }

    #[test]
    fn invalid_fault_targets_and_factors_rejected() {
        let g = net();
        let mut s = NetworkState::new(&g);
        assert!(s
            .apply_fault(&FaultEvent::LinkDown { link: LinkId(99) })
            .is_err());
        assert!(s
            .apply_fault(&FaultEvent::NodeUp { node: NodeId(99) })
            .is_err());
        assert!(s
            .apply_fault(&FaultEvent::LinkCapacity {
                link: LinkId(0),
                factor: f64::NAN,
            })
            .is_err());
        assert!(s
            .apply_fault(&FaultEvent::VnfCapacity {
                node: NodeId(0),
                vnf: VnfTypeId(0),
                factor: -1.0,
            })
            .is_err());
    }

    #[test]
    fn residual_network_zeroes_down_resources() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.apply_fault(&FaultEvent::NodeDown { node: NodeId(0) })
            .unwrap();
        s.apply_fault(&FaultEvent::LinkCapacity {
            link: LinkId(1),
            factor: 0.25,
        })
        .unwrap();
        let r = s.to_residual_network();
        // Down node: its instance and incident link read as empty.
        assert_eq!(r.instance(NodeId(0), VnfTypeId(0)).unwrap().capacity, 0.0);
        assert_eq!(r.link(LinkId(0)).capacity, 0.0);
        // Churned link reflects the shrunken effective capacity.
        assert_eq!(r.link(LinkId(1)).capacity, 0.5);
        // Recovery restores the full residual view.
        s.apply_fault(&FaultEvent::NodeUp { node: NodeId(0) })
            .unwrap();
        let r2 = s.to_residual_network();
        assert_eq!(r2.link(LinkId(0)).capacity, 2.0);
    }

    #[test]
    fn load_by_region_splits_loads_by_owner() {
        let g = net();
        let mut s = NetworkState::new(&g);
        s.reserve_vnf(NodeId(0), VnfTypeId(0), 0.5).unwrap();
        s.reserve_vnf(NodeId(1), VnfTypeId(1), 0.25).unwrap();
        s.reserve_link(LinkId(0), 0.125).unwrap();
        s.reserve_link(LinkId(1), 1.5).unwrap();
        // Node 0 and link 0 in region 0; node 1, node 2 and link 1 in
        // region 1.
        let split = s.load_by_region(2, |n| usize::from(n != NodeId(0)), |l| l.index());
        assert_eq!(split, vec![0.125 + 0.5, 1.5 + 0.25]);
        let whole = s.load_by_region(1, |_| 0, |_| 0);
        let total = s.total_link_load() + s.total_vnf_load();
        assert_eq!(whole[0].to_bits(), total.to_bits());
    }
}
