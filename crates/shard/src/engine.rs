//! The sharded serving engine: one [`CommitLedger`] over the whole
//! substrate behind a gateway API of region shards, stitched
//! cross-shard solves, and an audit that every embedding must clear
//! before its lease is honoured.
//!
//! ## How a request is served
//!
//! 1. The [`ShardRouter`] assigns a **home shard** (pure function of
//!    the flow — see `router.rs`).
//! 2. The engine refreshes the **stitched view**: a residual network in
//!    which only the home shard's resources, the destination shard's
//!    resources, the direct home↔destination boundary links, and the
//!    precomputed gateway **corridor** between the two shards carry
//!    capacity; everything else is zeroed. For an intra-shard request
//!    the view exposes the home shard alone. Residual capacities are
//!    read from the one ledger, so the view is exact.
//!    Each view is one long-lived `Network`: a refresh rewrites only the
//!    capacities that ledger mutations touched since the view was last
//!    current (see [`ShardedEngine`]).
//! 3. [`embed_and_commit`] solves over the view, accounts the embedding
//!    and commits its loads to the ledger, which checks the whole load
//!    set before it reserves any of it: a refused commit changes
//!    nothing. The chain segments land in the exposed shards, and the
//!    tail path can only reach the destination through the corridor the
//!    inter-gateway table priced.
//! 4. The committed embedding is audited against the **unpartitioned**
//!    residual substrate plus the stitching scope; a violation releases
//!    the lease again and rejects the request.
//!
//! With one shard the view is the full residual, the corridor set is
//! empty, and every step above is the solve → commit → audit that
//! `dagsfc_sim::run_trace` runs per arrival. The crate's 1-shard tests
//! and the serve crate's replays of every committed trace pin that
//! equivalence bit for bit.

use crate::plan::{GatewayTable, ShardPlan};
use crate::router::ShardRouter;
use dagsfc_audit::{stitched_scope_violations, ConstraintAuditor};
use dagsfc_core::{CostBreakdown, DagSfc, Flow};
use dagsfc_net::{
    CommitLedger, FaultEvent, LeaseId, LinkId, NetError, NetResult, Network, NodeId, VnfTypeId,
};
use dagsfc_sim::{embed_and_commit, Algo, EmbedRejection};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle for one lease of the engine: the ledger's [`LeaseId`] plus
/// one, so the handles clients see count from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StitchId(pub u64);

impl StitchId {
    /// The ledger lease this handle names (`None` for handle 0, which
    /// the engine never issues).
    fn lease(self) -> Option<LeaseId> {
        self.0.checked_sub(1).map(LeaseId)
    }
}

impl From<LeaseId> for StitchId {
    fn from(lease: LeaseId) -> Self {
        StitchId(lease.0 + 1)
    }
}

impl std::fmt::Display for StitchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stitch#{}", self.0)
    }
}

/// An accepted embed, as the sharded engine reports it.
#[derive(Debug, Clone, Copy)]
pub struct Accepted {
    /// Handle the client releases on departure.
    pub lease: StitchId,
    /// Objective cost of the stitched embedding.
    pub cost: CostBreakdown,
}

/// Which resources a stitched view exposes.
struct Exposure<'t> {
    home: usize,
    dst: usize,
    /// Links of the precomputed corridor between `home` and `dst`,
    /// ascending (empty for intra-shard views).
    corridor: &'t [LinkId],
}

impl<'t> Exposure<'t> {
    fn new(table: &'t GatewayTable, home: usize, dst: usize) -> Self {
        Exposure {
            home,
            dst,
            corridor: table.corridor_links(home, dst),
        }
    }

    fn node_in_scope(&self, plan: &ShardPlan, node: NodeId) -> bool {
        let s = plan.shard_of(node);
        s == self.home || s == self.dst
    }

    fn link_in_scope(&self, plan: &ShardPlan, net: &Network, link: LinkId) -> bool {
        let l = net.link(link);
        let sa = plan.shard_of(l.a);
        let sb = plan.shard_of(l.b);
        let both_home = sa == self.home && sb == self.home;
        let both_dst = sa == self.dst && sb == self.dst;
        let spans = (sa == self.home && sb == self.dst) || (sa == self.dst && sb == self.home);
        both_home || both_dst || spans || self.corridor.binary_search(&link).is_ok()
    }

    fn exposes(&self, plan: &ShardPlan, net: &Network, res: Resource) -> bool {
        match res {
            Resource::Vnf(node, _) => self.node_in_scope(plan, node),
            Resource::Link(link) => self.link_in_scope(plan, net, link),
        }
    }
}

/// One resource whose residual capacity a view exposes.
#[derive(Debug, Clone, Copy)]
enum Resource {
    Vnf(NodeId, VnfTypeId),
    Link(LinkId),
}

/// The ledger's capacity for `res`: zero while the resource is out of
/// service, else its remaining capacity floored at zero.
fn residual_capacity(ledger: &CommitLedger<'_>, res: Resource) -> f64 {
    let state = ledger.state();
    match res {
        Resource::Vnf(node, kind) => {
            if !state.node_available(node) {
                return 0.0;
            }
            state
                .vnf_remaining(node, kind)
                // lint:allow(expect) — invariant: instance exists in source network
                .expect("instance exists in source network")
                .max(0.0)
        }
        Resource::Link(link) => {
            if !state.link_available(link) {
                return 0.0;
            }
            state
                .link_remaining(link)
                // lint:allow(expect) — invariant: link exists in source network
                .expect("link exists in source network")
                .max(0.0)
        }
    }
}

/// The fallback refresh: a fresh copy of `net` in which a view with
/// `exposure` (`None` exposes every shard) shows zero for a resource
/// outside the exposure and its [`residual_capacity`] for the others.
/// An in-place patch applies the same rule to the changed resources it
/// exposes, so a patched view is bit-identical to a rebuilt one.
fn rebuild_view(
    net: &Network,
    plan: &ShardPlan,
    ledger: &CommitLedger<'_>,
    exposure: Option<&Exposure>,
) -> Network {
    let capacity = |res| {
        if exposure.is_some_and(|e| !e.exposes(plan, net, res)) {
            0.0
        } else {
            residual_capacity(ledger, res)
        }
    };
    net.map_capacities(
        |node, kind, _| capacity(Resource::Vnf(node, kind)),
        |link, _| capacity(Resource::Link(link)),
    )
}

/// Whether two views of one network carry bit-identical capacities, in
/// the links, the VNF instances and `patched`'s CSR snapshot (built
/// first if it has none), whose arcs are checked against the rebuilt
/// links.
fn same_capacities(patched: &Network, rebuilt: &Network) -> bool {
    let links = patched
        .link_ids()
        .all(|l| patched.link(l).capacity.to_bits() == rebuilt.link(l).capacity.to_bits());
    let vnfs = patched.node_ids().all(|v| {
        let (a, b) = (patched.node(v).instances(), rebuilt.node(v).instances());
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.capacity.to_bits() == y.capacity.to_bits())
    });
    let snap = patched.snapshot();
    let arcs = (0..snap.arc_count()).all(|i| {
        snap.arc_capacity(i).to_bits() == rebuilt.link(snap.arc_link(i)).capacity.to_bits()
    });
    links && vnfs && arcs
}

/// Most ledger changes a cached view may lag behind and still be
/// patched in place; a view further behind is rebuilt. It also bounds
/// the [`ChangeLog`]'s memory.
const MAX_PENDING_CHANGES: usize = 1024;

/// The resources ledger mutations touched, oldest first: a ring of the
/// last [`MAX_PENDING_CHANGES`] entries. Entry `k` has sequence number
/// `first + k`; a view remembers the sequence number it is current
/// through and replays the entries after it.
#[derive(Default)]
struct ChangeLog {
    entries: VecDeque<Resource>,
    first: u64,
}

impl ChangeLog {
    /// The sequence number the next entry will take.
    fn end(&self) -> u64 {
        self.first + self.entries.len() as u64
    }

    fn push(&mut self, res: Resource) {
        if self.entries.len() == MAX_PENDING_CHANGES {
            self.entries.pop_front();
            self.first += 1;
        }
        self.entries.push_back(res);
    }

    /// Marks every resource of a load set.
    fn mark(&mut self, vnf: &[(NodeId, VnfTypeId, f64)], links: &[(LinkId, f64)]) {
        for &(node, kind, _) in vnf {
            self.push(Resource::Vnf(node, kind));
        }
        for &(link, _) in links {
            self.push(Resource::Link(link));
        }
    }

    /// The changes after sequence number `synced`, or `None` once the
    /// ring has dropped some of them.
    fn since(&self, synced: u64) -> Option<impl Iterator<Item = Resource> + '_> {
        let skip = synced.checked_sub(self.first)? as usize;
        Some(self.entries.range(skip..).copied())
    }
}

struct CachedView {
    /// The ledger's epoch when the view was last refreshed.
    epoch: u64,
    /// The [`ChangeLog`] sequence number this view is current through.
    synced: u64,
    net: Arc<Network>,
}

#[derive(Debug, Default, Clone, Copy)]
struct LatencyAcc {
    solves: u64,
    total: Duration,
}

/// Per-shard load figures for the stats report.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: u64,
    /// Committed-but-unreleased load on the resources this shard owns
    /// (its nodes' VNF instances and the links it owns).
    pub outstanding_load: f64,
    /// Fault events that changed the state of a resource this shard
    /// owns.
    pub faults_applied: u64,
    /// Gateway nodes of this shard.
    pub gateways: u64,
}

/// Aggregate counters of a [`ShardedEngine`] (the serve layer maps
/// these into its wire-level `StatsReport`).
#[derive(Debug, Clone, Default)]
pub struct ShardedStats {
    /// Requests embedded and committed.
    pub accepted: u64,
    /// Requests the engine turned away (a daemon adds the ones its
    /// front end refused before they reached the engine).
    pub rejected: u64,
    /// Of `rejected`: proven deadline-infeasible.
    pub rejected_deadline: u64,
    /// Of `rejected`: placement rules (affinity/anti-affinity) infeasible.
    pub rejected_rule: u64,
    /// Of `rejected`: capacity/topology infeasibility.
    pub rejected_capacity: u64,
    /// Sum of accepted stitched costs.
    pub total_cost: f64,
    /// Leases currently outstanding.
    pub active_leases: u64,
    /// Leases released over the engine's lifetime (audit rollbacks and
    /// reclaims included).
    pub released: u64,
    /// The ledger's change epoch (moves on every commit, release and
    /// state-changing fault).
    pub epoch: u64,
    /// Committed-but-unreleased load across the substrate.
    pub outstanding_load: f64,
    /// Path-cache hits summed over accepted solves.
    pub solver_cache_hits: u64,
    /// Path-cache misses summed over accepted solves.
    pub solver_cache_misses: u64,
    /// Commits re-checked by the constraint auditor (every one).
    pub audits_run: u64,
    /// Audits that found a violation (rolled back) — must stay 0.
    pub audits_failed: u64,
    /// Fault events that changed the substrate state.
    pub faults_applied: u64,
    /// Leases reclaimed from vanished owners.
    pub orphans_reclaimed: u64,
    /// Requests whose source and destination shards differed.
    pub cross_shard_offered: u64,
    /// Cross-shard requests that committed.
    pub cross_shard_accepted: u64,
    /// Per-algorithm `(name, solves, total wall time)`.
    pub per_algo: Vec<(&'static str, u64, Duration)>,
    /// Per-shard load figures.
    pub per_shard: Vec<ShardLoad>,
}

/// One ledger over the substrate, region shards that route and stitch
/// over it, and the audit gate every commit passes (see the module
/// docs). This type is the **only** sanctioned path to the engine's
/// `CommitLedger` — the `shard-ledger` lint rule turns direct access
/// from outside `crates/shard` into a CI failure.
///
/// Residual views are long-lived. Every ledger change the engine makes
/// — a commit, a release — logs the resources it touches (a refused
/// commit touches none). A view refresh rewrites just those of them the
/// view exposes, in place ([`Network::set_link_capacity`] and
/// [`Network::set_vnf_capacity`]), so neither the network nor its CSR
/// snapshot is rebuilt; the others read zero in the view and stay so. A fault or an owner reclaim drops every view
/// instead. A view that a caller still holds, or that lags more than
/// `MAX_PENDING_CHANGES` changes behind, is rebuilt in full.
pub struct ShardedEngine<'n> {
    net: &'n Network,
    plan: ShardPlan,
    router: ShardRouter,
    table: GatewayTable,
    ledger: CommitLedger<'n>,
    auditor: ConstraintAuditor,
    /// View cache: `(home, dst)` → stitched view; `home == dst` is the
    /// local view; [`UNPARTITIONED`] is the all-shards residual, and the
    /// only entry a 1-shard engine uses.
    views: BTreeMap<(u32, u32), CachedView>,
    /// What the ledger changed, for the views to catch up on.
    changes: ChangeLog,
    /// State-changing faults per shard that owns their target.
    faults_applied: Vec<u64>,
    accepted: u64,
    rejected: u64,
    rejected_deadline: u64,
    rejected_rule: u64,
    rejected_capacity: u64,
    total_cost: f64,
    solver_cache_hits: u64,
    solver_cache_misses: u64,
    audits_run: u64,
    audits_failed: u64,
    cross_shard_offered: u64,
    cross_shard_accepted: u64,
    per_algo: BTreeMap<&'static str, LatencyAcc>,
}

/// Cache key of the unpartitioned (all-shards) residual view.
const UNPARTITIONED: (u32, u32) = (u32::MAX, u32::MAX);

impl<'n> ShardedEngine<'n> {
    /// A fresh engine over `net` partitioned into `plan`'s shards, with
    /// all capacities available. Builds the inter-gateway distance
    /// table eagerly (base-capacity pricing; see `plan.rs`).
    pub fn new(net: &'n Network, plan: ShardPlan, router: ShardRouter) -> Self {
        let table = GatewayTable::build(net, &plan);
        let faults_applied = vec![0; plan.shards()];
        ShardedEngine {
            net,
            plan,
            router,
            table,
            ledger: CommitLedger::new(net),
            auditor: ConstraintAuditor::new(),
            views: BTreeMap::new(),
            changes: ChangeLog::default(),
            faults_applied,
            accepted: 0,
            rejected: 0,
            rejected_deadline: 0,
            rejected_rule: 0,
            rejected_capacity: 0,
            total_cost: 0.0,
            solver_cache_hits: 0,
            solver_cache_misses: 0,
            audits_run: 0,
            audits_failed: 0,
            cross_shard_offered: 0,
            cross_shard_accepted: 0,
            per_algo: BTreeMap::new(),
        }
    }

    /// The base (full-capacity) network.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The partition plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The inter-gateway distance table.
    pub fn table(&self) -> &GatewayTable {
        &self.table
    }

    /// Read-only escape hatch to the ledger, for tests and diagnostics
    /// only — production code must go through the gateway API above,
    /// and the `shard-ledger` lint rule enforces exactly that outside
    /// `crates/shard`.
    #[doc(hidden)]
    pub fn raw_ledger(&self) -> &CommitLedger<'n> {
        &self.ledger
    }

    /// Refreshes (or builds) the residual view cached under `key`: the
    /// stitched view of a `(home, dst)` pair, or with [`UNPARTITIONED`]
    /// every shard — the unpartitioned residual the auditor checks
    /// against. A cached view the caller no longer shares is patched in
    /// place with the changes logged since it was current.
    fn view_for(&mut self, key: (u32, u32)) -> Arc<Network> {
        let ShardedEngine {
            net,
            plan,
            table,
            ledger,
            views,
            changes,
            ..
        } = self;
        let exposure =
            (key != UNPARTITIONED).then(|| Exposure::new(table, key.0 as usize, key.1 as usize));
        let exposure = exposure.as_ref();
        let (net, end, epoch) = (*net, changes.end(), ledger.epoch());
        if let Some(cached) = views.get_mut(&key) {
            // An epoch that moved with nothing logged is a missed mark,
            // which the cross-check below reports in debug builds.
            if cached.synced == end && cached.epoch == epoch {
                return Arc::clone(&cached.net);
            }
            if let (Some(pending), Some(view)) =
                (changes.since(cached.synced), Arc::get_mut(&mut cached.net))
            {
                // A resource outside the exposure shows zero and keeps
                // showing zero, so only exposed ones are rewritten.
                for res in pending {
                    if exposure.is_some_and(|e| !e.exposes(plan, net, res)) {
                        continue;
                    }
                    let cap = residual_capacity(ledger, res);
                    let written = match res {
                        Resource::Vnf(node, kind) => view.set_vnf_capacity(node, kind, cap),
                        Resource::Link(link) => view.set_link_capacity(link, cap),
                    };
                    // lint:allow(expect) — invariant: a logged resource exists and residual_capacity is finite and >= 0
                    written.expect("logged resource takes its view capacity");
                }
                cached.synced = end;
                cached.epoch = epoch;
                debug_assert!(
                    same_capacities(view, &rebuild_view(net, plan, ledger, exposure)),
                    "patched view {key:?} differs from its rebuild"
                );
                return Arc::clone(&cached.net);
            }
        }
        let built = Arc::new(rebuild_view(net, plan, ledger, exposure));
        views.insert(
            key,
            CachedView {
                epoch,
                synced: end,
                net: Arc::clone(&built),
            },
        );
        built
    }

    /// The unpartitioned residual: the ledger's state over every shard.
    /// The audit target.
    pub fn unpartitioned_residual(&mut self) -> Arc<Network> {
        self.view_for(UNPARTITIONED)
    }

    /// The stitched view a request homed at shard `home` for a
    /// destination in shard `dst` is solved on (with one shard, embeds
    /// solve on [`Self::unpartitioned_residual`] instead).
    pub fn stitched_view(&mut self, home: usize, dst: usize) -> Arc<Network> {
        self.view_for((home as u32, dst as u32))
    }

    /// Solves, commits and audits one request. Counted either way.
    pub fn embed(
        &mut self,
        sfc: &DagSfc,
        flow: &Flow,
        algo: Algo,
        seed: u64,
    ) -> Result<Accepted, EmbedRejection> {
        let home = self.router.assign(&self.plan, flow);
        let dst = self.plan.shard_of(flow.dst);
        let cross = home != dst;
        if cross {
            self.cross_shard_offered += 1;
        }
        // The audit target must predate the commit. With a single shard
        // the stitched view exposes every resource, so it *is* the
        // unpartitioned residual: solve and audit on that one cache
        // entry instead of a second network.
        let (view, unpart) = if self.plan.shards() == 1 {
            let unpart = self.unpartitioned_residual();
            (Arc::clone(&unpart), unpart)
        } else {
            (self.stitched_view(home, dst), self.unpartitioned_residual())
        };
        let started = Instant::now();
        let result = embed_and_commit(&mut self.ledger, &view, sfc, flow, algo, seed);
        let acc = self.per_algo.entry(algo.name()).or_default();
        acc.solves += 1;
        acc.total += started.elapsed();
        let committed = match result {
            Ok(committed) => committed,
            Err(e) => {
                self.rejected += 1;
                if e.is_deadline_infeasible() {
                    self.rejected_deadline += 1;
                } else if e.is_rule_infeasible() {
                    self.rejected_rule += 1;
                } else if matches!(e, EmbedRejection::Solve(_)) {
                    self.rejected_capacity += 1;
                }
                return Err(e);
            }
        };
        if let Some((vnf, links)) = self.ledger.lease_loads(committed.lease) {
            self.changes.mark(vnf, links);
        }
        // Audit the stitched embedding against the *unpartitioned*
        // substrate — the same constraints (2)-(10) certificate an
        // unsharded daemon issues — plus the stitching scope: every VNF
        // in the home or destination shard, every path link exposed by
        // the view. A violation releases the lease again.
        self.audits_run += 1;
        let out = &committed.outcome;
        let report = self.auditor.audit_outcome(&unpart, sfc, flow, out);
        let exposure = Exposure::new(&self.table, home, dst);
        let scope = stitched_scope_violations(
            &out.embedding,
            &|node| exposure.node_in_scope(&self.plan, node),
            &|link| exposure.link_in_scope(&self.plan, self.net, link),
        );
        let lease = StitchId::from(committed.lease);
        if !report.is_clean() || !scope.is_empty() {
            self.audits_failed += 1;
            self.release(lease)
                // lint:allow(expect) — invariant: the lease was committed just above
                .expect("fresh lease is active");
            self.rejected += 1;
            let mut summary = report.summary();
            if !scope.is_empty() {
                if !summary.is_empty() {
                    summary.push_str("; ");
                }
                summary.push_str(&scope.join("; "));
            }
            return Err(EmbedRejection::Audit(summary));
        }
        self.accepted += 1;
        if cross {
            self.cross_shard_accepted += 1;
        }
        self.total_cost += out.cost.total();
        self.solver_cache_hits += out.stats.cache_hits;
        self.solver_cache_misses += out.stats.cache_misses;
        Ok(Accepted {
            lease,
            cost: out.cost,
        })
    }

    /// Releases a lease, logging the resources it held first.
    pub fn release(&mut self, lease: StitchId) -> NetResult<()> {
        let id = lease.lease().ok_or(NetError::UnknownLease(lease.0))?;
        let (vnf, links) = self
            .ledger
            .lease_loads(id)
            .ok_or(NetError::UnknownLease(lease.0))?;
        self.changes.mark(vnf, links);
        self.ledger.release(id)
    }

    /// Whether `lease` is currently outstanding.
    pub fn is_active(&self, lease: StitchId) -> bool {
        lease.lease().is_some_and(|id| self.ledger.is_active(id))
    }

    /// Leases currently outstanding.
    pub fn active_leases(&self) -> usize {
        self.ledger.active_leases()
    }

    /// Applies one substrate fault to the ledger, counted against the
    /// shard that owns its target. Returns whether the state changed.
    pub fn apply_fault(&mut self, event: &FaultEvent) -> NetResult<bool> {
        let shard = match *event {
            FaultEvent::LinkDown { link }
            | FaultEvent::LinkUp { link }
            | FaultEvent::LinkCapacity { link, .. } => {
                self.net.try_link(link)?;
                self.plan.owner_of(link)
            }
            FaultEvent::NodeDown { node }
            | FaultEvent::NodeUp { node }
            | FaultEvent::VnfCapacity { node, .. } => {
                self.net.try_node(node)?;
                self.plan.shard_of(node)
            }
        };
        let changed = self.ledger.apply_fault(event)?;
        if changed {
            self.faults_applied[shard] += 1;
            self.views.clear();
        }
        Ok(changed)
    }

    /// Sets the owner tag for subsequent commits (`None` clears).
    pub fn set_request_owner(&mut self, owner: Option<u64>) {
        self.ledger.set_default_owner(owner);
    }

    /// Releases every lease committed under `owner`. Returns the
    /// reclaimed ids, ascending.
    pub fn reclaim_owner(&mut self, owner: u64) -> Vec<StitchId> {
        let reclaimed = self.ledger.reclaim_owner(owner);
        if !reclaimed.is_empty() {
            self.views.clear();
        }
        reclaimed.into_iter().map(StitchId::from).collect()
    }

    /// The engine's aggregate counters.
    pub fn stats(&self) -> ShardedStats {
        let plan = &self.plan;
        let loads = self.ledger.state().load_by_region(
            plan.shards(),
            |node| plan.shard_of(node),
            |link| plan.owner_of(link),
        );
        ShardedStats {
            accepted: self.accepted,
            rejected: self.rejected,
            rejected_deadline: self.rejected_deadline,
            rejected_rule: self.rejected_rule,
            rejected_capacity: self.rejected_capacity,
            total_cost: self.total_cost,
            active_leases: self.ledger.active_leases() as u64,
            released: self.ledger.released_total(),
            epoch: self.ledger.epoch(),
            outstanding_load: self.ledger.outstanding_load(),
            solver_cache_hits: self.solver_cache_hits,
            solver_cache_misses: self.solver_cache_misses,
            audits_run: self.audits_run,
            audits_failed: self.audits_failed,
            faults_applied: self.ledger.faults_applied(),
            orphans_reclaimed: self.ledger.orphans_reclaimed(),
            cross_shard_offered: self.cross_shard_offered,
            cross_shard_accepted: self.cross_shard_accepted,
            per_algo: self
                .per_algo
                .iter()
                .map(|(name, acc)| (*name, acc.solves, acc.total))
                .collect(),
            per_shard: loads
                .into_iter()
                .zip(&self.faults_applied)
                .enumerate()
                .map(|(k, (outstanding_load, &faults_applied))| ShardLoad {
                    shard: k as u64,
                    outstanding_load,
                    faults_applied,
                    gateways: plan.gateways(k).len() as u64,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsfc_sim::runner::{instance_network, instance_request};
    use dagsfc_sim::{arrival_seed, SimConfig};

    /// With one shard, solving and auditing share the unpartitioned
    /// residual: the view cache never holds a second network, and a
    /// rejected embed leaves the one entry the next embed reuses.
    #[test]
    fn one_shard_solves_on_the_unpartitioned_view() {
        let sim = SimConfig {
            network_size: 30,
            sfc_size: 4,
            vnf_capacity: 2.0,
            link_capacity: 2.0,
            seed: 0xA7,
            ..SimConfig::default()
        };
        let net = instance_network(&sim);
        let plan = ShardPlan::partition(&net, 1).expect("partition");
        let mut engine = ShardedEngine::new(&net, plan, ShardRouter::default());
        let mut accepted = 0;
        for i in 0..6usize {
            let (sfc, flow) = instance_request(&sim, &net, i);
            let seed = arrival_seed(sim.seed, i);
            drop(engine.unpartitioned_residual());
            accepted += usize::from(engine.embed(&sfc, &flow, Algo::Mbbe, seed).is_ok());
            assert_eq!(engine.views.len(), 1, "arrival {i}");
        }
        assert!(accepted > 0, "the fresh substrate must accept something");

        let (sfc, flow) = instance_request(&sim, &net, 6);
        let thick = Flow { rate: 1e6, ..flow };
        let refreshed = engine.unpartitioned_residual();
        assert!(engine.embed(&sfc, &thick, Algo::Mbbe, 0).is_err());
        assert_eq!(engine.views.len(), 1);
        let solved = Arc::clone(&engine.views[&UNPARTITIONED].net);
        assert!(Arc::ptr_eq(&solved, &refreshed));
        assert!(Arc::ptr_eq(&solved, &engine.unpartitioned_residual()));
        drop((solved, refreshed));

        // An accepted embed and a release each move the epoch; the next
        // refresh patches the one cached network in place (same
        // allocation) to exactly the ledger's residual.
        let held = Arc::as_ptr(&engine.unpartitioned_residual());
        let mut lease = None;
        for i in 7..40usize {
            let (sfc, flow) = instance_request(&sim, &net, i);
            if let Ok(acc) = engine.embed(&sfc, &flow, Algo::Mbbe, arrival_seed(sim.seed, i)) {
                lease = Some(acc.lease);
                break;
            }
        }
        let lease = lease.expect("some arrival fits");
        let committed = engine.unpartitioned_residual();
        assert!(std::ptr::eq(Arc::as_ptr(&committed), held));
        assert!(same_capacities(&committed, &engine.raw_ledger().residual()));
        let before_release = committed.link_ids().map(|l| committed.link(l).capacity);
        let before_release: Vec<f64> = before_release.collect();
        drop(committed);
        engine.release(lease).expect("release");
        let released = engine.unpartitioned_residual();
        assert!(std::ptr::eq(Arc::as_ptr(&released), held));
        assert!(Arc::ptr_eq(&released, &engine.views[&UNPARTITIONED].net));
        assert!(same_capacities(&released, &engine.raw_ledger().residual()));
        let after_release: Vec<f64> = released
            .link_ids()
            .map(|l| released.link(l).capacity)
            .collect();
        assert_ne!(before_release, after_release, "the release was patched in");
    }

    #[test]
    fn change_log_keeps_only_the_last_bound_entries() {
        let mut log = ChangeLog::default();
        for i in 0..(MAX_PENDING_CHANGES as u32 + 5) {
            log.push(Resource::Link(LinkId(i)));
        }
        assert_eq!(log.end(), MAX_PENDING_CHANGES as u64 + 5);
        assert!(log.since(4).is_none(), "entry 4 was dropped");
        let tail: Vec<u32> = log
            .since(log.end() - 2)
            .expect("recent entries are kept")
            .map(|r| match r {
                Resource::Link(l) => l.0,
                Resource::Vnf(..) => unreachable!(),
            })
            .collect();
        assert_eq!(
            tail,
            vec![
                MAX_PENDING_CHANGES as u32 + 3,
                MAX_PENDING_CHANGES as u32 + 4
            ]
        );
        assert_eq!(log.since(log.end()).map(Iterator::count), Some(0));
    }
}
