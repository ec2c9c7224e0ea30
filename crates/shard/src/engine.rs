//! The sharded serving engine: per-shard [`CommitLedger`]s behind one
//! gateway API, stitched cross-shard solves, and a two-phase commit
//! that every embedding must clear before any shard keeps its load.
//!
//! ## How a request is served
//!
//! 1. The [`ShardRouter`] assigns a **home shard** (pure function of
//!    the flow — see `router.rs`).
//! 2. The engine builds the **stitched view**: a residual network in
//!    which only the home shard's resources, the destination shard's
//!    resources, the direct home↔destination boundary links, and the
//!    precomputed gateway **corridor** between the two shards carry
//!    capacity; everything else is zeroed. For an intra-shard request
//!    the view exposes the home shard alone. Residual capacities are
//!    read from each resource's *owner* ledger, so the view is exact.
//! 3. A standard solver runs over the view — the chain segments land in
//!    the exposed shards, and the tail path can only reach the
//!    destination through the corridor the inter-gateway table priced.
//! 4. **Two-phase commit**: the embedding's loads are grouped by owner
//!    shard and reserved in ascending shard order (phase 1); the
//!    finished embedding is audited against the **unpartitioned**
//!    residual substrate plus the stitching scope (phase 2); only then
//!    does the stitched lease go on the books (phase 3). Any failure
//!    rolls back every reservation already made.
//!
//! With one shard the view is the full residual, the corridor set is
//! empty, and every step above degenerates to one ledger's solve →
//! commit → audit, the kernel `dagsfc_sim::run_trace` runs per arrival.
//! The crate's 1-shard tests and the serve crate's replays of every
//! committed trace pin that equivalence bit for bit.

use crate::plan::{GatewayTable, ShardPlan};
use crate::router::ShardRouter;
use dagsfc_audit::{stitched_scope_violations, ConstraintAuditor};
use dagsfc_core::{CostBreakdown, DagSfc, Flow};
use dagsfc_net::{
    CommitLedger, FaultEvent, LeaseId, LinkId, NetError, NetResult, Network, NodeId, VnfTypeId,
};
use dagsfc_sim::{Algo, EmbedRejection};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded retry budget for transient commit failures: the views are
/// force-refreshed and the request re-solved at most this many extra
/// times.
pub const MAX_COMMIT_RETRIES: u32 = 2;

/// Handle for one stitched lease (spans one ledger per involved shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StitchId(pub u64);

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
    /// How many shard ledgers the commit spans (1 for intra-shard).
    pub shards_involved: usize,
}

/// Which resources a stitched view exposes.
struct Exposure {
    home: usize,
    dst: usize,
    /// Links of the precomputed corridor between `home` and `dst`,
    /// ascending (empty for intra-shard views).
    corridor: Vec<LinkId>,
}

impl Exposure {
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
}

struct CachedView {
    epochs: Vec<u64>,
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
    /// Sub-leases currently outstanding in this shard's ledger.
    pub active_leases: u64,
    /// Sub-leases released over the shard's lifetime.
    pub released: u64,
    /// The shard ledger's change epoch.
    pub epoch: u64,
    /// Committed-but-unreleased load in this shard.
    pub outstanding_load: f64,
    /// Fault events that changed this shard's state.
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
    /// Requests turned away.
    pub rejected: u64,
    /// Of `rejected`: proven deadline-infeasible.
    pub rejected_deadline: u64,
    /// Of `rejected`: placement rules (affinity/anti-affinity) infeasible.
    pub rejected_rule: u64,
    /// Of `rejected`: capacity/topology infeasibility.
    pub rejected_capacity: u64,
    /// Sum of accepted stitched costs.
    pub total_cost: f64,
    /// Stitched leases currently outstanding.
    pub active_leases: u64,
    /// Sub-lease releases summed over every shard ledger.
    pub released: u64,
    /// Sum of shard-ledger epochs (moves on every commit/release).
    pub epoch: u64,
    /// Outstanding load summed over every shard.
    pub outstanding_load: f64,
    /// Path-cache hits summed over accepted solves.
    pub solver_cache_hits: u64,
    /// Path-cache misses summed over accepted solves.
    pub solver_cache_misses: u64,
    /// Commits re-checked by the constraint auditor (every one).
    pub audits_run: u64,
    /// Audits that found a violation (rolled back) — must stay 0.
    pub audits_failed: u64,
    /// Fault events that changed some shard's state.
    pub faults_applied: u64,
    /// Sub-leases reclaimed from vanished owners.
    pub orphans_reclaimed: u64,
    /// Transient commit failures retried with refreshed views.
    pub commit_retries: u64,
    /// Requests whose source and destination shards differed.
    pub cross_shard_offered: u64,
    /// Cross-shard requests that committed.
    pub cross_shard_accepted: u64,
    /// Per-algorithm `(name, solves, total wall time)`.
    pub per_algo: Vec<(&'static str, u64, Duration)>,
    /// Per-shard load figures.
    pub per_shard: Vec<ShardLoad>,
}

/// Per-shard ledgers, stitched views, and the two-phase commit gateway
/// (see the module docs). This type is the **only** sanctioned path to
/// a shard's `CommitLedger` — the `shard-ledger` lint rule turns direct
/// access from outside `crates/shard` into a CI failure.
pub struct ShardedEngine<'n> {
    net: &'n Network,
    plan: ShardPlan,
    router: ShardRouter,
    table: GatewayTable,
    ledgers: Vec<CommitLedger<'n>>,
    auditor: ConstraintAuditor,
    /// View cache: `(home, dst)` → stitched view; `home == dst` is the
    /// local view; [`UNPARTITIONED`] is the all-shards residual, and the
    /// only entry a 1-shard engine uses.
    views: BTreeMap<(u32, u32), CachedView>,
    leases: BTreeMap<u64, Vec<(usize, LeaseId)>>,
    next_stitch: u64,
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
    commit_retries: u64,
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
        let ledgers = (0..plan.shards()).map(|_| CommitLedger::new(net)).collect();
        ShardedEngine {
            net,
            plan,
            router,
            table,
            ledgers,
            auditor: ConstraintAuditor::new(),
            views: BTreeMap::new(),
            leases: BTreeMap::new(),
            next_stitch: 1,
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
            commit_retries: 0,
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

    /// The home shard the router would assign to `flow`.
    pub fn home_shard(&self, flow: &Flow) -> usize {
        self.router.assign(&self.plan, flow)
    }

    /// Read-only escape hatch to one shard's ledger, for tests and
    /// diagnostics only — production code must go through the gateway
    /// API above, and the `shard-ledger` lint rule enforces exactly
    /// that outside `crates/shard`.
    #[doc(hidden)]
    pub fn raw_ledger(&self, shard: usize) -> &CommitLedger<'n> {
        &self.ledgers[shard]
    }

    fn epochs(&self) -> Vec<u64> {
        self.ledgers.iter().map(|l| l.epoch()).collect()
    }

    /// Builds (or reuses) the residual view for `exposure`; `None`
    /// exposes every shard — the unpartitioned residual the auditor
    /// checks against.
    fn view_for(&mut self, key: (u32, u32), exposure: Option<&Exposure>) -> Arc<Network> {
        let epochs = self.epochs();
        if let Some(cached) = self.views.get(&key) {
            if cached.epochs == epochs {
                return Arc::clone(&cached.net);
            }
        }
        let plan = &self.plan;
        let ledgers = &self.ledgers;
        let net = self.net;
        let built = net.map_capacities(
            |node, vnf, _| {
                if let Some(e) = exposure {
                    if !e.node_in_scope(plan, node) {
                        return 0.0;
                    }
                }
                let state = ledgers[plan.shard_of(node)].state();
                if !state.node_available(node) {
                    return 0.0;
                }
                state
                    .vnf_remaining(node, vnf)
                    // lint:allow(expect) — invariant: instance exists in source network
                    .expect("instance exists in source network")
                    .max(0.0)
            },
            |link, _| {
                if let Some(e) = exposure {
                    if !e.link_in_scope(plan, net, link) {
                        return 0.0;
                    }
                }
                let state = ledgers[plan.owner_of(link)].state();
                if !state.link_available(link) {
                    return 0.0;
                }
                state
                    .link_remaining(link)
                    // lint:allow(expect) — invariant: link exists in source network
                    .expect("link exists in source network")
                    .max(0.0)
            },
        );
        let arc = Arc::new(built);
        self.views.insert(
            key,
            CachedView {
                epochs,
                net: Arc::clone(&arc),
            },
        );
        arc
    }

    fn exposure(&self, home: usize, dst: usize) -> Exposure {
        let corridor = if home == dst {
            Vec::new()
        } else {
            self.table
                .corridor(home, dst)
                .map(|r| {
                    let mut links = r.path.links().to_vec();
                    links.sort_unstable();
                    links
                })
                .unwrap_or_default()
        };
        Exposure {
            home,
            dst,
            corridor,
        }
    }

    /// The unpartitioned residual: every shard's state combined — what
    /// a single global ledger would report. The audit target.
    pub fn unpartitioned_residual(&mut self) -> Arc<Network> {
        self.view_for(UNPARTITIONED, None)
    }

    /// Solves and (two-phase) commits one request. Counted either way.
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
        let exposure = self.exposure(home, dst);
        let mut attempt = 0u32;
        loop {
            // The audit target must predate phase 1's reservations. With
            // a single shard the stitched view exposes every resource, so
            // it *is* the unpartitioned residual: solve and audit on that
            // one cache entry — the one the front end's per-batch refresh
            // already built for this epoch — instead of a second network.
            let (view, unpart) = if self.plan.shards() == 1 {
                let unpart = self.unpartitioned_residual();
                (Arc::clone(&unpart), unpart)
            } else {
                let view = self.view_for((home as u32, dst as u32), Some(&exposure));
                (view, self.unpartitioned_residual())
            };
            let started = Instant::now();
            let result =
                two_phase_reserve(&mut self.ledgers, &self.plan, &view, sfc, flow, algo, seed);
            let elapsed = started.elapsed();
            let acc = self.per_algo.entry(algo.name()).or_default();
            acc.solves += 1;
            acc.total += elapsed;
            match result {
                Ok(pending) => {
                    // Phase 2: audit the stitched embedding against the
                    // *unpartitioned* substrate — the same constraints
                    // (2)-(10) certificate an unsharded daemon issues —
                    // plus the stitching scope: every VNF in the home or
                    // destination shard, every path link exposed by the
                    // view. A violation rolls back every reservation.
                    self.audits_run += 1;
                    let report = self
                        .auditor
                        .audit_outcome(&unpart, sfc, flow, &pending.outcome);
                    let scope = stitched_scope_violations(
                        &pending.outcome.embedding,
                        &|node| exposure.node_in_scope(&self.plan, node),
                        &|link| exposure.link_in_scope(&self.plan, self.net, link),
                    );
                    if !report.is_clean() || !scope.is_empty() {
                        self.audits_failed += 1;
                        rollback(&mut self.ledgers, &pending.parts);
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
                    // Phase 3: the stitched lease goes on the books.
                    let id = StitchId(self.next_stitch);
                    self.next_stitch += 1;
                    let shards_involved = pending.parts.len();
                    self.leases.insert(id.0, pending.parts);
                    self.accepted += 1;
                    if cross {
                        self.cross_shard_accepted += 1;
                    }
                    self.total_cost += pending.cost.total();
                    self.solver_cache_hits += pending.stats.cache_hits;
                    self.solver_cache_misses += pending.stats.cache_misses;
                    return Ok(Accepted {
                        lease: id,
                        cost: pending.cost,
                        shards_involved,
                    });
                }
                Err(EmbedRejection::Commit(_)) if attempt < MAX_COMMIT_RETRIES => {
                    attempt += 1;
                    self.commit_retries += 1;
                    // Force every cached view to rebuild.
                    self.views.clear();
                }
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
            }
        }
    }

    /// Releases a stitched lease: every per-shard sub-lease, in
    /// **descending** shard order — the reverse of phase-1 acquisition,
    /// the classic 2PC release discipline (per-ledger releases are
    /// independent, so the outcome is bit-identical either way; the
    /// `lock-order` lint pass pins the discipline for future paths).
    pub fn release(&mut self, lease: StitchId) -> NetResult<()> {
        // lint:ascending(parts) — stitched leases store phase-1 parts
        // in ascending shard order (built under the by_shard BTreeMap).
        let parts = self
            .leases
            .remove(&lease.0)
            .ok_or(NetError::UnknownLease(lease.0))?;
        for (shard, sub) in parts.into_iter().rev() {
            self.ledgers[shard].release(sub)?;
        }
        Ok(())
    }

    /// Whether `lease` is currently outstanding.
    pub fn is_active(&self, lease: StitchId) -> bool {
        self.leases.contains_key(&lease.0)
    }

    /// Stitched leases currently outstanding.
    pub fn active_leases(&self) -> usize {
        self.leases.len()
    }

    /// Applies one substrate fault to the **owner shard's** ledger —
    /// faults are region-local, exactly like commits. Returns whether
    /// the state changed.
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
        self.ledgers[shard].apply_fault(event)
    }

    /// Sets the owner tag for subsequent commits on every shard ledger
    /// (`None` clears).
    pub fn set_request_owner(&mut self, owner: Option<u64>) {
        for ledger in &mut self.ledgers {
            ledger.set_default_owner(owner);
        }
    }

    /// Releases every sub-lease committed under `owner` across all
    /// shards and drops the stitched leases they belonged to. Returns
    /// the reclaimed stitched ids, ascending.
    pub fn reclaim_owner(&mut self, owner: u64) -> Vec<StitchId> {
        let mut dead: Vec<(usize, LeaseId)> = Vec::new();
        for (shard, ledger) in self.ledgers.iter_mut().enumerate() {
            for sub in ledger.reclaim_owner(owner) {
                dead.push((shard, sub));
            }
        }
        if dead.is_empty() {
            return Vec::new();
        }
        let mut reclaimed = Vec::new();
        self.leases.retain(|&id, parts| {
            let hit = parts.iter().any(|p| dead.contains(p));
            if hit {
                reclaimed.push(StitchId(id));
            }
            !hit
        });
        reclaimed
    }

    /// Counts a request turned away before it reached a solver.
    pub fn count_admission_rejection(&mut self) {
        self.rejected += 1;
    }

    /// The engine's aggregate counters.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            accepted: self.accepted,
            rejected: self.rejected,
            rejected_deadline: self.rejected_deadline,
            rejected_rule: self.rejected_rule,
            rejected_capacity: self.rejected_capacity,
            total_cost: self.total_cost,
            active_leases: self.leases.len() as u64,
            released: self.ledgers.iter().map(|l| l.released_total()).sum(),
            epoch: self.ledgers.iter().map(|l| l.epoch()).sum(),
            outstanding_load: self.ledgers.iter().map(|l| l.outstanding_load()).sum(),
            solver_cache_hits: self.solver_cache_hits,
            solver_cache_misses: self.solver_cache_misses,
            audits_run: self.audits_run,
            audits_failed: self.audits_failed,
            faults_applied: self.ledgers.iter().map(|l| l.faults_applied()).sum(),
            orphans_reclaimed: self.ledgers.iter().map(|l| l.orphans_reclaimed()).sum(),
            commit_retries: self.commit_retries,
            cross_shard_offered: self.cross_shard_offered,
            cross_shard_accepted: self.cross_shard_accepted,
            per_algo: self
                .per_algo
                .iter()
                .map(|(name, acc)| (*name, acc.solves, acc.total))
                .collect(),
            per_shard: self
                .ledgers
                .iter()
                .enumerate()
                .map(|(k, l)| ShardLoad {
                    shard: k as u64,
                    active_leases: l.active_leases() as u64,
                    released: l.released_total(),
                    epoch: l.epoch(),
                    outstanding_load: l.outstanding_load(),
                    faults_applied: l.faults_applied(),
                    gateways: self.plan.gateways(k).len() as u64,
                })
                .collect(),
        }
    }
}

/// A phase-1 reservation awaiting its audit: one sub-lease per involved
/// shard, ascending shard order.
struct PendingCommit {
    parts: Vec<(usize, LeaseId)>,
    cost: CostBreakdown,
    stats: dagsfc_core::solvers::SolverStats,
    outcome: dagsfc_core::solvers::SolveOutcome,
}

/// Phase 1: solve over the stitched view, group the embedding's loads
/// by owner shard, and reserve them ledger by ledger in ascending shard
/// order. Any ledger refusal rolls back the reservations already made
/// and surfaces as an ordinary [`EmbedRejection::Commit`].
fn two_phase_reserve(
    ledgers: &mut [CommitLedger<'_>],
    plan: &ShardPlan,
    view: &Network,
    sfc: &DagSfc,
    flow: &Flow,
    algo: Algo,
    seed: u64,
) -> Result<PendingCommit, EmbedRejection> {
    let solver = algo.build(seed);
    let out = solver
        .solve(view, sfc, flow)
        .map_err(EmbedRejection::Solve)?;
    let acct = out
        .embedding
        .try_account(view, sfc, flow)
        .map_err(EmbedRejection::Account)?;

    // Group every load by the shard whose ledger owns the resource.
    type Loads = (Vec<(NodeId, VnfTypeId, f64)>, Vec<(LinkId, f64)>);
    let mut by_shard: BTreeMap<usize, Loads> = BTreeMap::new();
    for (&(node, kind), &load) in acct.vnf_load.iter() {
        by_shard
            .entry(plan.shard_of(node))
            .or_default()
            .0
            .push((node, kind, load));
    }
    for (i, &load) in acct.link_load.iter().enumerate() {
        if load > 0.0 {
            let link = LinkId(i as u32);
            by_shard
                .entry(plan.owner_of(link))
                .or_default()
                .1
                .push((link, load));
        }
    }

    // lint:ascending(parts) — filled strictly in BTreeMap (ascending
    // shard) order below; the lock-order pass checks every push.
    let mut parts: Vec<(usize, LeaseId)> = Vec::with_capacity(by_shard.len());
    for (shard, (vnf_loads, link_loads)) in by_shard {
        // Phase 1 of the shard gateway's 2PC: this module is the
        // sanctioned multi-ledger commit site, and phase 2 audits the
        // result before the lease is honored. lint:allow(raw-commit)
        match ledgers[shard].commit(vnf_loads, link_loads) {
            Ok(sub) => parts.push((shard, sub)),
            Err(e) => {
                rollback(ledgers, &parts);
                return Err(EmbedRejection::Commit(e));
            }
        }
    }
    Ok(PendingCommit {
        parts,
        cost: out.cost,
        stats: out.stats.clone(),
        outcome: out,
    })
}

/// Releases every phase-1 reservation of a failed two-phase commit, in
/// reverse acquisition order (descending shard), mirroring
/// [`ShardedEngine::release`].
fn rollback(ledgers: &mut [CommitLedger<'_>], parts: &[(usize, LeaseId)]) {
    // lint:ascending(parts) — phase 1 reserves under the by_shard
    // BTreeMap, so `parts` is ascending by construction.
    for &(shard, sub) in parts.iter().rev() {
        // lint:allow(expect) — invariant: a fresh phase-1 sub-lease is active
        ledgers[shard].release(sub).expect("sub-lease is active");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsfc_sim::runner::{instance_network, instance_request};
    use dagsfc_sim::{arrival_seed, SimConfig};

    /// With one shard, solving and auditing share the unpartitioned
    /// residual: the view cache never holds a second network, and a
    /// rejected embed leaves the one entry the front end reuses.
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
    }
}
