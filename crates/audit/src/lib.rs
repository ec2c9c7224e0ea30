//! # dagsfc-audit — solver-independent constraint auditor
//!
//! Re-checks any [`Embedding`] against the paper's integer program
//! (§3.2–3.3) *without trusting the solver that produced it*: every
//! constraint is re-derived from the network, the chain, and the flow
//! alone, and the objective of eq. (1) is recomputed from first
//! principles. A solver (or the production accounting in
//! `dagsfc-core`) that drifts from the formulation shows up as a
//! structured [`Violation`] naming the constraint by its paper number:
//!
//! * **(2)** — VNF processing capability: `Σ α_{v,i}·R ≤ p_{v,i}`;
//! * **(3)** — link bandwidth: `Σ α_{g,h}·R ≤ b_e`;
//! * **(4)** — placement: every slot sits on exactly one node that
//!   actually deploys the required VNF kind;
//! * **(5)/(6)** — chain enabling: every meta-path is implemented by a
//!   contiguous real-path whose endpoints match the assignment;
//! * **(7)/(8)** — VNF reuse accounting: an instance serving `k` slots
//!   is rented `k` times;
//! * **(9)** — inter-layer meta-paths of one layer are a multicast: a
//!   shared link is charged at most once per layer (`min{·, 1}`);
//! * **(10)** — inner-layer (parallel VNF → merger) paths carry
//!   distinct traffic versions: every link occurrence is charged.
//! * **(D)** — end-to-end delay (QoS extension): when the flow carries
//!   a `delay_budget_us`, the embedding's delay under the canonical
//!   substrate model ([`DelayModel::for_network`]) must stay within it.
//!
//! The auditor deliberately re-implements the charging rules instead of
//! calling [`Embedding::try_account`], then *compares* its figures with
//! the production accounting — so an accounting bug in `dagsfc-core`
//! surfaces as a [`Violation::VnfChargeMismatch`] /
//! [`Violation::LinkChargeMismatch`] rather than silently corrupting
//! every benchmark and every committed lease.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use dagsfc_core::{
    meta_paths, CostBreakdown, DagSfc, DelayModel, Embedding, Endpoint, Flow, MetaPathKind,
    SolveOutcome,
};
use dagsfc_net::{LinkId, Network, NodeId, VnfTypeId, CAP_EPS};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Cost-comparison tolerance of the auditor: the independently
/// recomputed objective must match the production accounting (and any
/// solver-reported cost) to within this absolute error.
pub const COST_TOLERANCE: f64 = 1e-9;

/// A paper constraint, by its number in §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Constraint {
    /// Eq. (2): VNF processing capability.
    C2,
    /// Eq. (3): link bandwidth.
    C3,
    /// Eq. (4): slot placement on a hosting node.
    C4,
    /// Eqs. (5)/(6): meta-path connectivity (chain enabling).
    C5C6,
    /// Eqs. (7)/(8): VNF reuse / rental accounting.
    C7C8,
    /// Eq. (9): multicast inter-layer link charging.
    C9,
    /// Eq. (10): per-path inner-layer link charging.
    C10,
    /// Objective (1): solver-reported cost vs the recomputation.
    Objective,
    /// End-to-end delay budget (QoS extension, not a numbered paper
    /// constraint): delay under the canonical model ≤ `delay_budget_us`.
    Delay,
    /// Precedence order (partial-order extension): every declared edge
    /// of the chain's partial order crosses strictly forward between
    /// embedded layers.
    Order,
    /// Affinity (placement-rule extension): a declared affinity pair
    /// co-locates on one substrate node.
    Affinity,
    /// Anti-affinity (placement-rule extension): a declared
    /// anti-affinity pair never shares a substrate node.
    AntiAffinity,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::C2 => write!(f, "(2)"),
            Constraint::C3 => write!(f, "(3)"),
            Constraint::C4 => write!(f, "(4)"),
            Constraint::C5C6 => write!(f, "(5)/(6)"),
            Constraint::C7C8 => write!(f, "(7)/(8)"),
            Constraint::C9 => write!(f, "(9)"),
            Constraint::C10 => write!(f, "(10)"),
            Constraint::Objective => write!(f, "(1)"),
            Constraint::Delay => write!(f, "(D)"),
            Constraint::Order => write!(f, "(O)"),
            Constraint::Affinity => write!(f, "(A)"),
            Constraint::AntiAffinity => write!(f, "(AA)"),
        }
    }
}

/// One violated constraint: which paper equation, which entity, and the
/// expected-vs-actual figures.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Violation {
    /// The embedding's layer/slot/path shape does not match the chain —
    /// nothing else can be checked reliably (constraint (4) structural
    /// precondition).
    ShapeMismatch {
        /// What differs.
        detail: String,
    },
    /// (4): a slot is assigned to a node that does not deploy its kind
    /// (or to a node outside the network).
    SlotUnhosted {
        /// Layer index.
        layer: usize,
        /// Slot index (merger slot included).
        slot: usize,
        /// Offending node.
        node: NodeId,
        /// Required VNF kind.
        kind: VnfTypeId,
    },
    /// (5)/(6): a real-path's endpoints disagree with the assignment.
    PathEndpointMismatch {
        /// Canonical meta-path index.
        index: usize,
        /// Expected (from, to) under the assignment.
        expected: (NodeId, NodeId),
        /// Actual (source, target) of the real-path.
        actual: (NodeId, NodeId),
    },
    /// (5)/(6): a real-path hops over a link that does not exist or does
    /// not join its adjacent path nodes.
    PathDiscontiguous {
        /// Canonical meta-path index.
        index: usize,
        /// Hop position within the path.
        hop: usize,
        /// The offending link.
        link: LinkId,
    },
    /// (2): a VNF instance is loaded beyond its processing capability.
    VnfCapacityExceeded {
        /// Hosting node.
        node: NodeId,
        /// Overloaded kind.
        kind: VnfTypeId,
        /// Imposed load `α·R`.
        load: f64,
        /// Declared capability.
        capacity: f64,
    },
    /// (3): a link is loaded beyond its bandwidth.
    LinkBandwidthExceeded {
        /// Overloaded link.
        link: LinkId,
        /// Imposed load under multicast-aware charging.
        load: f64,
        /// Declared bandwidth.
        capacity: f64,
    },
    /// (7)/(8): the production VNF-rental figure disagrees with the
    /// auditor's independent α-count recomputation.
    VnfChargeMismatch {
        /// Auditor's figure.
        expected: f64,
        /// Production accounting's figure.
        actual: f64,
    },
    /// (9)/(10): the production link-charging figure disagrees with the
    /// auditor's independent multicast-aware recomputation.
    LinkChargeMismatch {
        /// Auditor's figure.
        expected: f64,
        /// Production accounting's figure.
        actual: f64,
    },
    /// Objective (1): the cost the producer reported for this embedding
    /// disagrees with the auditor's recomputation.
    CostMismatch {
        /// Auditor's recomputed objective.
        expected: f64,
        /// Reported objective.
        actual: f64,
    },
    /// The production accounting refused the embedding outright (e.g. a
    /// missing VNF instance) — reported alongside the per-slot (4)
    /// violations for context.
    AccountingRejected {
        /// The accounting error, rendered.
        detail: String,
    },
    /// (D): the embedding's end-to-end delay under the canonical
    /// substrate model exceeds the flow's delay budget.
    DelayBudgetExceeded {
        /// Recomputed end-to-end delay (µs).
        delay_us: f64,
        /// The flow's budget (µs).
        budget_us: f64,
    },
    /// (O): a declared precedence edge of the chain's partial order is
    /// not honored by the embedded layering (or names a position the
    /// chain does not have). Re-derived from the chain's own
    /// position→layer flattening, independent of the solver's.
    PrecedenceViolated {
        /// The offending edge, in flattened regular-slot positions.
        edge: (u32, u32),
        /// What went wrong, rendered.
        detail: String,
    },
    /// (A): a declared affinity pair is split across substrate nodes
    /// instead of co-locating on one.
    AffinitySplit {
        /// The kind pair.
        pair: (VnfTypeId, VnfTypeId),
        /// The distinct hosting nodes observed (sorted).
        nodes: Vec<NodeId>,
    },
    /// (AA): a declared anti-affinity pair shares a substrate node.
    AntiAffinityColocated {
        /// The kind pair.
        pair: (VnfTypeId, VnfTypeId),
        /// The shared node.
        node: NodeId,
    },
}

impl Violation {
    /// The paper constraint this violation falls under.
    pub fn constraint(&self) -> Constraint {
        match self {
            Violation::ShapeMismatch { .. } | Violation::SlotUnhosted { .. } => Constraint::C4,
            Violation::PathEndpointMismatch { .. } | Violation::PathDiscontiguous { .. } => {
                Constraint::C5C6
            }
            Violation::VnfCapacityExceeded { .. } => Constraint::C2,
            Violation::LinkBandwidthExceeded { .. } => Constraint::C3,
            Violation::VnfChargeMismatch { .. } | Violation::AccountingRejected { .. } => {
                Constraint::C7C8
            }
            Violation::LinkChargeMismatch { .. } => Constraint::C9,
            Violation::CostMismatch { .. } => Constraint::Objective,
            Violation::DelayBudgetExceeded { .. } => Constraint::Delay,
            Violation::PrecedenceViolated { .. } => Constraint::Order,
            Violation::AffinitySplit { .. } => Constraint::Affinity,
            Violation::AntiAffinityColocated { .. } => Constraint::AntiAffinity,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.constraint())?;
        match self {
            Violation::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            Violation::SlotUnhosted {
                layer,
                slot,
                node,
                kind,
            } => write!(f, "L{layer}[{slot}]: {node} does not deploy {kind}"),
            Violation::PathEndpointMismatch {
                index,
                expected,
                actual,
            } => write!(
                f,
                "meta-path #{index}: expected {} → {}, real-path runs {} → {}",
                expected.0, expected.1, actual.0, actual.1
            ),
            Violation::PathDiscontiguous { index, hop, link } => {
                write!(f, "meta-path #{index}: hop {hop} ({link}) breaks the path")
            }
            Violation::VnfCapacityExceeded {
                node,
                kind,
                load,
                capacity,
            } => write!(
                f,
                "{kind}@{node}: load {load} exceeds capability {capacity}"
            ),
            Violation::LinkBandwidthExceeded {
                link,
                load,
                capacity,
            } => write!(f, "{link}: load {load} exceeds bandwidth {capacity}"),
            Violation::VnfChargeMismatch { expected, actual } => write!(
                f,
                "VNF rental: auditor recomputed {expected}, production accounting says {actual}"
            ),
            Violation::LinkChargeMismatch { expected, actual } => write!(
                f,
                "link charging: auditor recomputed {expected}, production accounting says {actual}"
            ),
            Violation::CostMismatch { expected, actual } => write!(
                f,
                "objective: auditor recomputed {expected}, producer reported {actual}"
            ),
            Violation::AccountingRejected { detail } => {
                write!(f, "production accounting rejected the embedding: {detail}")
            }
            Violation::DelayBudgetExceeded {
                delay_us,
                budget_us,
            } => write!(
                f,
                "end-to-end delay {delay_us} us exceeds the flow budget {budget_us} us"
            ),
            Violation::PrecedenceViolated { edge, detail } => {
                write!(f, "precedence edge ({}, {}): {detail}", edge.0, edge.1)
            }
            Violation::AffinitySplit { pair, nodes } => {
                let hosts = nodes
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(
                    f,
                    "affinity ({}, {}) split across nodes {{{hosts}}}",
                    pair.0, pair.1
                )
            }
            Violation::AntiAffinityColocated { pair, node } => {
                write!(
                    f,
                    "anti-affinity ({}, {}) co-located on {node}",
                    pair.0, pair.1
                )
            }
        }
    }
}

/// Outcome of one audit: the violations found (empty ⇒ the embedding
/// satisfies the integer program) plus the independently recomputed
/// objective.
#[derive(Debug, Clone, Serialize)]
pub struct AuditReport {
    /// Violations, in constraint-check order.
    pub violations: Vec<Violation>,
    /// The objective of eq. (1), recomputed from first principles.
    pub recomputed: CostBreakdown,
    /// The cost the producer reported, when one was supplied.
    pub reported: Option<CostBreakdown>,
}

impl AuditReport {
    /// Whether every constraint held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations rendered, one per line.
    pub fn summary(&self) -> String {
        self.violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// The solver-independent constraint auditor (see the crate docs).
///
/// Stateless and `Sync`; one instance can audit any number of
/// embeddings against any number of networks.
#[derive(Debug, Clone, Copy)]
pub struct ConstraintAuditor {
    /// Absolute tolerance for all cost comparisons.
    pub cost_tolerance: f64,
}

impl Default for ConstraintAuditor {
    fn default() -> Self {
        ConstraintAuditor {
            cost_tolerance: COST_TOLERANCE,
        }
    }
}

impl ConstraintAuditor {
    /// An auditor with the default [`COST_TOLERANCE`].
    pub fn new() -> Self {
        ConstraintAuditor::default()
    }

    /// Audits `emb` against constraints (2)–(10) and cross-checks the
    /// production accounting ([`Embedding::try_cost`]) against the
    /// independent recomputation.
    pub fn audit(&self, net: &Network, sfc: &DagSfc, flow: &Flow, emb: &Embedding) -> AuditReport {
        self.audit_with_reported(net, sfc, flow, emb, None)
    }

    /// Like [`ConstraintAuditor::audit`], additionally checking the
    /// producer's reported cost against the recomputed objective
    /// (constraint-(1) cross-check) — the form every solver/serving hook
    /// uses.
    pub fn audit_outcome(
        &self,
        net: &Network,
        sfc: &DagSfc,
        flow: &Flow,
        out: &SolveOutcome,
    ) -> AuditReport {
        self.audit_with_reported(net, sfc, flow, &out.embedding, Some(out.cost))
    }

    fn audit_with_reported(
        &self,
        net: &Network,
        sfc: &DagSfc,
        flow: &Flow,
        emb: &Embedding,
        reported: Option<CostBreakdown>,
    ) -> AuditReport {
        let mut violations = Vec::new();

        // --- Shape preconditions. A deserialized embedding can carry an
        // arbitrary shape; bail out of the per-slot walks early if so.
        if let Some(detail) = shape_mismatch(sfc, emb) {
            violations.push(Violation::ShapeMismatch { detail });
            return AuditReport {
                violations,
                recomputed: CostBreakdown::ZERO,
                reported,
            };
        }

        let catalog = sfc.catalog();

        // --- Constraint (4) + eq. (7) α-counts: walk every slot once.
        let mut alpha: BTreeMap<(NodeId, VnfTypeId), u32> = BTreeMap::new();
        for (l, slots) in emb.assignments().iter().enumerate() {
            let layer = sfc.layer(l);
            for (slot, &node) in slots.iter().enumerate() {
                let kind = layer.slot_kind(slot, catalog);
                if node.index() >= net.node_count() || !net.hosts(node, kind) {
                    violations.push(Violation::SlotUnhosted {
                        layer: l,
                        slot,
                        node,
                        kind,
                    });
                    continue;
                }
                *alpha.entry((node, kind)).or_insert(0) += 1;
            }
        }

        // --- Constraints (5)/(6): meta-path connectivity.
        let mps = meta_paths(sfc);
        for (index, (mp, path)) in mps.iter().zip(emb.paths()).enumerate() {
            let expected = (endpoint(emb, flow, mp.from), endpoint(emb, flow, mp.to));
            let actual = (path.source(), path.target());
            if expected != actual {
                violations.push(Violation::PathEndpointMismatch {
                    index,
                    expected,
                    actual,
                });
            }
            let nodes = path.nodes();
            for (hop, &link) in path.links().iter().enumerate() {
                let joins = net
                    .try_link(link)
                    .map(|l| {
                        (l.a == nodes[hop] && l.b == nodes[hop + 1])
                            || (l.b == nodes[hop] && l.a == nodes[hop + 1])
                    })
                    .unwrap_or(false);
                if !joins {
                    violations.push(Violation::PathDiscontiguous { index, hop, link });
                    break;
                }
            }
        }

        // --- Eqs. (9)/(10): independent link-charge derivation.
        // Inter-layer paths of one multicast group charge a shared link
        // once; inner-layer paths charge every occurrence.
        let mut charges: BTreeMap<LinkId, u32> = BTreeMap::new();
        let mut group_seen: BTreeMap<usize, BTreeSet<LinkId>> = BTreeMap::new();
        for (mp, path) in mps.iter().zip(emb.paths()) {
            for &link in path.links() {
                let charge = match mp.kind {
                    MetaPathKind::InterLayer => {
                        group_seen.entry(mp.group).or_default().insert(link)
                    }
                    MetaPathKind::InnerLayer => true,
                };
                if charge {
                    *charges.entry(link).or_insert(0) += 1;
                }
            }
        }

        // --- Objective (1), recomputed from first principles.
        let mut vnf_cost = 0.0;
        for (&(node, kind), &uses) in &alpha {
            if let Some(inst) = net.instance(node, kind) {
                vnf_cost += uses as f64 * inst.price * flow.size;
            }
        }
        let mut link_cost = 0.0;
        for (&link, &uses) in &charges {
            if let Ok(l) = net.try_link(link) {
                link_cost += uses as f64 * l.price * flow.size;
            }
        }
        let recomputed = CostBreakdown {
            vnf: vnf_cost,
            link: link_cost,
        };

        // --- Constraint (2): instance capability under α-loads.
        for (&(node, kind), &uses) in &alpha {
            if let Some(inst) = net.instance(node, kind) {
                let load = uses as f64 * flow.rate;
                if load > inst.capacity + CAP_EPS {
                    violations.push(Violation::VnfCapacityExceeded {
                        node,
                        kind,
                        load,
                        capacity: inst.capacity,
                    });
                }
            }
        }

        // --- Constraint (3): bandwidth under multicast-aware loads.
        for (&link, &uses) in &charges {
            if let Ok(l) = net.try_link(link) {
                let load = uses as f64 * flow.rate;
                if load > l.capacity + CAP_EPS {
                    violations.push(Violation::LinkBandwidthExceeded {
                        link,
                        load,
                        capacity: l.capacity,
                    });
                }
            }
        }

        // --- Eqs. (7)–(10) cross-check: the production accounting must
        // agree with the independent recomputation term by term. Only
        // meaningful when the embedding is structurally sound: with a
        // hosting violation the production path prices the slot at
        // infinity while the auditor skips it.
        let structurally_sound = violations
            .iter()
            .all(|v| !matches!(v, Violation::SlotUnhosted { .. }));
        match emb.try_cost(net, sfc, flow) {
            Ok(prod) if structurally_sound => {
                if (prod.vnf - recomputed.vnf).abs() > self.cost_tolerance {
                    violations.push(Violation::VnfChargeMismatch {
                        expected: recomputed.vnf,
                        actual: prod.vnf,
                    });
                }
                if (prod.link - recomputed.link).abs() > self.cost_tolerance {
                    violations.push(Violation::LinkChargeMismatch {
                        expected: recomputed.link,
                        actual: prod.link,
                    });
                }
            }
            Ok(_) => {}
            Err(e) if structurally_sound => {
                violations.push(Violation::AccountingRejected {
                    detail: e.to_string(),
                });
            }
            Err(_) => {} // already reported per-slot under (4)
        }

        // --- Constraint (D): end-to-end delay within the flow budget,
        // recomputed under the canonical substrate model — independent
        // of whatever model (or delay logic) the solver used.
        if let Some(budget_us) = flow.delay_budget_us {
            let delay_us = DelayModel::for_network(net).embedding_delay(sfc, emb, flow);
            if delay_us > budget_us + COST_TOLERANCE {
                violations.push(Violation::DelayBudgetExceeded {
                    delay_us,
                    budget_us,
                });
            }
        }

        // --- Constraint (O): the chain's declared partial order vs its
        // embedded layering, re-derived from the chain's own
        // position→layer flattening (independent of the solvers' seam).
        if let Some(order) = sfc.order() {
            let pos_layers = position_layers(sfc);
            for &(i, j) in &order.edges {
                let (iu, ju) = (i as usize, j as usize);
                if iu >= pos_layers.len() || ju >= pos_layers.len() {
                    violations.push(Violation::PrecedenceViolated {
                        edge: (i, j),
                        detail: format!(
                            "names a position outside the chain's {} regular slots",
                            pos_layers.len()
                        ),
                    });
                } else if pos_layers[iu] >= pos_layers[ju] {
                    violations.push(Violation::PrecedenceViolated {
                        edge: (i, j),
                        detail: format!(
                            "layer {} does not precede layer {}",
                            pos_layers[iu], pos_layers[ju]
                        ),
                    });
                }
            }
        }

        // --- Constraints (A)/(AA): placement rules, from an independent
        // per-kind host-set derivation over every slot (mergers
        // included).
        if let Some(rules) = sfc.rules() {
            let mut hosts: BTreeMap<VnfTypeId, BTreeSet<NodeId>> = BTreeMap::new();
            for (l, slots) in emb.assignments().iter().enumerate() {
                let layer = sfc.layer(l);
                for (slot, &node) in slots.iter().enumerate() {
                    hosts
                        .entry(layer.slot_kind(slot, catalog))
                        .or_default()
                        .insert(node);
                }
            }
            for &(a, b) in &rules.affinity {
                // Vacuous unless both kinds are actually embedded.
                let (Some(na), Some(nb)) = (hosts.get(&a), hosts.get(&b)) else {
                    continue;
                };
                let union: BTreeSet<NodeId> = na.union(nb).copied().collect();
                if union.len() > 1 {
                    violations.push(Violation::AffinitySplit {
                        pair: (a, b),
                        nodes: union.into_iter().collect(),
                    });
                }
            }
            for &(a, b) in &rules.anti_affinity {
                let (Some(na), Some(nb)) = (hosts.get(&a), hosts.get(&b)) else {
                    continue;
                };
                if let Some(&shared) = na.intersection(nb).next() {
                    violations.push(Violation::AntiAffinityColocated {
                        pair: (a, b),
                        node: shared,
                    });
                }
            }
        }

        // --- Objective (1) vs the producer's claim.
        if let Some(rep) = reported {
            if (rep.total() - recomputed.total()).abs() > self.cost_tolerance {
                violations.push(Violation::CostMismatch {
                    expected: recomputed.total(),
                    actual: rep.total(),
                });
            }
        }

        AuditReport {
            violations,
            recomputed,
            reported,
        }
    }
}

/// Resolves a logical endpoint to its assigned node (shape already
/// verified by the caller).
fn endpoint(emb: &Embedding, flow: &Flow, ep: Endpoint) -> NodeId {
    match ep {
        Endpoint::Source => flow.src,
        Endpoint::Destination => flow.dst,
        Endpoint::Slot { layer, slot } => emb.node_of(layer, slot),
    }
}

/// The layer index of every flattened regular-slot position — the
/// coordinate system precedence edges are expressed in. Deliberately
/// re-derived here rather than imported, so the auditor's reading of
/// the order cannot inherit a solver-side flattening bug.
fn position_layers(sfc: &DagSfc) -> Vec<usize> {
    let mut out = Vec::new();
    for l in 0..sfc.depth() {
        out.extend(std::iter::repeat_n(l, sfc.layer(l).width()));
    }
    out
}

/// Checks the embedding's shape against the chain; `Some(detail)` on
/// mismatch.
fn shape_mismatch(sfc: &DagSfc, emb: &Embedding) -> Option<String> {
    if emb.assignments().len() != sfc.depth() {
        return Some(format!(
            "expected {} layers, embedding carries {}",
            sfc.depth(),
            emb.assignments().len()
        ));
    }
    for (l, slots) in emb.assignments().iter().enumerate() {
        let want = sfc.layer(l).slot_count();
        if slots.len() != want {
            return Some(format!(
                "layer {l}: expected {want} slots, embedding carries {}",
                slots.len()
            ));
        }
    }
    let want = dagsfc_core::meta_path_count(sfc);
    if emb.paths().len() != want {
        return Some(format!(
            "expected {want} real-paths, embedding carries {}",
            emb.paths().len()
        ));
    }
    None
}

/// Stitched-embedding scope check (the sharded serving path).
///
/// A cross-shard embedding is only valid if every resource it touches
/// was actually *exposed* by the stitched view it was solved over: VNF
/// slots in the home or destination shard, path links inside those
/// shards, on their shared boundary, or on the precomputed gateway
/// corridor. The numbered-constraint audit cannot see this — a solver
/// bug that leaks onto an unexposed (zero-capacity-in-view) resource
/// still produces an embedding that is feasible against the
/// unpartitioned residual. This walks the embedding against the
/// caller's exposure predicates and returns one human-readable line per
/// out-of-scope resource (empty = in scope everywhere).
pub fn stitched_scope_violations(
    emb: &Embedding,
    node_in_scope: &dyn Fn(NodeId) -> bool,
    link_in_scope: &dyn Fn(LinkId) -> bool,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (layer, slots) in emb.assignments().iter().enumerate() {
        for (slot, &node) in slots.iter().enumerate() {
            if !node_in_scope(node) {
                violations.push(format!(
                    "stitch scope: slot ({layer},{slot}) assigned to unexposed node {node}"
                ));
            }
        }
    }
    for (index, path) in emb.paths().iter().enumerate() {
        for &link in path.links() {
            if !link_in_scope(link) {
                violations.push(format!(
                    "stitch scope: meta-path {index} routed over unexposed link {link}"
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsfc_core::{Layer, VnfCatalog};
    use dagsfc_net::Path;

    fn catalog() -> VnfCatalog {
        VnfCatalog::new(4)
    }

    /// Line v0-v1-v2-v3 (link prices 1, bandwidth 100); f0@v1,
    /// f1/f2/merger@v2, merger@v3.
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        for i in 0..3u32 {
            g.add_link(NodeId(i), NodeId(i + 1), 1.0, 100.0).unwrap();
        }
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 2.0, 100.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 3.0, 100.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(2), 4.0, 100.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(4), 1.0, 100.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(4), 1.0, 100.0).unwrap();
        g
    }

    fn sfc() -> DagSfc {
        DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0)]),
                Layer::new(vec![VnfTypeId(1), VnfTypeId(2)]),
            ],
            catalog(),
        )
        .unwrap()
    }

    fn path(net: &Network, nodes: &[u32]) -> Path {
        Path::from_nodes(net, nodes.iter().map(|&n| NodeId(n)).collect()).unwrap()
    }

    fn good(g: &Network) -> Embedding {
        Embedding::new(
            &sfc(),
            vec![vec![NodeId(1)], vec![NodeId(2), NodeId(2), NodeId(2)]],
            vec![
                path(g, &[0, 1]),
                path(g, &[1, 2]),
                path(g, &[1, 2]),
                Path::trivial(NodeId(2)),
                Path::trivial(NodeId(2)),
                path(g, &[2, 3]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn clean_embedding_audits_clean_with_exact_cost() {
        let g = net();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let report = ConstraintAuditor::new().audit(&g, &sfc(), &flow, &good(&g));
        assert!(report.is_clean(), "{}", report.summary());
        // VNF 2+3+4+1 = 10, links e01 + e12 (multicast once) + e23 = 3.
        assert!((report.recomputed.vnf - 10.0).abs() < 1e-12);
        assert!((report.recomputed.link - 3.0).abs() < 1e-12);
        // Matches the production accounting exactly.
        let prod = good(&g).try_cost(&g, &sfc(), &flow).unwrap();
        assert!((report.recomputed.total() - prod.total()).abs() < 1e-12);
    }

    #[test]
    fn inner_layer_links_charged_per_path() {
        // Merger on v3: both inner paths traverse e23 — charged twice.
        let g = net();
        let s = sfc();
        let emb = Embedding::new(
            &s,
            vec![vec![NodeId(1)], vec![NodeId(2), NodeId(2), NodeId(3)]],
            vec![
                path(&g, &[0, 1]),
                path(&g, &[1, 2]),
                path(&g, &[1, 2]),
                path(&g, &[2, 3]),
                path(&g, &[2, 3]),
                Path::trivial(NodeId(3)),
            ],
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let report = ConstraintAuditor::new().audit(&g, &s, &flow, &emb);
        assert!(report.is_clean(), "{}", report.summary());
        assert!((report.recomputed.link - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reported_cost_mismatch_is_flagged_as_objective() {
        let g = net();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let emb = good(&g);
        let true_cost = emb.try_cost(&g, &sfc(), &flow).unwrap();
        let lying = CostBreakdown {
            vnf: true_cost.vnf,
            link: true_cost.link + 1.0, // e.g. a double-charged multicast link
        };
        let report =
            ConstraintAuditor::new().audit_with_reported(&g, &sfc(), &flow, &emb, Some(lying));
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            Violation::CostMismatch { .. }
        ));
        assert_eq!(report.violations[0].constraint(), Constraint::Objective);
    }

    #[test]
    fn tolerance_admits_sub_nano_drift() {
        let g = net();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let emb = good(&g);
        let cost = emb.try_cost(&g, &sfc(), &flow).unwrap();
        let nudged = CostBreakdown {
            vnf: cost.vnf + 1e-13,
            link: cost.link,
        };
        let report =
            ConstraintAuditor::new().audit_with_reported(&g, &sfc(), &flow, &emb, Some(nudged));
        assert!(report.is_clean(), "{}", report.summary());
    }

    /// The delay check only arms when the flow carries a budget, and
    /// recomputes the delay from the substrate's own link-delay table.
    #[test]
    fn delay_budget_is_audited_against_substrate_delays() {
        let mut g = net();
        for l in 0..3u32 {
            g.set_link_delay(LinkId(l), 10.0).unwrap();
        }
        // good(): e01 (L0) + max(e12, e12) (L1, multicast dedup does not
        // apply to delay: both branches ride e12) + final e23 = 30 µs.
        let s = sfc();
        let emb = good(&g);
        let auditor = ConstraintAuditor::new();
        // No budget: not armed, clean.
        let free = Flow::unit(NodeId(0), NodeId(3));
        assert!(auditor.audit(&g, &s, &free, &emb).is_clean());
        // Loose budget: clean.
        let loose = free.with_delay_budget(30.0);
        let report = auditor.audit(&g, &s, &loose, &emb);
        assert!(report.is_clean(), "{}", report.summary());
        // Tight budget: exactly one (D) violation with the right figures.
        let tight = free.with_delay_budget(25.0);
        let report = auditor.audit(&g, &s, &tight, &emb);
        assert_eq!(report.violations.len(), 1, "{}", report.summary());
        match &report.violations[0] {
            Violation::DelayBudgetExceeded {
                delay_us,
                budget_us,
            } => {
                assert!((delay_us - 30.0).abs() < 1e-9);
                assert!((budget_us - 25.0).abs() < 1e-9);
            }
            v => panic!("expected a delay violation, got {v}"),
        }
        assert_eq!(report.violations[0].constraint(), Constraint::Delay);
        assert!(report.violations[0].to_string().starts_with("(D) "));
    }

    #[test]
    fn constraint_labels_render_paper_numbers() {
        assert_eq!(Constraint::C2.to_string(), "(2)");
        assert_eq!(Constraint::C5C6.to_string(), "(5)/(6)");
        assert_eq!(Constraint::C10.to_string(), "(10)");
        let v = Violation::SlotUnhosted {
            layer: 1,
            slot: 0,
            node: NodeId(7),
            kind: VnfTypeId(2),
        };
        assert!(v.to_string().starts_with("(4) "));
    }
}
