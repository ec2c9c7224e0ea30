//! The JSON-lines wire protocol spoken by `dagsfc-serve`.
//!
//! One JSON object per `\n`-terminated line, request → response, in
//! order, over a plain TCP stream. The shapes are deliberately *flat*
//! structs with optional fields rather than tagged enums: every client
//! in any language can build them with a dictionary literal, and absent
//! fields simply decode as `None`. `docs/SERVICE.md` is the normative
//! spec; this module is its executable form.

use dagsfc_core::{CostBreakdown, DagSfc, Flow};
use dagsfc_net::{FaultEvent, LinkId, NodeId, VnfTypeId};
use dagsfc_sim::Algo;
use serde::{Deserialize, Serialize};

/// The wire-protocol version this build speaks.
///
/// Clients open with `{"cmd":"hello","proto":N}`; the daemon replies
/// `ok` (echoing its own version in `proto`) when the versions match
/// and a `"protocol mismatch"` error otherwise, so incompatible pairs
/// fail fast with a typed error instead of a mid-session parse failure.
/// History: 1 — the unversioned JSON-lines protocol (no `hello`);
/// 2 — `hello` handshake, shard-aware stats (`shards`, `per_shard`,
/// cross-shard counters);
/// 3 — placement rules: `embed` chains may carry `rules`
/// (affinity / anti-affinity kind pairs) and `order` (precedence
/// edges), and stats split out `rejected_rule`;
/// 4 — stats no longer carry a solve-timeout count (no daemon
/// enforces a solve budget);
/// 5 — one job queue: `per_shard` lanes no longer carry a
/// `queue_depth`, `queue_depth` counts the daemon's single queue, and
/// `stats` is answered in request order.
pub const PROTOCOL_VERSION: u32 = 5;

/// The most bytes the daemon holds of a request line whose `\n` has not
/// arrived (1 MiB). Past it the daemon answers [`line_too_long`] and
/// takes no further request from that connection: it drops the rest of
/// the client's input and ends its own side once the reply is out.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The error reply to a request line longer than [`MAX_LINE_BYTES`].
pub(crate) fn line_too_long() -> WireResponse {
    WireResponse::error(format!(
        "request line too long: over {MAX_LINE_BYTES} bytes without a newline"
    ))
}

/// A client → server command.
///
/// `cmd` selects the operation; the other fields are its operands:
///
/// | `cmd`           | required fields          | optional fields        |
/// |-----------------|--------------------------|------------------------|
/// | `"embed"`       | `sfc`, `flow`            | `algo`, `seed`         |
/// | `"embed_preset"`| `preset`, `flow`         | `algo`, `seed`, `max_width` |
/// | `"release"`     | `lease`                  |                        |
/// | `"stats"`       |                          |                        |
/// | `"ping"`        |                          |                        |
/// | `"shutdown"`    |                          |                        |
/// | `"fault"`       | `event`, + its operands  | see below              |
/// | `"reclaim"`     | `owner`                  |                        |
/// | `"hello"`       | `proto`                  |                        |
///
/// `fault` operands: `event` is one of `"link_down"`, `"link_up"`,
/// `"node_down"`, `"node_up"`, `"link_capacity"`, `"vnf_capacity"`;
/// `link`/`node`/`vnf` name the resource and `factor` scales capacity.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WireRequest {
    /// The operation to perform.
    pub cmd: String,
    /// `embed`: the chain to embed.
    pub sfc: Option<DagSfc>,
    /// `embed`/`embed_preset`: the flow to carry.
    pub flow: Option<Flow>,
    /// Solver seed (defaults to 0).
    pub seed: Option<u64>,
    /// Algorithm name (`"mbbe"`, `"bbe"`, …); defaults to the daemon's
    /// configured algorithm.
    pub algo: Option<String>,
    /// `embed_preset`: the chain-preset name from the `nfp` library.
    pub preset: Option<String>,
    /// `embed_preset`: optional parallel-width cap for the transform.
    pub max_width: Option<usize>,
    /// `release`: the lease to release.
    pub lease: Option<u64>,
    /// `fault`: the event kind (`"link_down"`, `"node_up"`, …).
    pub event: Option<String>,
    /// `fault`: target link index (for link events).
    pub link: Option<u32>,
    /// `fault`: target node index (for node and VNF events).
    pub node: Option<u32>,
    /// `fault`: target VNF type (for `vnf_capacity`).
    pub vnf: Option<u16>,
    /// `fault`: capacity multiplier (for `*_capacity`).
    pub factor: Option<f64>,
    /// `reclaim`: the owner session whose leases to reclaim.
    pub owner: Option<u64>,
    /// `hello`: the client's [`PROTOCOL_VERSION`].
    pub proto: Option<u32>,
}

/// A server → client reply. `status` is one of `"accepted"`,
/// `"rejected"`, `"ok"`, `"error"`, or `"bye"`; the optional fields are
/// populated per status (see `docs/SERVICE.md`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WireResponse {
    /// Outcome class of the request.
    pub status: String,
    /// `accepted`: the lease handle for the committed resources.
    pub lease: Option<u64>,
    /// `accepted`: objective cost of the embedding.
    pub cost: Option<CostBreakdown>,
    /// `rejected`/`error`: human-readable cause.
    pub reason: Option<String>,
    /// `stats` replies: the full counter report.
    pub stats: Option<StatsReport>,
    /// `ping` replies: this connection's owner-session id (commits made
    /// over the connection are tagged with it; `reclaim` frees them).
    pub owner: Option<u64>,
    /// `fault` replies: whether the event changed the substrate state.
    pub changed: Option<bool>,
    /// `reclaim` replies: how many orphaned leases were released.
    pub reclaimed: Option<u64>,
    /// `hello` replies (and `hello` mismatch errors): the daemon's
    /// [`PROTOCOL_VERSION`].
    pub proto: Option<u32>,
}

impl WireResponse {
    /// An `"error"` reply with a reason.
    pub fn error(reason: impl Into<String>) -> Self {
        WireResponse {
            status: "error".into(),
            reason: Some(reason.into()),
            ..WireResponse::default()
        }
    }

    /// A `"rejected"` reply with a reason.
    pub fn rejected(reason: impl Into<String>) -> Self {
        WireResponse {
            status: "rejected".into(),
            reason: Some(reason.into()),
            ..WireResponse::default()
        }
    }

    /// A bare `"ok"` reply.
    pub fn ok() -> Self {
        WireResponse {
            status: "ok".into(),
            ..WireResponse::default()
        }
    }
}

/// Path-oracle counters, wire-shaped (mirrors
/// `dagsfc_net::OracleStats`, which the daemon reads from its
/// admission oracle).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OracleCounters {
    /// Shortest-path trees served from the cache.
    pub hits: u64,
    /// Shortest-path trees computed fresh.
    pub misses: u64,
    /// Trees evicted by the LRU bound.
    pub evictions: u64,
    /// Whole-cache invalidations.
    pub invalidations: u64,
    /// hits / (hits + misses), 0.0 when never queried.
    pub hit_rate: f64,
}

/// Per-algorithm solve-latency aggregate (wall-clock around the whole
/// solve-account-commit path, accepted and rejected alike).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AlgoLatency {
    /// Algorithm name as reported by the solver.
    pub algo: String,
    /// Number of solves routed to this algorithm.
    pub solves: u64,
    /// Total wall-clock microseconds across those solves.
    pub total_micros: u64,
    /// Mean wall-clock microseconds per solve.
    pub mean_micros: f64,
}

/// The full counter report returned by the `stats` command (and by the
/// daemon on exit).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatsReport {
    /// Requests embedded and committed.
    pub accepted: u64,
    /// Requests turned away (admission, queue-full, or solver).
    pub rejected: u64,
    /// Of `rejected`: solver rejections proven deadline-infeasible (the
    /// flow's delay budget cannot be met on the current residual).
    pub rejected_deadline: u64,
    /// Of `rejected`: solver rejections proven rule-infeasible (the
    /// request's affinity / anti-affinity pairs or precedence order
    /// cannot be satisfied on the current residual).
    pub rejected_rule: u64,
    /// Of `rejected`: solver rejections that are capacity/topology
    /// infeasibility (no feasible embedding irrespective of any SLA).
    pub rejected_capacity: u64,
    /// accepted / (accepted + rejected), 0.0 before any request.
    pub acceptance_ratio: f64,
    /// Sum of accepted embedding costs.
    pub total_cost: f64,
    /// Leases currently outstanding.
    pub active_leases: u64,
    /// Leases released over the daemon's lifetime.
    pub released: u64,
    /// Jobs waiting in the job queue when this `stats` request was
    /// admitted.
    pub queue_depth: u64,
    /// The queue's capacity (embeds, faults and reclaims are refused
    /// beyond it; releases never are).
    pub queue_capacity: u64,
    /// The ledger's change epoch (commits + releases).
    pub epoch: u64,
    /// Committed-but-unreleased load across all resources.
    pub outstanding_load: f64,
    /// Counters of the admission path-oracle.
    pub oracle: OracleCounters,
    /// Path-cache hits summed over every solver run.
    pub solver_cache_hits: u64,
    /// Path-cache misses summed over every solver run.
    pub solver_cache_misses: u64,
    /// Solver commits re-checked by the constraint auditor (every one).
    pub audits_run: u64,
    /// Audits that found a violation (the commit was rolled back) —
    /// must be 0; anything else is a solver or accounting bug.
    pub audits_failed: u64,
    /// Substrate fault events that changed the state (chaos mode).
    pub faults_applied: u64,
    /// Leases reclaimed from vanished or misbehaving owners.
    pub orphans_reclaimed: u64,
    /// Transient commit failures that were retried with a refreshed
    /// residual.
    pub commit_retries: u64,
    /// Per-algorithm solve latency, sorted by algorithm name.
    pub per_algo: Vec<AlgoLatency>,
    /// Number of region shards serving the substrate (1 = unsharded).
    pub shards: u64,
    /// Requests whose source and destination shards differed.
    pub cross_shard_offered: u64,
    /// Cross-shard requests that were stitched and committed.
    pub cross_shard_accepted: u64,
    /// Per-shard load figures, one lane per shard.
    pub per_shard: Vec<ShardLane>,
}

/// One region shard's load figures inside a [`StatsReport`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardLane {
    /// Shard index.
    pub shard: u64,
    /// Sub-leases outstanding in this shard's ledger.
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

/// Decodes the flat `fault` operand fields of a [`WireRequest`] into a
/// typed [`FaultEvent`], validating that the operands the event kind
/// needs are present.
pub fn fault_event_from_wire(req: &WireRequest) -> Result<FaultEvent, String> {
    let kind = req.event.as_deref().ok_or("fault requires an event kind")?;
    let link = || {
        req.link
            .map(LinkId)
            .ok_or_else(|| format!("{kind} requires a link"))
    };
    let node = || {
        req.node
            .map(NodeId)
            .ok_or_else(|| format!("{kind} requires a node"))
    };
    let factor = || {
        req.factor
            .ok_or_else(|| format!("{kind} requires a factor"))
    };
    Ok(match kind {
        "link_down" => FaultEvent::LinkDown { link: link()? },
        "link_up" => FaultEvent::LinkUp { link: link()? },
        "node_down" => FaultEvent::NodeDown { node: node()? },
        "node_up" => FaultEvent::NodeUp { node: node()? },
        "link_capacity" => FaultEvent::LinkCapacity {
            link: link()?,
            factor: factor()?,
        },
        "vnf_capacity" => FaultEvent::VnfCapacity {
            node: node()?,
            vnf: VnfTypeId(req.vnf.ok_or("vnf_capacity requires a vnf")?),
            factor: factor()?,
        },
        other => return Err(format!("unknown fault event {other:?}")),
    })
}

/// Encodes a typed [`FaultEvent`] into the flat wire operand fields
/// (inverse of [`fault_event_from_wire`]).
pub fn fault_event_to_wire(event: &FaultEvent) -> WireRequest {
    let mut req = WireRequest {
        cmd: "fault".into(),
        ..WireRequest::default()
    };
    match *event {
        FaultEvent::LinkDown { link } => {
            req.event = Some("link_down".into());
            req.link = Some(link.0);
        }
        FaultEvent::LinkUp { link } => {
            req.event = Some("link_up".into());
            req.link = Some(link.0);
        }
        FaultEvent::NodeDown { node } => {
            req.event = Some("node_down".into());
            req.node = Some(node.0);
        }
        FaultEvent::NodeUp { node } => {
            req.event = Some("node_up".into());
            req.node = Some(node.0);
        }
        FaultEvent::LinkCapacity { link, factor } => {
            req.event = Some("link_capacity".into());
            req.link = Some(link.0);
            req.factor = Some(factor);
        }
        FaultEvent::VnfCapacity { node, vnf, factor } => {
            req.event = Some("vnf_capacity".into());
            req.node = Some(node.0);
            req.vnf = Some(vnf.0);
            req.factor = Some(factor);
        }
    }
    req
}

/// The wire name of an algorithm ([`Algo::wire_name`]).
pub fn algo_wire_name(algo: Algo) -> &'static str {
    algo.wire_name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_with_absent_fields() {
        let line = r#"{"cmd":"stats"}"#;
        let req: WireRequest = serde_json::from_str(line).unwrap();
        assert_eq!(req.cmd, "stats");
        assert!(req.sfc.is_none());
        assert!(req.lease.is_none());
    }

    #[test]
    fn release_carries_lease() {
        let req: WireRequest = serde_json::from_str(r#"{"cmd":"release","lease":7}"#).unwrap();
        assert_eq!(req.lease, Some(7));
    }

    #[test]
    fn responses_roundtrip() {
        let resp = WireResponse {
            status: "accepted".into(),
            lease: Some(3),
            cost: Some(CostBreakdown {
                vnf: 1.25,
                link: 0.5,
            }),
            ..WireResponse::default()
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: WireResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.status, "accepted");
        assert_eq!(back.lease, Some(3));
        assert_eq!(back.cost.unwrap().total(), 1.75);
    }

    #[test]
    fn fault_operands_roundtrip() {
        let events = [
            FaultEvent::LinkDown { link: LinkId(4) },
            FaultEvent::NodeUp { node: NodeId(2) },
            FaultEvent::LinkCapacity {
                link: LinkId(1),
                factor: 0.5,
            },
            FaultEvent::VnfCapacity {
                node: NodeId(3),
                vnf: VnfTypeId(1),
                factor: 1.5,
            },
        ];
        for e in events {
            let wire = fault_event_to_wire(&e);
            assert_eq!(wire.cmd, "fault");
            let back = fault_event_from_wire(&wire).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn fault_decoding_rejects_missing_operands() {
        let req = WireRequest {
            cmd: "fault".into(),
            event: Some("link_down".into()),
            ..WireRequest::default()
        };
        assert!(fault_event_from_wire(&req).is_err());
        let req = WireRequest {
            cmd: "fault".into(),
            event: Some("meteor_strike".into()),
            ..WireRequest::default()
        };
        assert!(fault_event_from_wire(&req)
            .unwrap_err()
            .contains("meteor_strike"));
        let req = WireRequest {
            cmd: "fault".into(),
            ..WireRequest::default()
        };
        assert!(fault_event_from_wire(&req).is_err());
    }
}
