//! Deterministic request-to-shard assignment.
//!
//! The router is a *pure function* of the plan and the request: no
//! load feedback, no randomness, no clock. That is a deliberate
//! serving-layer invariant — the home shard of a request must be the
//! same on every replica and in every replay, or the stitched view a
//! request is solved on (and with it the bit-for-bit replay
//! guarantee) falls apart.

use crate::plan::ShardPlan;
use dagsfc_core::Flow;

/// How the home shard of a request is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// The shard owning the flow's source node — VNF processing starts
    /// next to the traffic source, and only the tail of the chain
    /// crosses the corridor.
    #[default]
    SourceAffinity,
    /// The shard owning the flow's destination node (egress-heavy
    /// deployments where the chain should terminate near the sink).
    DestinationAffinity,
}

/// Deterministic shard router (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardRouter {
    policy: RoutePolicy,
}

impl ShardRouter {
    /// A router with the given policy.
    pub fn new(policy: RoutePolicy) -> ShardRouter {
        ShardRouter { policy }
    }

    /// The policy in force.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The home shard of `flow` under `plan` — pure and total: every
    /// valid flow maps to exactly one shard.
    pub fn assign(&self, plan: &ShardPlan, flow: &Flow) -> usize {
        match self.policy {
            RoutePolicy::SourceAffinity => plan.shard_of(flow.src),
            RoutePolicy::DestinationAffinity => plan.shard_of(flow.dst),
        }
    }
}
