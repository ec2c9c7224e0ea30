//! # dagsfc-shard — region-partitioned substrate serving
//!
//! Splits one substrate [`Network`](dagsfc_net::Network) into `N`
//! region shards for routing, stitching and per-region statistics,
//! over one [`CommitLedger`](dagsfc_net::CommitLedger) for the whole
//! substrate — the single residual the paper's capacity constraints
//! bound — without giving up a single guarantee of the unsharded
//! pipeline:
//!
//! - **[`ShardPlan`]** — contiguous-range node partition, per-link
//!   owner shards, gateway nodes, boundary links.
//! - **[`GatewayTable`]** — precomputed min-cost gateway-to-gateway
//!   corridors per shard pair (the stitching price oracle), priced at
//!   start-up by one multi-source search per home shard.
//! - **[`ShardRouter`]** — pure, deterministic request → home-shard
//!   assignment.
//! - **[`ShardedEngine`]** — stitched residual views, commits through
//!   `dagsfc_sim::embed_and_commit`, and the solver-independent audit
//!   of every stitched embedding against the **unpartitioned**
//!   substrate (a violation releases the lease again).
//!
//! The gateway API on [`ShardedEngine`] is the only sanctioned way to
//! touch the ledger; the `shard-ledger` lint rule fails CI on any
//! direct access from outside this crate.

#![warn(missing_docs)]

mod engine;
mod plan;
mod router;

pub use engine::{Accepted, ShardLoad, ShardedEngine, ShardedStats, StitchId};
pub use plan::{GatewayTable, ShardError, ShardPlan, TransitRoute};
pub use router::{RoutePolicy, ShardRouter};
