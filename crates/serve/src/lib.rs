//! # dagsfc-serve — the embedding service daemon
//!
//! A long-lived, multi-threaded serving layer over the DAG-SFC solver
//! stack: clients submit embedding requests over a JSON-lines TCP
//! protocol, the daemon admits them against bounded per-shard queues
//! and a shared path-oracle feasibility screen, solves and commits them
//! through a [`ShardedEngine`](dagsfc_shard::ShardedEngine) (one shard
//! unless configured otherwise), and releases the resources when the
//! client says the flow departed.
//!
//! The headline guarantee is **replay equivalence**: feeding a
//! `sim`-frozen [`ReplayTrace`](dagsfc_sim::ReplayTrace) through the
//! socket of a 1-shard daemon yields the same accepted set, acceptance
//! ratio, and total cost as the in-process simulation under the same
//! seed — bit for bit, for any worker-pool size. See `docs/SERVICE.md`
//! for the protocol spec and the design notes behind that guarantee.
//!
//! ```no_run
//! use dagsfc_serve::{spawn_batched, BatchConfig, Client};
//! use dagsfc_sim::runner::{instance_network, instance_request};
//! use dagsfc_sim::SimConfig;
//!
//! let cfg = SimConfig { network_size: 30, ..SimConfig::default() };
//! let net = instance_network(&cfg);
//! let handle = spawn_batched(net.clone(), 1, BatchConfig::default(), "127.0.0.1:0").unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let (sfc, flow) = instance_request(&cfg, &net, 0);
//! let reply = client.embed(&sfc, &flow, None, 7).unwrap();
//! println!("{reply:?}");
//! handle.join();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod cli;
pub mod client;
pub mod protocol;
pub mod replay;
pub mod server;

pub use batch::{run_batched, spawn_batched, BatchConfig};
pub use client::{Client, ClientError, EmbedReply};
pub use protocol::{
    algo_wire_name, fault_event_from_wire, fault_event_to_wire, parse_algo, AlgoLatency,
    OracleCounters, ShardLane, StatsReport, WireRequest, WireResponse, PROTOCOL_VERSION,
};
pub use replay::replay;
pub use server::ServerHandle;
