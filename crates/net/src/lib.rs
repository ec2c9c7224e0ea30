//! # dagsfc-net — priced cloud-network substrate
//!
//! The target-network model of the DAG-SFC paper (§3.2): a connected graph
//! of cloud nodes joined by bi-directional links, where
//!
//! * every **link** `e` has a price `c_e` per unit of traffic rate and a
//!   bandwidth capacity `r_e`;
//! * every **node** `v` hosts VNF instances `f_v(i)`, each with a rental
//!   price `c_{v,f(i)}` per rate unit and a processing capability
//!   `r_{v,f(i)}`.
//!
//! On top of the [`Network`] (fixed topology and prices; capacities can
//! be rewritten in place) the crate provides:
//!
//! * [`NetworkState`] — residual capacities and a fault overlay; a
//!   reservation is checked in full before it changes anything, so a
//!   refused one leaves the state untouched;
//! * [`CommitLedger`] — leased commitments over a [`NetworkState`], the
//!   serving path's one residual;
//! * [`routing`] — min-cost paths (Dijkstra), hop-ring BFS expansion
//!   (the primitive behind BBE's forward/backward searches), and Yen's
//!   k-cheapest paths;
//! * [`generator`] — the paper's §5.1 random network generator, fully
//!   seeded and deterministic.
//!
//! ```
//! use dagsfc_net::{generator, NetGenConfig, NetworkState, routing, NodeId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let cfg = NetGenConfig { nodes: 50, ..NetGenConfig::default() };
//! let net = generator::generate(&cfg, &mut StdRng::seed_from_u64(42)).unwrap();
//! assert!(net.is_connected());
//!
//! let state = NetworkState::new(&net);
//! let path = routing::min_cost_path(
//!     &net,
//!     NodeId(0),
//!     NodeId(49),
//!     &routing::RateFilter::new(&state, 1.0),
//! )
//! .unwrap();
//! assert_eq!(path.source(), NodeId(0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod error;
pub mod export;
pub mod fault;
pub mod fxmap;
pub mod generator;
pub mod graph;
pub mod ids;
pub mod ledger;
pub mod oracle;
pub mod path;
pub mod routing;
pub mod snapshot;
pub mod state;
pub mod topologies;

pub use analysis::{analyze, GraphMetrics};
pub use error::{NetError, NetResult};
pub use export::{to_dot, DotOptions};
pub use fault::FaultEvent;
pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet};
pub use generator::NetGenConfig;
pub use graph::{Link, Network, NetworkStats, Node, VnfInstance};
pub use ids::{LinkId, NodeId, VnfTypeId};
pub use ledger::{CommitLedger, LeaseId, LeaseLoads};
pub use oracle::{OracleSession, OracleStats, PathOracle, RateClass};
pub use path::Path;
pub use snapshot::{Arc32, NetworkSnapshot};
pub use state::{NetworkState, CAP_EPS};
pub use topologies::Topology;
