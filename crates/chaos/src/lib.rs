//! # dagsfc-chaos — deterministic fault injection
//!
//! A chaos harness for the DAG-SFC serving stack that is **bit-for-bit
//! reproducible from one seed**. A scenario freezes an offered-load
//! trace (arrivals, departures, algorithm) together with a fault plan
//! (link/node failures with paired recoveries, capacity churn, dropped
//! releases, slow clients, mid-request disconnects). Both ways of
//! running it — in-process via [`run_chaos`], or through a live daemon
//! via [`replay_chaos`] — go through the one lifecycle driver,
//! [`dagsfc_sim::drive`], which fires the plan's faults and drops its
//! releases; the daemon replay adds only the wire misbehavior. No
//! further randomness is involved, so any two runs of one scenario
//! observe the same per-arrival fates, the same costs, and the same
//! final ledger state.
//!
//! The harness's invariant mirrors the daemon's: **no uncertified
//! embedding is ever served.** Every accepted commit is re-derived by
//! the solver-independent constraint auditor against the faulted
//! residual the solver saw; a violation rolls the commit back. A chaos
//! run that ends with audit violations is a solver or accounting bug,
//! full stop.
//!
//! ```no_run
//! use dagsfc_chaos::{run_chaos, ChaosIntensity, ChaosScenario};
//! use dagsfc_sim::{Algo, LifecycleConfig, SimConfig};
//!
//! let cfg = LifecycleConfig {
//!     base: SimConfig::default(),
//!     arrivals: 50,
//!     mean_holding: 8.0,
//!     algo: Algo::Mbbe,
//! };
//! let scenario = ChaosScenario::generate(&cfg, 7, &ChaosIntensity::default());
//! let outcome = run_chaos(&scenario.network(), &scenario);
//! assert_eq!(outcome.lifecycle.metrics.checks.unwrap().audit_violations, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod plan;
pub mod replay;
pub mod runner;
pub mod scenario;

pub use cli::chaos_main;
pub use plan::{ChaosIntensity, FaultPlan, ScheduledFault};
pub use replay::{replay_chaos, SLOW_CHUNK_BYTES};
pub use runner::{run_chaos, ChaosOutcome};
pub use scenario::{load_scenario, save_scenario, ChaosScenario, ScenarioError};
