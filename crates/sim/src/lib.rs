//! # dagsfc-sim — the paper's evaluation harness
//!
//! Reproduces the simulation study of §5: the Table 2 basic
//! configuration ([`SimConfig`]), the random SFC generator
//! ([`sfcgen`]), the 100-runs-per-instance protocol ([`runner`]), and
//! the six parameter sweeps behind Fig. 6(a)–(f) plus the §4.5 runtime
//! comparison ([`sweep`]). Results render as ASCII tables or CSV
//! ([`report`]).
//!
//! ```no_run
//! use dagsfc_sim::{report, sweep, SimConfig};
//!
//! let base = SimConfig::quick();
//! let fig = sweep::fig6c(&base);
//! println!("{}", report::ascii_table(&fig));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod config;
pub mod departures;
pub mod io;
pub mod lifecycle;
pub mod online;
pub mod report;
pub mod runner;
pub mod sfcgen;
pub mod stats;
pub mod sweep;

pub use audit::{audit_trace, ArrivalAudit, TraceAuditOutcome};
pub use config::SimConfig;
pub use departures::DepartureQueue;
pub use lifecycle::{
    arrival_seed, drive, embed_and_commit, export_trace, run_lifecycle, run_lifecycle_detailed,
    run_trace, ArrivalOutcome, EmbedRejection, EmbedSuccess, LedgerBackend, LedgerChecks,
    LifecycleBackend, LifecycleConfig, LifecycleMetrics, LifecycleOutcome, ReplayTrace,
    ScheduledFault,
};
pub use online::{acceptance_sweep, run_online, OnlineConfig, OnlineMetrics};
pub use runner::{run_instance, run_instances_with_threads, Algo, AlgoResult, InstanceResult};
pub use stats::Summary;
pub use sweep::{SweepPoint, SweepResult};
