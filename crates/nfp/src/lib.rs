//! # dagsfc-nfp — network-function parallelism analysis
//!
//! The DAG-SFC paper builds on the observation (NFP \[17\], ParaBox
//! \[22\]) that many network-function pairs have no order dependency and
//! can run in parallel. This crate supplies that substrate:
//!
//! * [`field`]/[`action`] — packet-field bitsets and NF action profiles
//!   (reads, writes, drop, accounting, termination);
//! * [`catalog`] — a twelve-function enterprise NF catalog with
//!   representative processing delays;
//! * [`dependency`] — the pairwise parallelizability oracle and the
//!   NFP-style pair statistics (53.8% parallelizable / 41.5%
//!   overhead-free in the original measurement);
//! * [`transform`] — the sequential→hybrid chain transformation of the
//!   paper's Fig. 2 (top → middle), producing the layered structure the
//!   DAG-SFC abstraction standardizes.
//!
//! ```
//! use dagsfc_nfp::{catalog, DependencyMatrix, to_hybrid, TransformOptions};
//!
//! let cat = catalog::enterprise_catalog();
//! let deps = DependencyMatrix::analyze(&cat);
//! // firewall, ids, dpi are mutually independent readers:
//! let chain = [0usize, 1, 9];
//! let hybrid = to_hybrid(&chain, &deps, TransformOptions::default());
//! assert_eq!(hybrid.depth(), 1);
//! assert_eq!(hybrid.max_width(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod action;
pub mod catalog;
pub mod chains;
pub mod dependency;
pub mod field;
pub mod transform;

pub use action::{conflict, parallelism, ActionProfile, ConflictReason, Parallelism};
pub use catalog::{enterprise_catalog, NfSpec};
pub use chains::{hybrid_preset, ChainPreset, PresetError, PRESETS};
pub use dependency::{DependencyMatrix, PairStats};
pub use field::{FieldSet, PacketField};
pub use transform::{
    sequentialize, to_hybrid, to_hybrid_legacy, HybridChain, PartialOrderChain, TransformOptions,
};
