//! Daemon plumbing the batched front end ([`crate::batch`]) builds on:
//! the owned-thread [`ServerHandle`], poison-tolerant locking, and the
//! replies to `hello` and `embed_preset` that need no engine.

use crate::protocol::{StatsReport, WireResponse, PROTOCOL_VERSION};
use dagsfc_core::{DagSfc, VnfCatalog};
use dagsfc_nfp::transform::TransformOptions;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the data if a previous holder panicked — each
/// update under the job queue's lock is a single step, so the data stay
/// valid, and one crashed thread must not wedge the whole daemon.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running daemon with an owned network, for tests and the CLI
/// (returned by [`crate::spawn_batched`]).
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) thread: std::thread::JoinHandle<StatsReport>,
}

impl ServerHandle {
    /// The bound address (use with `Client::connect`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag without waiting.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Raises the shutdown flag and waits for the drain, returning the
    /// final stats report.
    pub fn join(self) -> StatsReport {
        self.shutdown.store(true, Ordering::SeqCst);
        // lint:allow(expect) — the daemon thread panicked; there is no report to return
        self.thread.join().expect("server thread")
    }
}

/// Builds the chain for a named `nfp` preset. A bad preset name or a
/// sparse catalog is a protocol-level error, never a panic
/// (`nfp::PresetError` is ordinary).
pub(crate) fn preset_chain(name: &str, max_width: Option<usize>) -> Result<DagSfc, String> {
    let hybrid = dagsfc_nfp::hybrid_preset(name, TransformOptions { max_width })
        .map_err(|e| e.to_string())?;
    let catalog = VnfCatalog::new(dagsfc_nfp::enterprise_catalog().len() as u16);
    DagSfc::from_hybrid(&hybrid, catalog).map_err(|e| format!("preset chain invalid: {e}"))
}

/// Answers a `hello` handshake: `ok` (echoing the daemon's version and
/// the connection's owner id) on a version match, a `"protocol
/// mismatch"` error naming both versions otherwise — the fail-fast path
/// versioned clients rely on.
pub(crate) fn hello_response(client_proto: Option<u32>, owner: u64) -> WireResponse {
    match client_proto {
        Some(v) if v == PROTOCOL_VERSION => WireResponse {
            status: "ok".into(),
            owner: Some(owner),
            proto: Some(PROTOCOL_VERSION),
            ..WireResponse::default()
        },
        Some(v) => WireResponse {
            proto: Some(PROTOCOL_VERSION),
            ..WireResponse::error(format!(
                "protocol mismatch: client speaks v{v}, daemon speaks v{PROTOCOL_VERSION}"
            ))
        },
        None => WireResponse {
            proto: Some(PROTOCOL_VERSION),
            ..WireResponse::error(format!(
                "protocol mismatch: hello carried no version (daemon speaks v{PROTOCOL_VERSION})"
            ))
        },
    }
}
