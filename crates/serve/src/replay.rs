//! Trace replay: a [`Client`] is a lifecycle backend, so the lifecycle
//! driver ([`drive`]) feeds a `sim`-frozen arrival/departure schedule
//! through a live daemon in exactly the in-process event order and
//! records the same [`LifecycleOutcome`] — comparable bit-for-bit.
//!
//! The replayer regenerates the network and every per-arrival request
//! locally from the trace's `SimConfig` (both are pure functions of the
//! seed) and drives the daemon lock-step — one request, one reply.
//! Lock-step means the daemon's queue never exceeds depth one and jobs
//! are ticketed in arrival order, which together with the server's
//! ticket gate makes the outcome independent of the worker-pool size.

use crate::client::{Client, ClientError};
use dagsfc_core::{DagSfc, Flow};
use dagsfc_net::{FaultEvent, LeaseId};
use dagsfc_sim::runner::instance_network;
use dagsfc_sim::{drive, Algo, LifecycleBackend, LifecycleOutcome, ReplayTrace};

/// The daemon's wire commands as lifecycle events. Each method calls
/// the [`Client`] method of the same name.
impl LifecycleBackend for Client {
    type Error = ClientError;

    fn embed(
        &mut self,
        _arrival: usize,
        sfc: &DagSfc,
        flow: &Flow,
        algo: Algo,
        seed: u64,
    ) -> Result<Option<(LeaseId, f64)>, ClientError> {
        Ok(Client::embed(self, sfc, flow, Some(algo), seed)?.fate())
    }

    fn release(&mut self, lease: LeaseId) -> Result<(), ClientError> {
        Client::release(self, lease)
    }

    fn fault(&mut self, event: &FaultEvent) -> Result<bool, ClientError> {
        Client::fault(self, event)
    }
}

/// Replays `trace` through the daemon behind `client`. Only what the
/// wire shows is recorded: the outcome has no ledger `checks`, as the
/// audits and the leak are in the daemon's stats.
///
/// The daemon must be serving the network `instance_network(&trace.base)`
/// generates — the CLI and tests launch it that way.
pub fn replay(client: &mut Client, trace: &ReplayTrace) -> Result<LifecycleOutcome, ClientError> {
    drive(client, &instance_network(&trace.base), trace, &[], &[])
}
