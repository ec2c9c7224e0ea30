//! Daemon-driven chaos replay: the scenario's arrivals, departures,
//! faults, and client misbehavior fired at a live `dagsfc-serve`
//! daemon over real sockets, lock-step, through the same lifecycle
//! driver ([`dagsfc_sim::drive`]) as the in-process
//! [`crate::runner::run_chaos`] — so the outcomes compare bit-for-bit.
//!
//! The driver already drops the plan's releases: flagged departures
//! are never sent, and the leases stay live until the end-of-trace
//! `reclaim` command sweeps them (the daemon-side orphan path). The
//! client backend here adds the wire-level misbehavior:
//!
//! * **slow client** — flagged arrivals are submitted in 7-byte chunks
//!   with a flush after each, exercising the server's partial-line
//!   reads without changing what is requested;
//! * **disconnect probes** — before flagged arrivals, a throwaway
//!   connection sends half a request and vanishes; the daemon must
//!   shrug it off without wedging a worker or leaking a lease.

use crate::plan::FaultPlan;
use crate::runner::ChaosOutcome;
use crate::scenario::ChaosScenario;
use dagsfc_core::{DagSfc, Flow};
use dagsfc_net::{FaultEvent, LeaseId};
use dagsfc_serve::{Client, ClientError, WireRequest};
use dagsfc_sim::runner::instance_network;
use dagsfc_sim::{drive, Algo, LifecycleBackend};
use std::net::ToSocketAddrs;

/// Wire chunk size of the "slow client" (small enough to split every
/// request into many partial reads, deterministic by construction).
pub const SLOW_CHUNK_BYTES: usize = 7;

/// The daemon behind `client`, misbehaving where `plan` says.
struct Misbehaving<'a, A> {
    client: &'a mut Client,
    addr: A,
    plan: &'a FaultPlan,
}

impl<A: ToSocketAddrs + Copy> LifecycleBackend for Misbehaving<'_, A> {
    type Error = ClientError;

    fn embed(
        &mut self,
        arrival: usize,
        sfc: &DagSfc,
        flow: &Flow,
        algo: Algo,
        seed: u64,
    ) -> Result<Option<(LeaseId, f64)>, ClientError> {
        for _ in 0..self.plan.probes_before(arrival) {
            let probe = Client::connect(self.addr)?;
            probe.abandon_mid_request(
                &WireRequest {
                    cmd: "embed".into(),
                    ..WireRequest::default()
                },
                9,
            )?;
        }
        let reply = if self.plan.is_slow(arrival) {
            self.client
                .embed_chunked(sfc, flow, Some(algo), seed, SLOW_CHUNK_BYTES)?
        } else {
            self.client.embed(sfc, flow, Some(algo), seed)?
        };
        Ok(reply.fate())
    }

    fn release(&mut self, lease: LeaseId) -> Result<(), ClientError> {
        self.client.release(lease)
    }

    fn fault(&mut self, event: &FaultEvent) -> Result<bool, ClientError> {
        self.client.fault(event)
    }
}

/// Replays `scenario` through the daemon behind `client`, then sweeps
/// the orphaned leases exactly like a recovery job would.
///
/// `addr` is the daemon's address, used to open the throwaway
/// disconnect-probe connections. The daemon must be serving
/// `instance_network(&scenario.trace.base)`. Only the fates, release
/// order, counts and reclaim are observed: the outcome has no ledger
/// `checks`, as the audits and the leak are in the daemon's stats.
pub fn replay_chaos(
    client: &mut Client,
    addr: impl ToSocketAddrs + Copy,
    scenario: &ChaosScenario,
) -> Result<ChaosOutcome, ClientError> {
    let plan = &scenario.plan;
    let net = instance_network(&scenario.trace.base);
    let mut backend = Misbehaving { client, addr, plan };
    let lifecycle = drive(
        &mut backend,
        &net,
        &scenario.trace,
        &plan.faults,
        &plan.drop_release,
    )?;
    Ok(ChaosOutcome {
        lifecycle,
        orphans_reclaimed: backend.client.reclaim(None)?,
    })
}
