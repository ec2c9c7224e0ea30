//! Seeded fault plans: *what* goes wrong and *when*, frozen up front so
//! a chaos run is a pure function of the scenario file.
//!
//! A [`FaultPlan`] is generated once from a seed against a concrete
//! network and arrival schedule, then serialized into the scenario.
//! Replaying it — in-process or through a daemon — involves no further
//! randomness: every failure, recovery, capacity wobble, and client
//! misbehavior is already decided.

use dagsfc_net::{FaultEvent, LinkId, Network, NodeId};
use dagsfc_sim::lifecycle::to_fixed;
use dagsfc_sim::ReplayTrace;
pub use dagsfc_sim::ScheduledFault;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Knobs for [`FaultPlan::generate`]. The defaults produce a lively but
/// survivable scenario: every failure recovers before the trace ends.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosIntensity {
    /// Link down/up pairs to schedule.
    pub link_failures: usize,
    /// Node down/up pairs to schedule.
    pub node_failures: usize,
    /// Link-capacity churn events (factor drawn from `churn_range`).
    pub churn_events: usize,
    /// Inclusive bounds for churn factors.
    pub churn_min: f64,
    /// Upper bound for churn factors.
    pub churn_max: f64,
    /// Every n-th accepted arrival "forgets" to release on departure
    /// (orphaned lease, swept by reclaim at end of run). `0` disables.
    pub drop_release_every: usize,
    /// Every n-th arrival is submitted by a "slow client" in tiny
    /// chunks (wire-level misbehavior; no effect in-process). `0`
    /// disables.
    pub slow_request_every: usize,
    /// Connections that open, send half a request, and vanish —
    /// scheduled before these arrival indices. Daemon-side only.
    pub disconnect_probes: usize,
}

impl Default for ChaosIntensity {
    fn default() -> Self {
        ChaosIntensity {
            link_failures: 4,
            node_failures: 2,
            churn_events: 6,
            churn_min: 0.5,
            churn_max: 1.5,
            drop_release_every: 5,
            slow_request_every: 7,
            disconnect_probes: 2,
        }
    }
}

/// The frozen misfortune schedule of one chaos run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed the plan was drawn with (provenance).
    pub seed: u64,
    /// Substrate events, sorted by `(at, seq)` (the lifecycle driver
    /// fires them in that order regardless).
    pub faults: Vec<ScheduledFault>,
    /// Arrival indices whose departure release is deliberately dropped.
    pub drop_release: Vec<usize>,
    /// Arrival indices submitted via chunked "slow client" writes.
    pub slow_request: Vec<usize>,
    /// Arrival indices before which a half-request disconnect probe
    /// fires.
    pub disconnect_before: Vec<usize>,
}

impl FaultPlan {
    /// Draws a plan for `trace`'s schedule against `net`.
    ///
    /// Every `Down` event is paired with a later `Up` on the same
    /// resource, and recoveries land strictly inside the trace, so the
    /// substrate ends the run fully healed. Deterministic: same
    /// `(net, trace, seed, intensity)` → same plan, bit for bit.
    pub fn generate(
        net: &Network,
        trace: &ReplayTrace,
        seed: u64,
        intensity: &ChaosIntensity,
    ) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5F17);
        let arrivals = trace.arrivals.max(2);
        let mut faults = Vec::new();
        let mut seq = 0u32;
        let mut push = |faults: &mut Vec<ScheduledFault>, at: u64, event: FaultEvent| {
            faults.push(ScheduledFault { at, seq, event });
            seq += 1;
        };

        // Down/up windows: fail in the first two thirds, recover before
        // the end, so late arrivals exercise the healed substrate too.
        let window = |rng: &mut StdRng| {
            let down = rng.gen_range(0..arrivals * 2 / 3);
            let up = rng.gen_range(down + 1..arrivals);
            (to_fixed(down as f64), to_fixed(up as f64))
        };

        if net.link_count() > 0 {
            for _ in 0..intensity.link_failures {
                let link = LinkId(rng.gen_range(0..net.link_count()) as u32);
                let (down, up) = window(&mut rng);
                push(&mut faults, down, FaultEvent::LinkDown { link });
                push(&mut faults, up, FaultEvent::LinkUp { link });
            }
        }
        if net.node_count() > 0 {
            for _ in 0..intensity.node_failures {
                let node = NodeId(rng.gen_range(0..net.node_count()) as u32);
                let (down, up) = window(&mut rng);
                push(&mut faults, down, FaultEvent::NodeDown { node });
                push(&mut faults, up, FaultEvent::NodeUp { node });
            }
        }
        if net.link_count() > 0 {
            for _ in 0..intensity.churn_events {
                let link = LinkId(rng.gen_range(0..net.link_count()) as u32);
                let at = to_fixed(rng.gen_range(0..arrivals) as f64);
                let factor = rng.gen_range(intensity.churn_min..intensity.churn_max);
                push(&mut faults, at, FaultEvent::LinkCapacity { link, factor });
                // Heal the wobble before the trace ends: restore the
                // base capacity so the run finishes on a clean slate.
                let heal = to_fixed(rng.gen_range(1..arrivals.max(2)) as f64).max(at);
                push(
                    &mut faults,
                    heal,
                    FaultEvent::LinkCapacity { link, factor: 1.0 },
                );
            }
        }
        faults.sort_by_key(|f| (f.at, f.seq));

        let every = |n: usize| -> Vec<usize> {
            if n == 0 {
                Vec::new()
            } else {
                (0..trace.arrivals).filter(|i| i % n == n - 1).collect()
            }
        };
        let drop_release = every(intensity.drop_release_every);
        let slow_request = every(intensity.slow_request_every);
        let disconnect_before = (0..intensity.disconnect_probes)
            .map(|_| rng.gen_range(0..trace.arrivals.max(1)))
            .collect();

        FaultPlan {
            seed,
            faults,
            drop_release,
            slow_request,
            disconnect_before,
        }
    }

    /// Whether arrival `i` is submitted by the slow client.
    pub fn is_slow(&self, arrival: usize) -> bool {
        self.slow_request.contains(&arrival)
    }

    /// How many disconnect probes fire before arrival `i`.
    pub fn probes_before(&self, arrival: usize) -> usize {
        self.disconnect_before
            .iter()
            .filter(|&&p| p == arrival)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsfc_sim::runner::instance_network;
    use dagsfc_sim::{export_trace, Algo, LifecycleConfig, SimConfig};

    fn trace() -> (Network, ReplayTrace) {
        let cfg = LifecycleConfig {
            base: SimConfig {
                network_size: 20,
                seed: 0xC0C0A,
                ..SimConfig::default()
            },
            arrivals: 30,
            mean_holding: 6.0,
            algo: Algo::Mbbe,
        };
        (instance_network(&cfg.base), export_trace(&cfg))
    }

    #[test]
    fn generation_is_deterministic() {
        let (net, trace) = trace();
        let a = FaultPlan::generate(&net, &trace, 7, &ChaosIntensity::default());
        let b = FaultPlan::generate(&net, &trace, 7, &ChaosIntensity::default());
        assert_eq!(a, b);
        let c = FaultPlan::generate(&net, &trace, 8, &ChaosIntensity::default());
        assert_ne!(a, c, "different seeds draw different plans");
    }

    #[test]
    fn every_down_recovers_inside_the_trace() {
        let (net, trace) = trace();
        let plan = FaultPlan::generate(&net, &trace, 42, &ChaosIntensity::default());
        let end = to_fixed(trace.arrivals as f64);
        // Replay the down/up toggles; everything must be up at the end.
        let mut link_down = vec![false; net.link_count()];
        let mut node_down = vec![false; net.node_count()];
        for f in &plan.faults {
            assert!(f.at < end, "fault fires after the last arrival");
            match f.event {
                FaultEvent::LinkDown { link } => link_down[link.index()] = true,
                FaultEvent::LinkUp { link } => link_down[link.index()] = false,
                FaultEvent::NodeDown { node } => node_down[node.index()] = true,
                FaultEvent::NodeUp { node } => node_down[node.index()] = false,
                _ => {}
            }
        }
        assert!(link_down.iter().all(|d| !d), "a link never recovered");
        assert!(node_down.iter().all(|d| !d), "a node never recovered");
    }

    #[test]
    fn schedule_is_sorted() {
        let (net, trace) = trace();
        let plan = FaultPlan::generate(&net, &trace, 3, &ChaosIntensity::default());
        assert!(plan
            .faults
            .windows(2)
            .all(|w| (w[0].at, w[0].seq) <= (w[1].at, w[1].seq)));
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let (net, trace) = trace();
        let plan = FaultPlan::generate(&net, &trace, 11, &ChaosIntensity::default());
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
