//! The three workloads and the inputs each one generates from a seed.
//! The seed stays on this side: the program only ever receives the
//! generated network, requests and trace.

use dagsfc_core::{DagSfc, Flow};
use dagsfc_net::Network;
use dagsfc_sim::runner::{instance_network, instance_request};
use dagsfc_sim::{arrival_seed, export_trace, Algo, LifecycleConfig, ReplayTrace, SimConfig};

/// The algorithms of the paper's comparison, in the order each request
/// is solved.
pub const FIG6_ALGOS: [Algo; 4] = [Algo::Bbe, Algo::Mbbe, Algo::Ranv, Algo::Minv];

/// Mean holding time of a serving flow, in arrival intervals.
pub const MEAN_HOLDING: f64 = 200.0;

/// Per-VNF and per-link capacity of the serving substrate: tight enough
/// that about half of all arrivals are rejected once it is full.
pub const SERVE_CAPACITY: f64 = 2.0;

/// End-to-end delay budget of every serve-sharded-sla flow, in µs,
/// over links of 10 µs mean delay.
pub const DELAY_BUDGET_US: f64 = 80.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §5 protocol at the Table-2 base point, four solvers per
    /// request on the static network.
    PaperFig6,
    /// A best-effort lifecycle trace through a 1-shard batched daemon.
    ServeChurn,
    /// A delay-budgeted lifecycle trace through a 4-shard batched daemon.
    ServeShardedSla,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig6,
        Workload::ServeChurn,
        Workload::ServeShardedSla,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig6 => "paper-fig6",
            Workload::ServeChurn => "serve-churn",
            Workload::ServeShardedSla => "serve-sharded-sla",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests go through the daemon.
    pub fn serving(self) -> bool {
        self != Workload::PaperFig6
    }

    /// Region shards of the daemon.
    pub fn shards(self) -> usize {
        match self {
            Workload::ServeShardedSla => 4,
            _ => 1,
        }
    }

    /// Requests (paper-fig6) or arrivals (serving) per second that a
    /// 2-core host measures, and the fewest a run may have: enough for
    /// 1000 latency samples, so that a p99 has ten beyond it.
    fn rate_and_floor(self) -> (f64, usize) {
        match self {
            Workload::PaperFig6 => (140.0, 250),
            Workload::ServeChurn => (360.0, 1000),
            Workload::ServeShardedSla => (800.0, 1000),
        }
    }

    /// Requests (paper-fig6) or arrivals (serving) of a run that
    /// measures about `seconds` on a 2-core host. The work is fixed by
    /// the seed and the duration alone, never by how fast the host
    /// happens to be, so that a traced run repeats its untraced run
    /// exactly and a run covers enough distinct requests to repeat from
    /// seed to seed.
    pub fn requests(self, seconds: f64) -> usize {
        let (rate, floor) = self.rate_and_floor();
        ((rate * seconds).round() as usize).max(floor)
    }

    /// The simulation profile for `seed`: Table 2 at 500 nodes, with
    /// finite capacities and, for the SLA workload, a delay budget.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        let base = SimConfig {
            seed: splitmix64(seed),
            ..SimConfig::default()
        };
        match self {
            Workload::PaperFig6 => base,
            Workload::ServeChurn => SimConfig {
                vnf_capacity: SERVE_CAPACITY,
                link_capacity: SERVE_CAPACITY,
                ..base
            },
            Workload::ServeShardedSla => SimConfig {
                vnf_capacity: SERVE_CAPACITY,
                link_capacity: SERVE_CAPACITY,
                delay_budget_us: Some(DELAY_BUDGET_US),
                ..base
            },
        }
    }
}

/// One request with the solver seed it is solved under.
#[derive(Debug, Clone)]
pub struct Request {
    /// The chain.
    pub sfc: DagSfc,
    /// The flow.
    pub flow: Flow,
    /// Solver seed (only RANV draws from it).
    pub seed: u64,
}

/// Everything one pass of a workload consumes.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The substrate.
    pub net: Network,
    /// Requests, in arrival order.
    pub requests: Vec<Request>,
    /// The frozen arrival/departure schedule (serving workloads).
    pub trace: Option<ReplayTrace>,
}

/// Generator seed of the substrate: the Table-2 base instance. Every
/// seed of a workload runs on this one network, so that the seed-to-seed
/// spread of a run's figures comes from the requests alone.
pub const NETWORK_SEED: u64 = 0x5fc_d46;

/// Generates `n` requests (or arrivals) of `w` for `seed`.
pub fn generate(w: Workload, seed: u64, n: usize) -> Inputs {
    let cfg = w.sim_config(seed);
    let net = instance_network(&SimConfig {
        seed: NETWORK_SEED,
        ..cfg.clone()
    });
    let requests = (0..n)
        .map(|i| {
            let (sfc, flow) = instance_request(&cfg, &net, i);
            Request {
                sfc,
                flow,
                seed: arrival_seed(cfg.seed, i),
            }
        })
        .collect();
    let trace = w.serving().then(|| {
        export_trace(&LifecycleConfig {
            base: cfg,
            arrivals: n,
            mean_holding: MEAN_HOLDING,
            algo: Algo::Mbbe,
        })
    });
    Inputs {
        net,
        requests,
        trace,
    }
}

/// FNV-1a digest of the inputs' canonical JSON form.
pub fn digest(inputs: &Inputs) -> Result<u64, String> {
    let mut h = Fnv::default();
    let json = |e: serde_json::Error| format!("serialize inputs: {e}");
    h.write(serde_json::to_string(&inputs.net).map_err(json)?.as_bytes());
    for r in &inputs.requests {
        h.write(serde_json::to_string(&r.sfc).map_err(json)?.as_bytes());
        h.write(serde_json::to_string(&r.flow).map_err(json)?.as_bytes());
        h.write(&r.seed.to_le_bytes());
    }
    if let Some(t) = &inputs.trace {
        h.write(serde_json::to_string(t).map_err(json)?.as_bytes());
    }
    Ok(h.finish())
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The splitmix64 finalizer: spreads consecutive seeds apart.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in Workload::ALL {
            let n = w.requests(1.0);
            let a = digest(&generate(w, 7, n)).expect("digest");
            let b = digest(&generate(w, 7, n)).expect("digest");
            let c = digest(&generate(w, 8, n)).expect("digest");
            assert_eq!(a, b, "{}: same seed, same inputs", w.name());
            assert_ne!(a, c, "{}: another seed, other inputs", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn work_follows_the_duration_with_a_floor() {
        assert_eq!(Workload::PaperFig6.requests(10.0), 1400);
        assert_eq!(Workload::PaperFig6.requests(0.1), 250);
        assert_eq!(Workload::ServeChurn.requests(10.0), 3600);
        assert_eq!(Workload::ServeShardedSla.requests(1.0), 1000);
    }
}
