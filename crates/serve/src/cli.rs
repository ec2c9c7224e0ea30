//! Command-line entry points shared by the `dagsfc-serve` binary and
//! the root `dagsfc` CLI's `serve`/`client`/`trace`/`replay`
//! subcommands — one implementation, two front doors. [`Flags`] parses
//! the arguments of every `dagsfc` subcommand.

use crate::batch::{self, BatchConfig};
use crate::client::{Client, EmbedReply};
use crate::replay::replay;
use dagsfc_net::LeaseId;
use dagsfc_sim::runner::instance_network;
use dagsfc_sim::{export_trace, io as sim_io, run_trace, Algo, LifecycleConfig, SimConfig};
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// The flags [`sim_config`] reads.
const SIM_FLAGS: &[&str] = &[
    "nodes",
    "degree",
    "kinds",
    "sfc-size",
    "seed",
    "capacity",
    "link-delay",
    "delay-budget",
    "affinity-rate",
    "anti-affinity-rate",
];

/// Minimal `--key value` / positional argument parser.
pub struct Flags {
    map: HashMap<String, String>,
    /// Arguments that are not flags, in order (e.g. `figures`' figure
    /// id).
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `args` for a command that reads the boolean flags in
    /// `switches` and the valued flags in `valued`. Any other flag is an
    /// error naming it, so a typo or a retired flag fails loudly
    /// instead of being ignored. A valued flag takes the next argument,
    /// which must not itself look like a flag.
    pub fn parse(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            if switches.contains(&key) {
                map.insert(key.to_string(), "true".to_string());
                continue;
            }
            if !valued.contains(&key) {
                return Err(format!("unknown flag '--{key}'"));
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            if value.starts_with("--") {
                return Err(format!("--{key} needs a value, got flag '{value}'"));
            }
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags { map, positional })
    }

    /// The raw value of `--key`, if given.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// `--key` as a path, if given.
    pub fn path(&self, key: &str) -> Option<PathBuf> {
        self.str(key).map(PathBuf::from)
    }

    /// `--key` as an integer, or `default` when absent.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.str(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer '{v}'")),
        }
    }

    /// `--key` as a 64-bit integer, or `default` when absent.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.str(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer '{v}'")),
        }
    }

    /// `--key` as a number, or `default` when absent.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.str(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number '{v}'")),
        }
    }

    fn f64_opt(&self, key: &str) -> Result<Option<f64>, String> {
        match self.str(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: bad number '{v}'")),
        }
    }

    /// `--key` as an algorithm wire name, or `default` when absent.
    pub fn algo_or(&self, key: &str, default: Algo) -> Result<Algo, String> {
        match self.str(key) {
            None => Ok(default),
            Some(v) => Algo::parse(v).ok_or_else(|| format!("--{key}: unknown algorithm '{v}'")),
        }
    }

    /// Whether `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

fn sim_config(flags: &Flags) -> Result<SimConfig, String> {
    let cfg = SimConfig {
        network_size: flags.usize_or("nodes", 60)?,
        connectivity: flags.f64_or("degree", 6.0)?,
        vnf_kinds: flags.usize_or("kinds", 12)?,
        sfc_size: flags.usize_or("sfc-size", 5)?,
        seed: flags.u64_or("seed", SimConfig::default().seed)?,
        vnf_capacity: flags.f64_or("capacity", 8.0)?,
        link_capacity: flags.f64_or("capacity", 8.0)?,
        link_delay_us: flags.f64_opt("link-delay")?,
        delay_budget_us: flags.f64_opt("delay-budget")?,
        affinity_rate: flags.f64_opt("affinity-rate")?,
        anti_affinity_rate: flags.f64_opt("anti-affinity-rate")?,
        ..SimConfig::default()
    };
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// `--queue`, the bound on the daemon's job queue (default 64). It must
/// be at least 1: a queue of 0 turns every request away as "queue full".
pub fn queue_capacity(flags: &Flags) -> Result<usize, String> {
    match flags.usize_or("queue", 64)? {
        0 => Err("--queue must be at least 1 (got 0)".into()),
        q => Ok(q),
    }
}

/// The daemon configuration the serving flags describe, with `algo` as
/// the default algorithm.
fn batch_config(flags: &Flags, algo: Algo) -> Result<BatchConfig, String> {
    Ok(BatchConfig {
        shards: flags.usize_or("shards", 1)?,
        queue_capacity: queue_capacity(flags)?,
        algo,
        reclaim_on_disconnect: flags.has("reclaim-on-disconnect"),
        ..BatchConfig::default()
    })
}

/// `dagsfc-serve` / `dagsfc serve`: run the daemon until a client sends
/// `shutdown` (or the process is killed).
///
/// `--shards N` partitions the substrate into N region shards; `--queue`
/// bounds the job queue.
///
/// ```text
/// dagsfc-serve [--addr 127.0.0.1:4600] [--queue 64] [--algo mbbe]
///              [--shards 1] [--reclaim-on-disconnect]
///              [--network FILE | --nodes N --seed S --capacity C ...]
/// ```
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let valued = [SIM_FLAGS, &["network", "addr", "shards", "queue", "algo"]].concat();
    let flags = Flags::parse(args, &["reclaim-on-disconnect"], &valued)?;
    let net = match flags.str("network") {
        Some(path) => sim_io::load_network(&PathBuf::from(path)).map_err(|e| e.to_string())?,
        None => instance_network(&sim_config(&flags)?),
    };
    let cfg = batch_config(&flags, flags.algo_or("algo", Algo::Mbbe)?)?;
    let plan = dagsfc_shard::ShardPlan::partition(&net, cfg.shards).map_err(|e| e.to_string())?;
    let addr = flags.str("addr").unwrap_or("127.0.0.1:4600");
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // Parsed by scripts (and the CI smoke job): keep this line stable.
    println!("dagsfc-serve listening on {local}");
    let report = batch::run_batched(&net, plan, &cfg, listener, Arc::new(AtomicBool::new(false)));
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `dagsfc trace`: freeze a lifecycle schedule to a JSON file for
/// replay.
///
/// ```text
/// dagsfc trace --out trace.json [--arrivals 50] [--mean-holding 8]
///              [--algo mbbe] [--nodes N --seed S --capacity C ...]
/// ```
pub fn trace_main(args: &[String]) -> Result<(), String> {
    let valued = [SIM_FLAGS, &["out", "arrivals", "mean-holding", "algo"]].concat();
    let flags = Flags::parse(args, &[], &valued)?;
    let out = flags
        .str("out")
        .ok_or("trace requires --out FILE".to_string())?;
    let cfg = LifecycleConfig {
        base: sim_config(&flags)?,
        arrivals: flags.usize_or("arrivals", 50)?,
        mean_holding: flags.f64_or("mean-holding", 8.0)?,
        algo: flags.algo_or("algo", Algo::Mbbe)?,
    };
    let trace = export_trace(&cfg);
    sim_io::save_trace(&PathBuf::from(out), &trace).map_err(|e| e.to_string())?;
    println!(
        "trace: {} arrivals, mean holding {}, algo {} -> {out}",
        trace.arrivals,
        trace.mean_holding,
        trace.algo.name()
    );
    Ok(())
}

/// `dagsfc client`: one-shot protocol operations against a daemon.
///
/// ```text
/// dagsfc client ping     --addr HOST:PORT
/// dagsfc client stats    --addr HOST:PORT
/// dagsfc client embed    --addr HOST:PORT --preset NAME [--src A --dst B]
///                        [--algo mbbe] [--seed S] [--max-width W]
/// dagsfc client release  --addr HOST:PORT --lease ID
/// dagsfc client replay   --addr HOST:PORT --trace FILE
/// dagsfc client shutdown --addr HOST:PORT
/// ```
pub fn client_main(args: &[String]) -> Result<(), String> {
    let (op, rest) = args
        .split_first()
        .ok_or("client requires an operation (ping|stats|embed|release|replay|shutdown)")?;
    let valued: &[&str] = match op.as_str() {
        "embed" => &["addr", "preset", "src", "dst", "algo", "seed", "max-width"],
        "release" => &["addr", "lease"],
        "replay" => &["addr", "trace"],
        _ => &["addr"],
    };
    let flags = Flags::parse(rest, &[], valued)?;
    let addr = flags
        .str("addr")
        .ok_or("client requires --addr HOST:PORT".to_string())?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    match op.as_str() {
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            println!("ok");
        }
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?
            );
        }
        "embed" => {
            let preset = flags
                .str("preset")
                .ok_or("client embed requires --preset NAME".to_string())?;
            let flow = dagsfc_core::Flow::unit(
                dagsfc_net::NodeId(flags.usize_or("src", 0)? as u32),
                dagsfc_net::NodeId(flags.usize_or("dst", 1)? as u32),
            );
            let algo = flags
                .str("algo")
                .map(|a| Algo::parse(a).ok_or_else(|| format!("unknown algorithm '{a}'")));
            let algo = match algo {
                Some(r) => Some(r?),
                None => None,
            };
            let max_width = match flags.str("max-width") {
                Some(_) => Some(flags.usize_or("max-width", 3)?),
                None => None,
            };
            let reply = client
                .embed_preset(preset, &flow, max_width, algo, flags.u64_or("seed", 0)?)
                .map_err(|e| e.to_string())?;
            match reply {
                EmbedReply::Accepted { lease, cost } => {
                    println!("accepted: {lease}, cost {cost}");
                }
                EmbedReply::Rejected(reason) => println!("rejected: {reason}"),
            }
        }
        "release" => {
            let lease = flags
                .str("lease")
                .ok_or("client release requires --lease ID".to_string())?
                .parse::<u64>()
                .map_err(|_| "bad --lease".to_string())?;
            client.release(LeaseId(lease)).map_err(|e| e.to_string())?;
            println!("released lease#{lease}");
        }
        "replay" => {
            let path = flags
                .str("trace")
                .ok_or("client replay requires --trace FILE".to_string())?;
            let trace = sim_io::load_trace(&PathBuf::from(path)).map_err(|e| e.to_string())?;
            let report = replay(&mut client, &trace).map_err(|e| e.to_string())?;
            let m = &report.metrics;
            println!(
                "replayed {} arrivals: {} accepted, {} rejected (ratio {:.3}), total cost {:.6}",
                trace.arrivals,
                m.accepted,
                m.rejected,
                m.acceptance_ratio(),
                report.total_cost()
            );
            if m.accepted == 0 {
                return Err("replay accepted zero requests".into());
            }
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server draining");
        }
        other => return Err(format!("unknown client operation '{other}'")),
    }
    Ok(())
}

/// `dagsfc replay`: the self-contained equivalence harness — spawn an
/// in-process daemon, replay the trace through a real socket, and
/// verify the outcome against the in-process simulation.
///
/// `--shards N` partitions the substrate into N region shards with
/// gateway stitching. The final stats are checked in-process:
/// `audits_failed` must be zero, and a multi-shard replay must actually
/// exercise cross-shard stitching.
///
/// ```text
/// dagsfc replay --trace FILE [--queue 64] [--shards 1] [--verify]
/// ```
pub fn replay_main(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["verify"], &["trace", "queue", "shards"])?;
    let path = flags
        .str("trace")
        .ok_or("replay requires --trace FILE".to_string())?;
    let trace = sim_io::load_trace(&PathBuf::from(path)).map_err(|e| e.to_string())?;
    let cfg = batch_config(&flags, trace.algo)?;
    let shards = cfg.shards;
    let handle = batch::spawn_batched(instance_network(&trace.base), shards, cfg, "127.0.0.1:0")
        .map_err(|e| format!("spawn server: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    let report = replay(&mut client, &trace).map_err(|e| e.to_string())?;
    drop(client);
    let final_stats = handle.join();
    let m = &report.metrics;
    println!(
        "replayed {} arrivals over TCP: {} accepted, {} rejected (ratio {:.3}), total cost {:.6}",
        trace.arrivals,
        m.accepted,
        m.rejected,
        m.acceptance_ratio(),
        report.total_cost()
    );
    println!(
        "server: oracle {}h/{}m, solver cache {}h/{}m, {} leases released",
        final_stats.oracle.hits,
        final_stats.oracle.misses,
        final_stats.solver_cache_hits,
        final_stats.solver_cache_misses,
        final_stats.released
    );
    println!(
        "shards: {} regions, cross-shard {}/{} accepted, audits_failed {}",
        final_stats.shards,
        final_stats.cross_shard_accepted,
        final_stats.cross_shard_offered,
        final_stats.audits_failed
    );
    if final_stats.audits_failed != 0 {
        return Err(format!(
            "constraint auditor rejected {} committed embeddings",
            final_stats.audits_failed
        ));
    }
    if shards > 1 && final_stats.cross_shard_accepted == 0 {
        return Err("multi-shard replay accepted zero cross-shard embeddings; \
             the gateway-stitching path was never exercised"
            .into());
    }
    if flags.has("verify") {
        // The reference runs the schedule the file holds, not a fresh
        // draw from its seed.
        let sim = run_trace(&instance_network(&trace.base), &trace);
        if sim.per_arrival != report.per_arrival || sim.departure_order != report.departure_order {
            return Err(format!(
                "replay DIVERGED from simulation: sim accepted {} (cost {:.6}), \
                 replay accepted {} (cost {:.6})",
                sim.metrics.accepted,
                sim.total_cost(),
                report.metrics.accepted,
                report.total_cost()
            ));
        }
        println!(
            "verified: bit-for-bit equal to in-process lifecycle \
             ({} accepted, total cost {:.6})",
            sim.metrics.accepted,
            sim.total_cost()
        );
    }
    Ok(())
}
