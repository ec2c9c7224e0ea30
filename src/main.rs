//! `dagsfc` — command-line front end for the DAG-SFC workspace.
//!
//! ```text
//! dagsfc generate  --nodes 100 --degree 6 --kinds 8 --seed 7 --out net.json [--dot net.dot]
//! dagsfc instance  --nodes 100 --sfc-size 5 --seed 7 --out inst.json
//! dagsfc embed     --instance inst.json --algo mbbe [--dot embedding.dot]
//! dagsfc embed     --nodes 100 --sfc-size 5 --seed 7 --algo bbe
//! dagsfc online    --nodes 60 --requests 100 --capacity 8 --algo mbbe,ranv
//! dagsfc figures   [fig6a|...|runtime|all] [--full]
//! dagsfc ilp       --nodes 8 --sfc-size 2 --seed 1 [--out model.lp]
//! dagsfc serve     --addr 127.0.0.1:4600 --workers 2 --queue 64 --algo mbbe
//! dagsfc client    ping|stats|embed|release|replay|shutdown --addr HOST:PORT
//! dagsfc trace     --out trace.json --arrivals 50 --mean-holding 8
//! dagsfc replay    --trace trace.json --workers 4 --verify
//! dagsfc audit     --trace trace.json [--network net.json] [--json]
//! dagsfc chaos     gen --out chaos.json --arrivals 50 --chaos-seed 7
//! dagsfc chaos     run --scenario chaos.json --workers 4 --verify
//! ```
//!
//! Everything is deterministic in `--seed`.

use dagsfc::core::solvers::{self, Solver};
use dagsfc::core::{validate, IlpModel};
use dagsfc::net::{to_dot, DotOptions};
use dagsfc::serve::cli::Flags;
use dagsfc::sim::online::{acceptance_sweep, acceptance_table};
use dagsfc::sim::runner::{instance_network, instance_request};
use dagsfc::sim::{io as sim_io, report, sweep, Algo, SimConfig, SweepResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest: Vec<String> = args.collect();
    // The serving subcommands share the serve crate's own CLI layer
    // (the same code behind the standalone `dagsfc-serve` binary).
    let served = match command.as_str() {
        "serve" => Some(dagsfc::serve::cli::daemon_main(&rest)),
        "client" => Some(dagsfc::serve::cli::client_main(&rest)),
        "trace" => Some(dagsfc::serve::cli::trace_main(&rest)),
        "replay" => Some(dagsfc::serve::cli::replay_main(&rest)),
        "chaos" => Some(dagsfc::chaos::chaos_main(&rest)),
        _ => None,
    };
    if let Some(result) = served {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match Flags::parse(&rest, &["full", "exact", "protect", "json"]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `audit` distinguishes its failure modes via exit code: 0 clean,
    // 1 constraint violations, 2 usage, 3 unreadable/invalid input —
    // so CI and scripts can tell "the embeddings are bad" apart from
    // "the file is bad".
    if command == "audit" {
        return match cmd_audit(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(AuditCmdError::Usage(e)) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
            Err(AuditCmdError::Input(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(3)
            }
            Err(AuditCmdError::Violations(e)) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match command.as_str() {
        "generate" => cmd_generate(&opts),
        "instance" => cmd_instance(&opts),
        "embed" => cmd_embed(&opts),
        "online" => cmd_online(&opts),
        "figures" => cmd_figures(&opts),
        "topology" => cmd_topology(&opts),
        "quality" => cmd_quality(&opts),
        "ilp" => cmd_ilp(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "dagsfc — minimum-cost embedding of SFCs with parallel VNFs (ICPP 2018)

USAGE:
  dagsfc generate  --nodes N [--degree D] [--kinds K] [--seed S] --out FILE [--dot FILE]
  dagsfc instance  --nodes N [--sfc-size L] [--seed S] --out FILE
  dagsfc embed     (--instance FILE | --nodes N [--sfc-size L] [--seed S])
                   [--algo mbbe|mbbe-st|bbe|minv|ranv|exact|grasp]
                   [--dot FILE] [--save FILE] [--protect]
  dagsfc online    [--nodes N] [--requests R] [--capacity C] [--algo a,b,...]
  dagsfc figures   [fig6a|fig6b|fig6c|fig6d|fig6e|fig6f|runtime|all] [--full] [--out-dir DIR]
  dagsfc topology  [--nodes N] [--runs R] [--sfc-size L]
  dagsfc quality   [--nodes N] [--runs R] [--exact]
  dagsfc ilp       [--nodes N] [--sfc-size L] [--seed S] [--k K] [--out FILE]
  dagsfc serve     [--addr A] [--workers W] [--queue Q] [--algo NAME] [--shards N]
                   [--network FILE | --nodes N --seed S --capacity C]
  dagsfc client    ping|stats|embed|release|replay|shutdown --addr HOST:PORT [...]
  dagsfc trace     --out FILE [--arrivals R] [--mean-holding H] [--algo NAME]
                   [--link-delay US] [--delay-budget US]
                   [--affinity-rate P] [--anti-affinity-rate P]
  dagsfc replay    --trace FILE [--workers W] [--queue Q] [--shards N] [--verify]
  dagsfc audit     --trace FILE [--network FILE] [--json]
                   (exit codes: 0 clean, 1 violations, 2 usage, 3 bad input)
  dagsfc chaos     gen --out FILE [--arrivals R] [--chaos-seed C] [...]
  dagsfc chaos     run --scenario FILE [--workers W] [--verify]";

fn sim_config(opts: &Flags) -> Result<SimConfig, String> {
    Ok(SimConfig {
        network_size: opts.usize_or("nodes", 100)?,
        connectivity: opts.f64_or("degree", 6.0)?,
        vnf_kinds: opts.usize_or("kinds", 12)?,
        sfc_size: opts.usize_or("sfc-size", 5)?,
        seed: opts.u64_or("seed", SimConfig::default().seed)?,
        vnf_capacity: opts.f64_or("capacity", 1e6)?,
        link_capacity: opts.f64_or("capacity", 1e6)?,
        ..SimConfig::default()
    })
}

fn make_solver(name: &str, seed: u64) -> Result<Box<dyn Solver>, String> {
    solvers::by_name(name, seed).ok_or_else(|| format!("unknown algorithm '{name}'"))
}

fn cmd_generate(opts: &Flags) -> Result<(), String> {
    let cfg = sim_config(opts)?;
    let out = opts
        .path("out")
        .ok_or("generate requires --out FILE".to_string())?;
    let net = instance_network(&cfg);
    sim_io::save_network(&out, &net).map_err(|e| e.to_string())?;
    let s = net.stats();
    println!(
        "generated {} nodes / {} links (avg degree {:.1}, {} VNF instances) -> {}",
        s.nodes,
        s.links,
        s.avg_degree,
        s.vnf_instances,
        out.display()
    );
    if let Some(dot) = opts.path("dot") {
        write_dot(&dot, &to_dot(&net, &DotOptions::default()))?;
    }
    Ok(())
}

fn cmd_instance(opts: &Flags) -> Result<(), String> {
    let cfg = sim_config(opts)?;
    let out = opts
        .path("out")
        .ok_or("instance requires --out FILE".to_string())?;
    let network = instance_network(&cfg);
    let (sfc, flow) = instance_request(&cfg, &network, 0);
    let instance = sim_io::SavedInstance {
        format_version: sim_io::FORMAT_VERSION,
        config: cfg,
        network,
        sfc,
        flow,
    };
    sim_io::save_instance(&out, &instance).map_err(|e| e.to_string())?;
    println!(
        "instance: chain {} from {} to {} -> {}",
        instance.sfc,
        instance.flow.src,
        instance.flow.dst,
        out.display()
    );
    Ok(())
}

fn cmd_embed(opts: &Flags) -> Result<(), String> {
    let (network, sfc, flow) = if let Some(path) = opts.path("instance") {
        let inst = sim_io::load_instance(&path).map_err(|e| e.to_string())?;
        (inst.network, inst.sfc, inst.flow)
    } else {
        let cfg = sim_config(opts)?;
        let network = instance_network(&cfg);
        let (sfc, flow) = instance_request(&cfg, &network, 0);
        (network, sfc, flow)
    };
    let algo = opts.str("algo").unwrap_or("mbbe");
    let seed = opts.u64_or("seed", 0)?;
    let solver = make_solver(algo, seed)?;
    let out = solver
        .solve(&network, &sfc, &flow)
        .map_err(|e| e.to_string())?;
    validate(&network, &sfc, &flow, &out.embedding)
        .map_err(|v| format!("solver returned an invalid embedding: {v:?}"))?;
    println!("chain:  {sfc}");
    println!("flow:   {} -> {}", flow.src, flow.dst);
    println!(
        "{}: {} ({} candidates explored, {:.1}µs)",
        solver.name(),
        out.cost,
        out.stats.explored,
        out.stats.elapsed.as_secs_f64() * 1e6
    );
    println!(
        "stats:  {} nodes expanded, {} candidates generated ({} pruned), \
         path cache {:.0}% hit ({}h/{}m)",
        out.stats.nodes_expanded,
        out.stats.candidates_generated,
        out.stats.candidates_pruned,
        out.stats.cache_hit_rate() * 100.0,
        out.stats.cache_hits,
        out.stats.cache_misses
    );
    for (l, slots) in out.embedding.assignments().iter().enumerate() {
        let layer = sfc.layer(l);
        for (s, node) in slots.iter().enumerate() {
            let kind = layer.slot_kind(s, sfc.catalog());
            println!("  L{l}[{s}] {kind} -> {node}");
        }
    }
    if opts.has("protect") {
        match dagsfc::core::protect(&network, &sfc, &flow, &out.embedding) {
            Ok(p) => println!(
                "protection: {} meta-paths backed up, +{:.3} backup link cost; \
                 survives every single-link failure",
                p.protected_count(),
                p.backup_cost.link
            ),
            Err(e) => println!("protection unavailable: {e}"),
        }
    }
    if let Some(path) = opts.path("save") {
        sim_io::save_solution(
            &path,
            &sim_io::SavedSolution {
                format_version: sim_io::FORMAT_VERSION,
                solver: solver.name().to_string(),
                embedding: out.embedding.clone(),
                cost: out.cost,
            },
        )
        .map_err(|e| e.to_string())?;
        println!("solution written to {}", path.display());
    }
    if let Some(dot) = opts.path("dot") {
        let mut nodes: Vec<_> = out
            .embedding
            .assignments()
            .iter()
            .flatten()
            .copied()
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let links: Vec<_> = out
            .embedding
            .paths()
            .iter()
            .flat_map(|p| p.links().iter().copied())
            .collect();
        let dot_opts = DotOptions {
            name: "embedding".to_string(),
            highlight_nodes: nodes,
            highlight_links: links,
            ..DotOptions::default()
        };
        write_dot(&dot, &to_dot(&network, &dot_opts))?;
    }
    Ok(())
}

fn cmd_online(opts: &Flags) -> Result<(), String> {
    let mut cfg = sim_config(opts)?;
    if !opts.has("capacity") {
        // Online runs need finite capacities to be interesting.
        cfg.vnf_capacity = 8.0;
        cfg.link_capacity = 8.0;
    }
    let requests = opts.usize_or("requests", 100)?;
    let algo_list = opts.str("algo").unwrap_or("mbbe,minv,ranv");
    let algos: Vec<Algo> = algo_list
        .split(',')
        .map(|a| match a.trim() {
            "mbbe" => Ok(Algo::Mbbe),
            "mbbe-st" => Ok(Algo::MbbeSt),
            "bbe" => Ok(Algo::Bbe),
            "minv" => Ok(Algo::Minv),
            "ranv" => Ok(Algo::Ranv),
            other => Err(format!("unknown algorithm '{other}'")),
        })
        .collect::<Result<_, _>>()?;
    let quarter = (requests / 4).max(1);
    let levels: Vec<usize> = (1..=4).map(|i| i * quarter).collect();
    let rows = acceptance_sweep(&cfg, &algos, &levels);
    println!(
        "online embedding on {} nodes, capacities {}/{} rate units:",
        cfg.network_size, cfg.vnf_capacity, cfg.link_capacity
    );
    println!("{}", acceptance_table(&rows));
    Ok(())
}

fn cmd_figures(opts: &Flags) -> Result<(), String> {
    let which = opts.positional.first().map(String::as_str).unwrap_or("all");
    let base = if opts.has("full") {
        SimConfig::default()
    } else {
        SimConfig {
            network_size: 60,
            runs: 10,
            ..SimConfig::default()
        }
    };
    let out_dir = opts
        .path("out-dir")
        .unwrap_or_else(|| PathBuf::from("target/figures"));
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    type FigureFn = fn(&SimConfig) -> SweepResult;
    let figures: Vec<(&str, FigureFn)> = vec![
        ("fig6a", sweep::fig6a),
        ("fig6b", sweep::fig6b),
        ("fig6c", sweep::fig6c),
        ("fig6d", sweep::fig6d),
        ("fig6e", sweep::fig6e),
        ("fig6f", sweep::fig6f),
        ("runtime", sweep::runtime_sweep),
    ];
    let mut ran = false;
    for (id, run) in figures {
        if which != "all" && which != id {
            continue;
        }
        ran = true;
        let result = run(&base);
        if id == "runtime" {
            println!("{}", report::runtime_table(&result));
        }
        println!("{}", report::ascii_table(&result));
        println!("{}", report::instrumentation_table(&result));
        std::fs::write(out_dir.join(format!("{id}.csv")), report::csv(&result))
            .map_err(|e| e.to_string())?;
        sim_io::save_sweep(&out_dir.join(format!("{id}.json")), &result)
            .map_err(|e| e.to_string())?;
    }
    if !ran {
        return Err(format!("unknown figure '{which}'"));
    }
    println!("series written to {}", out_dir.display());
    Ok(())
}

fn cmd_topology(opts: &Flags) -> Result<(), String> {
    use dagsfc::sim::sweep::topology::{default_battery, topology_sweep, topology_table};
    let mut cfg = sim_config(opts)?;
    cfg.network_size = opts.usize_or("nodes", 36)?;
    cfg.runs = opts.usize_or("runs", 10)?;
    let points = topology_sweep(
        &cfg,
        &[Algo::Mbbe, Algo::Minv, Algo::Ranv],
        &default_battery(cfg.network_size),
    );
    println!("{}", topology_table(&points));
    Ok(())
}

fn cmd_quality(opts: &Flags) -> Result<(), String> {
    use dagsfc::sim::sweep::quality::{quality_experiment, quality_table};
    let with_exact = opts.has("exact");
    let mut cfg = sim_config(opts)?;
    if with_exact {
        // Exact solver territory: tiny instances only.
        cfg.network_size = opts.usize_or("nodes", 9)?;
        cfg.vnf_kinds = 4;
        cfg.sfc_size = opts.usize_or("sfc-size", 2)?;
    } else {
        cfg.network_size = opts.usize_or("nodes", 60)?;
    }
    cfg.runs = opts.usize_or("runs", 10)?;
    let rows = quality_experiment(
        &cfg,
        &[Algo::Mbbe, Algo::Bbe, Algo::Grasp, Algo::Minv, Algo::Ranv],
        with_exact,
    );
    println!("{}", quality_table(&rows));
    Ok(())
}

fn cmd_ilp(opts: &Flags) -> Result<(), String> {
    let cfg = SimConfig {
        network_size: opts.usize_or("nodes", 8)?,
        sfc_size: opts.usize_or("sfc-size", 2)?,
        vnf_kinds: opts.usize_or("kinds", 4)?,
        seed: opts.u64_or("seed", 1)?,
        ..SimConfig::default()
    };
    let k = opts.usize_or("k", 4)?;
    let network = instance_network(&cfg);
    let (sfc, flow) = instance_request(&cfg, &network, 0);
    let model = IlpModel::build(&network, &sfc, &flow, k);
    println!(
        "model: {} assignment vars, {} path vars, {} constraints",
        model.stats.assignment_vars, model.stats.path_vars, model.stats.constraints
    );
    match opts.path("out") {
        Some(path) => {
            std::fs::write(&path, model.to_lp_string()).map_err(|e| e.to_string())?;
            println!("LP written to {}", path.display());
        }
        None => print!("{}", model.to_lp_string()),
    }
    Ok(())
}

/// Why `dagsfc audit` failed — each variant maps to a distinct exit
/// code so callers can react differently to "bad embeddings" (1),
/// "bad invocation" (2), and "bad input file" (3).
enum AuditCmdError {
    Usage(String),
    Input(String),
    Violations(String),
}

fn cmd_audit(opts: &Flags) -> Result<(), AuditCmdError> {
    let trace_path = opts
        .path("trace")
        .ok_or_else(|| AuditCmdError::Usage("audit requires --trace FILE".to_string()))?;
    let trace = sim_io::load_trace(&trace_path).map_err(|e| AuditCmdError::Input(e.to_string()))?;
    // The trace's base config regenerates the exact network the replay
    // ran against; --network overrides it for externally saved nets.
    let net = match opts.path("network") {
        Some(p) => sim_io::load_network(&p).map_err(|e| AuditCmdError::Input(e.to_string()))?,
        None => instance_network(&trace.base),
    };
    let outcome = dagsfc::sim::audit_trace(&net, &trace);
    if opts.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome)
                .map_err(|e| AuditCmdError::Input(e.to_string()))?
        );
    } else {
        println!(
            "audited {} ({} arrivals): {} accepted, {} rejected",
            trace_path.display(),
            outcome.arrivals,
            outcome.accepted,
            outcome.rejected
        );
        println!(
            "constraint audit: {}/{} clean, max cost drift {:.3e}",
            outcome.clean, outcome.accepted, outcome.max_cost_drift
        );
        for finding in &outcome.findings {
            println!(
                "  arrival {} (reported cost {:.6}):",
                finding.arrival, finding.reported_cost
            );
            for v in &finding.violations {
                println!("    {v}");
            }
        }
    }
    if outcome.is_clean() {
        Ok(())
    } else {
        Err(AuditCmdError::Violations(format!(
            "{} of {} accepted embeddings violated paper constraints",
            outcome.findings.len(),
            outcome.accepted
        )))
    }
}

fn write_dot(path: &Path, dot: &str) -> Result<(), String> {
    std::fs::write(path, dot).map_err(|e| e.to_string())?;
    println!("DOT written to {}", path.display());
    Ok(())
}
