//! Instance and result persistence (JSON).
//!
//! Reproducibility plumbing: generated networks, full embedding
//! instances (network + chain + flow), and sweep results can be saved
//! to disk and reloaded, so a published experiment can ship its exact
//! inputs. JSON via `serde_json` (justified in DESIGN.md: results and
//! instances need a portable interchange format; everything else in the
//! workspace stays dependency-light).

use crate::config::SimConfig;
use crate::sweep::SweepResult;
use dagsfc_core::{CostBreakdown, DagSfc, Embedding, Flow};
use dagsfc_net::{NetError, Network};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// A self-contained embedding instance: everything a solver needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedInstance {
    /// Version tag for forward compatibility.
    pub format_version: u32,
    /// The configuration that generated the instance (provenance).
    pub config: SimConfig,
    /// The target network.
    pub network: Network,
    /// The chain to embed.
    pub sfc: DagSfc,
    /// The flow to carry.
    pub flow: Flow,
}

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors from instance I/O.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io(io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// The file's format version is unsupported.
    UnsupportedVersion(u32),
    /// The file's network breaks a rule `Network`'s constructors
    /// enforce (see [`Network::rebuilt`]), or has no nodes.
    InvalidNetwork(NetError),
    /// A trace's base configuration cannot generate instances (see
    /// [`SimConfig::validate`]).
    InvalidConfig(NetError),
    /// A trace's departure schedule does not give each arrival exactly
    /// one departure time.
    ScheduleLength {
        /// Arrivals the trace declares.
        arrivals: usize,
        /// Departure times it lists.
        departures: usize,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            IoError::ScheduleLength {
                arrivals,
                departures,
            } => write!(
                f,
                "trace lists {departures} departure times for {arrivals} arrivals"
            ),
            IoError::InvalidNetwork(e) => write!(f, "invalid network: {e}"),
            IoError::InvalidConfig(e) => write!(f, "invalid simulation config: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Json(e)
    }
}

/// Saves an instance as pretty JSON.
pub fn save_instance(path: &Path, instance: &SavedInstance) -> Result<(), IoError> {
    let json = serde_json::to_string_pretty(instance)?;
    fs::write(path, json)?;
    Ok(())
}

/// Loads an instance, checking the format version and rebuilding its
/// network through the validating constructors.
pub fn load_instance(path: &Path) -> Result<SavedInstance, IoError> {
    let data = fs::read_to_string(path)?;
    let mut instance: SavedInstance = serde_json::from_str(&data)?;
    if instance.format_version != FORMAT_VERSION {
        return Err(IoError::UnsupportedVersion(instance.format_version));
    }
    instance.network = instance
        .network
        .rebuilt()
        .map_err(IoError::InvalidNetwork)?;
    Ok(instance)
}

/// Saves a network alone (e.g. for DOT-less visualization pipelines).
pub fn save_network(path: &Path, net: &Network) -> Result<(), IoError> {
    fs::write(path, serde_json::to_string_pretty(net)?)?;
    Ok(())
}

/// Loads a network saved by [`save_network`], rebuilt through the
/// validating constructors. A network with no nodes is refused: no flow
/// can be drawn over it.
pub fn load_network(path: &Path) -> Result<Network, IoError> {
    let net: Network = serde_json::from_str(&fs::read_to_string(path)?)?;
    if net.node_count() == 0 {
        return Err(IoError::InvalidNetwork(NetError::InvalidParameter(
            "network has no nodes",
        )));
    }
    net.rebuilt().map_err(IoError::InvalidNetwork)
}

/// Saves a sweep result as JSON (CSV/ASCII renderings live in
/// [`crate::report`]).
pub fn save_sweep(path: &Path, sweep: &SweepResult) -> Result<(), IoError> {
    fs::write(path, serde_json::to_string_pretty(sweep)?)?;
    Ok(())
}

/// Saves a replay trace (see [`crate::lifecycle::ReplayTrace`]) as
/// pretty JSON.
pub fn save_trace(path: &Path, trace: &crate::lifecycle::ReplayTrace) -> Result<(), IoError> {
    fs::write(path, serde_json::to_string_pretty(trace)?)?;
    Ok(())
}

/// Loads a replay trace saved by [`save_trace`], checking the version
/// and the schedule ([`check_trace`]).
pub fn load_trace(path: &Path) -> Result<crate::lifecycle::ReplayTrace, IoError> {
    let trace: crate::lifecycle::ReplayTrace = serde_json::from_str(&fs::read_to_string(path)?)?;
    if trace.format_version != crate::lifecycle::TRACE_FORMAT_VERSION {
        return Err(IoError::UnsupportedVersion(trace.format_version));
    }
    check_trace(&trace)?;
    Ok(trace)
}

/// Checks that `trace` gives every arrival exactly one departure time,
/// as the lifecycle driver assumes, and that its base configuration can
/// generate the substrate and requests ([`SimConfig::validate`]). Its
/// per-arrival tables are then bounded by the file's size.
pub fn check_trace(trace: &crate::lifecycle::ReplayTrace) -> Result<(), IoError> {
    if trace.depart_at.len() != trace.arrivals {
        return Err(IoError::ScheduleLength {
            arrivals: trace.arrivals,
            departures: trace.depart_at.len(),
        });
    }
    trace.base.validate().map_err(IoError::InvalidConfig)
}

/// A solved instance: the embedding a solver produced, with provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedSolution {
    /// Version tag for forward compatibility.
    pub format_version: u32,
    /// Name of the algorithm that produced the embedding.
    pub solver: String,
    /// The embedding itself.
    pub embedding: Embedding,
    /// Its objective value at save time.
    pub cost: CostBreakdown,
}

/// Saves a solver's solution next to its instance.
pub fn save_solution(path: &Path, solution: &SavedSolution) -> Result<(), IoError> {
    fs::write(path, serde_json::to_string_pretty(solution)?)?;
    Ok(())
}

/// Loads a solution saved by [`save_solution`], checking the version.
pub fn load_solution(path: &Path) -> Result<SavedSolution, IoError> {
    let solution: SavedSolution = serde_json::from_str(&fs::read_to_string(path)?)?;
    if solution.format_version != FORMAT_VERSION {
        return Err(IoError::UnsupportedVersion(solution.format_version));
    }
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Algo;
    use crate::runner::{instance_network, instance_request};
    use crate::sweep;
    use dagsfc_net::NodeId;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dagsfc-io-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn instance() -> SavedInstance {
        let cfg = SimConfig {
            network_size: 20,
            sfc_size: 3,
            ..SimConfig::default()
        };
        let network = instance_network(&cfg);
        let (sfc, flow) = instance_request(&cfg, &network, 0);
        SavedInstance {
            format_version: FORMAT_VERSION,
            config: cfg,
            network,
            sfc,
            flow,
        }
    }

    #[test]
    fn instance_roundtrip() {
        let dir = tmpdir();
        let path = dir.join("instance.json");
        let inst = instance();
        save_instance(&path, &inst).unwrap();
        let loaded = load_instance(&path).unwrap();
        assert_eq!(loaded.sfc, inst.sfc);
        assert_eq!(loaded.flow, inst.flow);
        assert_eq!(loaded.network.node_count(), inst.network.node_count());
        assert_eq!(loaded.network.link_count(), inst.network.link_count());
        // Loaded network answers the same queries.
        for l in inst.network.link_ids() {
            assert_eq!(inst.network.link(l), loaded.network.link(l));
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn loaded_instance_is_solvable() {
        use dagsfc_core::solvers::{MbbeSolver, Solver};
        let dir = tmpdir();
        let path = dir.join("solve.json");
        let inst = instance();
        save_instance(&path, &inst).unwrap();
        let loaded = load_instance(&path).unwrap();
        let a = MbbeSolver::new()
            .solve(&inst.network, &inst.sfc, &inst.flow)
            .unwrap();
        let b = MbbeSolver::new()
            .solve(&loaded.network, &loaded.sfc, &loaded.flow)
            .unwrap();
        assert_eq!(a.embedding, b.embedding);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn version_check() {
        let dir = tmpdir();
        let path = dir.join("old.json");
        let mut inst = instance();
        inst.format_version = 99;
        save_instance(&path, &inst).unwrap();
        assert!(matches!(
            load_instance(&path),
            Err(IoError::UnsupportedVersion(99))
        ));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn network_roundtrip() {
        let dir = tmpdir();
        let path = dir.join("net.json");
        let net = instance().network;
        save_network(&path, &net).unwrap();
        let loaded = load_network(&path).unwrap();
        assert_eq!(net.stats(), loaded.stats());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn tampered_networks_are_rejected() {
        let dir = tmpdir();
        let path = dir.join("tampered.json");
        let mut net = Network::new();
        net.add_nodes(3);
        net.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        net.add_link(NodeId(1), NodeId(2), 1.0, 10.0).unwrap();
        let json = serde_json::to_string(&net).unwrap();
        assert!(json.contains("\"price\":1.0"), "{json}");

        // A negative link price: Dijkstra would route through it.
        fs::write(&path, json.replacen("\"price\":1.0", "\"price\":-10.0", 1)).unwrap();
        assert!(matches!(
            load_network(&path),
            Err(IoError::InvalidNetwork(NetError::InvalidParameter(
                "link price"
            )))
        ));

        // An adjacency entry naming a node that does not exist.
        let dangling = json.replacen("[[1,0]]", "[[999,0]]", 1);
        assert_ne!(dangling, json);
        fs::write(&path, dangling).unwrap();
        assert!(matches!(
            load_network(&path),
            Err(IoError::InvalidNetwork(NetError::InvalidParameter(
                "adjacency lists disagree with links"
            )))
        ));

        // Instances carry the same check.
        let mut inst = instance();
        inst.network = net;
        let mut text = serde_json::to_string(&inst).unwrap();
        text = text.replacen("\"price\":1.0", "\"price\":-10.0", 1);
        fs::write(&path, text).unwrap();
        assert!(matches!(
            load_instance(&path),
            Err(IoError::InvalidNetwork(NetError::InvalidParameter(
                "link price"
            )))
        ));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sweep_saves() {
        let dir = tmpdir();
        let path = dir.join("sweep.json");
        let base = SimConfig {
            network_size: 20,
            runs: 2,
            sfc_size: 2,
            ..SimConfig::default()
        };
        let result = sweep::sweep(
            "fig6a",
            "SFC size",
            &base,
            &[2.0],
            |cfg, x| cfg.sfc_size = x as usize,
            |_| vec![Algo::Minv],
        );
        save_sweep(&path, &result).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"fig6a\""));
        assert!(text.contains("MINV"));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn solution_roundtrip_revalidates() {
        use dagsfc_core::solvers::{MbbeSolver, Solver};
        use dagsfc_core::validate;
        let dir = tmpdir();
        let inst = instance();
        let out = MbbeSolver::new()
            .solve(&inst.network, &inst.sfc, &inst.flow)
            .unwrap();
        let path = dir.join("solution.json");
        save_solution(
            &path,
            &SavedSolution {
                format_version: FORMAT_VERSION,
                solver: "MBBE".into(),
                embedding: out.embedding.clone(),
                cost: out.cost,
            },
        )
        .unwrap();
        let loaded = load_solution(&path).unwrap();
        assert_eq!(loaded.solver, "MBBE");
        assert_eq!(loaded.embedding, out.embedding);
        // The reloaded embedding still validates against the instance and
        // reproduces the saved cost exactly.
        let cost = validate(&inst.network, &inst.sfc, &inst.flow, &loaded.embedding).unwrap();
        assert!((cost.total() - loaded.cost.total()).abs() < 1e-12);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn trace_roundtrip() {
        use crate::lifecycle::{export_trace, LifecycleConfig};
        let dir = tmpdir();
        let path = dir.join("trace.json");
        let trace = export_trace(&LifecycleConfig {
            base: SimConfig {
                network_size: 20,
                sfc_size: 3,
                ..SimConfig::default()
            },
            arrivals: 25,
            mean_holding: 4.0,
            algo: Algo::Mbbe,
        });
        save_trace(&path, &trace).unwrap();
        let loaded = load_trace(&path).unwrap();
        assert_eq!(loaded.depart_at, trace.depart_at);
        assert_eq!(loaded.arrivals, trace.arrivals);
        assert_eq!(loaded.algo, trace.algo);

        // A schedule that misses arrivals is refused at load time.
        let mut cut = trace;
        cut.depart_at.truncate(10);
        save_trace(&path, &cut).unwrap();
        assert!(matches!(
            load_trace(&path),
            Err(IoError::ScheduleLength {
                arrivals: 25,
                departures: 10
            })
        ));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(matches!(
            load_instance(Path::new("/nonexistent/dagsfc.json")),
            Err(IoError::Io(_))
        ));
    }
}
