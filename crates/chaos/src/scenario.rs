//! A chaos scenario: one frozen arrival/departure schedule plus one
//! frozen fault plan — everything a bit-for-bit reproducible chaos run
//! needs, in one JSON file.

use crate::plan::{ChaosIntensity, FaultPlan};
use dagsfc_net::Network;
use dagsfc_sim::io::{check_trace, IoError};
use dagsfc_sim::runner::instance_network;
use dagsfc_sim::{export_trace, LifecycleConfig, ReplayTrace};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current scenario file format version.
pub const SCENARIO_FORMAT_VERSION: u32 = 1;

/// Everything one chaos run needs, frozen. The network and per-arrival
/// requests are regenerated from `trace.base` (pure functions of the
/// seed), exactly like plain trace replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosScenario {
    /// Version tag for forward compatibility.
    pub format_version: u32,
    /// The offered load: arrivals, departures, algorithm, substrate.
    pub trace: ReplayTrace,
    /// The misfortune: faults and client misbehavior.
    pub plan: FaultPlan,
}

impl ChaosScenario {
    /// Freezes a scenario: export the lifecycle trace, then draw the
    /// fault plan against it.
    pub fn generate(cfg: &LifecycleConfig, chaos_seed: u64, intensity: &ChaosIntensity) -> Self {
        let trace = export_trace(cfg);
        let net = instance_network(&trace.base);
        let plan = FaultPlan::generate(&net, &trace, chaos_seed, intensity);
        ChaosScenario {
            format_version: SCENARIO_FORMAT_VERSION,
            trace,
            plan,
        }
    }

    /// The substrate network this scenario runs against.
    pub fn network(&self) -> Network {
        instance_network(&self.trace.base)
    }
}

/// Scenario file IO failures.
#[derive(Debug)]
pub enum ScenarioError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid scenario.
    Json(serde_json::Error),
    /// The file is from a newer format.
    UnsupportedVersion(u32),
    /// The file's trace is malformed (see [`check_trace`]).
    Trace(IoError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "scenario io: {e}"),
            ScenarioError::Json(e) => write!(f, "scenario parse: {e}"),
            ScenarioError::UnsupportedVersion(v) => {
                write!(f, "unsupported scenario format version {v}")
            }
            ScenarioError::Trace(e) => write!(f, "scenario trace: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Writes `scenario` as pretty JSON (stable field order, committable).
pub fn save_scenario(path: &Path, scenario: &ChaosScenario) -> Result<(), ScenarioError> {
    let json = serde_json::to_string_pretty(scenario).map_err(ScenarioError::Json)?;
    std::fs::write(path, json + "\n").map_err(ScenarioError::Io)
}

/// Loads a scenario file, checking its version and its trace's
/// schedule.
pub fn load_scenario(path: &Path) -> Result<ChaosScenario, ScenarioError> {
    let raw = std::fs::read_to_string(path).map_err(ScenarioError::Io)?;
    let scenario: ChaosScenario = serde_json::from_str(&raw).map_err(ScenarioError::Json)?;
    if scenario.format_version > SCENARIO_FORMAT_VERSION {
        return Err(ScenarioError::UnsupportedVersion(scenario.format_version));
    }
    check_trace(&scenario.trace).map_err(ScenarioError::Trace)?;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsfc_sim::{Algo, SimConfig};

    fn cfg() -> LifecycleConfig {
        LifecycleConfig {
            base: SimConfig {
                network_size: 20,
                seed: 0x5CEA,
                ..SimConfig::default()
            },
            arrivals: 24,
            mean_holding: 5.0,
            algo: Algo::Mbbe,
        }
    }

    #[test]
    fn scenario_roundtrips_through_disk() {
        let scenario = ChaosScenario::generate(&cfg(), 9, &ChaosIntensity::default());
        let dir = std::env::temp_dir().join("dagsfc-chaos-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        save_scenario(&path, &scenario).unwrap();
        let back = load_scenario(&path).unwrap();
        assert_eq!(back.format_version, SCENARIO_FORMAT_VERSION);
        assert_eq!(back.plan, scenario.plan);
        assert_eq!(back.trace.depart_at, scenario.trace.depart_at);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_gate_rejects_future_files() {
        let mut scenario = ChaosScenario::generate(&cfg(), 9, &ChaosIntensity::default());
        scenario.format_version = SCENARIO_FORMAT_VERSION + 1;
        let dir = std::env::temp_dir().join("dagsfc-chaos-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("future.json");
        save_scenario(&path, &scenario).unwrap();
        assert!(matches!(
            load_scenario(&path),
            Err(ScenarioError::UnsupportedVersion(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
