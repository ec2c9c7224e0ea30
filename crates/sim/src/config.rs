//! Simulation configuration (paper Table 2).
//!
//! `SimConfig::default()` is exactly the paper's *basic configuration*:
//! network size 500, connectivity 6, VNF deploying ratio 50%, average
//! price ratio 20%, VNF price fluctuation ratio 5%, SFC size 5. Absolute
//! scales (mean VNF price, capacities, flow rate/size) are fixed at the
//! unit values the paper implies — only ratios matter for the reported
//! trends.

use dagsfc_core::VnfCatalog;
use dagsfc_net::{NetError, NetGenConfig};
use serde::{Deserialize, Serialize};

/// Parameters of one simulation instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Network size: number of nodes (Table 2: 500).
    pub network_size: usize,
    /// Network connectivity: average node degree (Table 2: 6).
    pub connectivity: f64,
    /// VNF deploying ratio (Table 2: 50%).
    pub vnf_deploy_ratio: f64,
    /// Average price ratio: mean link price / mean VNF price
    /// (Table 2: 20%).
    pub avg_price_ratio: f64,
    /// VNF price fluctuation ratio (Table 2: 5%).
    pub vnf_price_fluctuation: f64,
    /// SFC size: number of VNFs in the chain (Table 2: 5).
    pub sfc_size: usize,
    /// Number of regular VNF kinds available from the providers.
    pub vnf_kinds: usize,
    /// "Every three VNFs can be assigned in the same layer" (§5.1): the
    /// SFC generator's maximum parallel-set width.
    pub max_layer_width: usize,
    /// Runs per instance — the paper averages 100 SFCs per point.
    pub runs: usize,
    /// Master seed; every run derives its own sub-seed deterministically.
    pub seed: u64,
    /// Flow delivery rate `R`.
    pub rate: f64,
    /// Flow size `z`.
    pub flow_size: f64,
    /// Processing capability per VNF instance. The paper's evaluation
    /// never saturates capacities; the default is effectively unbounded.
    pub vnf_capacity: f64,
    /// Bandwidth per link (same remark).
    pub link_capacity: f64,
    /// Average per-link propagation delay (µs) fed to the network
    /// generator; `None` uses the generator's default. `Option`
    /// because committed traces predate per-link delays and must keep
    /// deserializing.
    pub link_delay_us: Option<f64>,
    /// End-to-end delay budget (µs) attached to every generated flow;
    /// `None` runs best-effort (the paper's setting). `Option` for the
    /// same trace-compatibility reason.
    pub delay_budget_us: Option<f64>,
    /// Probability that a generated request carries one affinity pair
    /// (two distinct kinds of the chain that must co-locate). `None`
    /// generates rule-free requests with zero extra RNG draws, so
    /// committed traces predating placement rules replay bit-identical.
    pub affinity_rate: Option<f64>,
    /// Probability that a generated request carries one anti-affinity
    /// pair (two distinct kinds of the chain that must never share a
    /// node). Same `None` semantics as `affinity_rate`.
    pub anti_affinity_rate: Option<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            network_size: 500,
            connectivity: 6.0,
            vnf_deploy_ratio: 0.5,
            avg_price_ratio: 0.2,
            vnf_price_fluctuation: 0.05,
            sfc_size: 5,
            vnf_kinds: 12,
            max_layer_width: 3,
            runs: 100,
            seed: 0x5fc_d46,
            rate: 1.0,
            flow_size: 1.0,
            vnf_capacity: 1e6,
            link_capacity: 1e6,
            link_delay_us: None,
            delay_budget_us: None,
            affinity_rate: None,
            anti_affinity_rate: None,
        }
    }
}

impl SimConfig {
    /// A scaled-down profile for tests and quick demos: 60-node network,
    /// 10 runs, otherwise Table 2 ratios.
    pub fn quick() -> Self {
        SimConfig {
            network_size: 60,
            runs: 10,
            ..SimConfig::default()
        }
    }

    /// The VNF catalog implied by this configuration.
    pub fn catalog(&self) -> VnfCatalog {
        VnfCatalog::new(self.vnf_kinds as u16)
    }

    /// Checks that this configuration can generate instances: its
    /// [`net_gen`](Self::net_gen) projection passes
    /// [`NetGenConfig::validate`], [`crate::sfcgen`] can draw its chains
    /// (a positive size and layer width, and at least as many kinds as
    /// the chain has VNFs), and its flows pass
    /// [`Flow::validate`](dagsfc_core::Flow::validate). Every generator
    /// entry point assumes this holds.
    pub fn validate(&self) -> Result<(), NetError> {
        // Kinds are u16 ids, and the merger takes the one after the last
        // regular kind.
        if self.vnf_kinds > usize::from(u16::MAX) {
            return Err(NetError::InvalidParameter(
                "vnf_kinds must be at most 65535",
            ));
        }
        self.net_gen().validate()?;
        if self.sfc_size == 0 {
            return Err(NetError::InvalidParameter("sfc_size must be positive"));
        }
        if self.max_layer_width == 0 {
            return Err(NetError::InvalidParameter(
                "max_layer_width must be positive",
            ));
        }
        if self.sfc_size > self.vnf_kinds {
            return Err(NetError::InvalidParameter(
                "sfc_size must not exceed vnf_kinds",
            ));
        }
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return Err(NetError::InvalidParameter("rate must be finite and > 0"));
        }
        if !(self.flow_size.is_finite() && self.flow_size >= 0.0) {
            return Err(NetError::InvalidParameter(
                "flow_size must be finite and >= 0",
            ));
        }
        if let Some(budget) = self.delay_budget_us {
            if !(budget.is_finite() && budget >= 0.0) {
                return Err(NetError::InvalidParameter(
                    "delay_budget_us must be finite and >= 0",
                ));
            }
        }
        Ok(())
    }

    /// The network-generator configuration implied by this configuration
    /// (deployable kinds = regular kinds + the merger).
    pub fn net_gen(&self) -> NetGenConfig {
        NetGenConfig {
            nodes: self.network_size,
            avg_degree: self.connectivity,
            vnf_kinds: self.vnf_kinds + 1,
            deploy_ratio: self.vnf_deploy_ratio,
            avg_vnf_price: 1.0,
            vnf_price_fluctuation: self.vnf_price_fluctuation,
            avg_price_ratio: self.avg_price_ratio,
            link_price_fluctuation: self.vnf_price_fluctuation,
            vnf_capacity: self.vnf_capacity,
            link_capacity: self.link_capacity,
            avg_link_delay_us: self.link_delay_us.unwrap_or(DEFAULT_LINK_DELAY_US),
            link_delay_fluctuation: 0.05,
            ensure_full_coverage: true,
        }
    }
}

/// Generator default mean link delay (µs) when the profile does not pin
/// one; matches `NetGenConfig::default()`.
pub const DEFAULT_LINK_DELAY_US: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = SimConfig::default();
        assert_eq!(c.network_size, 500);
        assert_eq!(c.connectivity, 6.0);
        assert_eq!(c.vnf_deploy_ratio, 0.5);
        assert_eq!(c.avg_price_ratio, 0.2);
        assert_eq!(c.vnf_price_fluctuation, 0.05);
        assert_eq!(c.sfc_size, 5);
        assert_eq!(c.runs, 100);
        assert_eq!(c.max_layer_width, 3);
    }

    #[test]
    fn net_gen_projection() {
        let c = SimConfig::default();
        let g = c.net_gen();
        assert_eq!(g.nodes, 500);
        assert_eq!(g.vnf_kinds, 13); // 12 regular + merger
        assert!((g.avg_link_price() - 0.2).abs() < 1e-12);
        assert!(g.ensure_full_coverage);
    }

    #[test]
    fn catalog_projection() {
        let c = SimConfig::default();
        let cat = c.catalog();
        assert_eq!(cat.regular_count(), 12);
        assert_eq!(cat.merger().0, 12);
    }

    #[test]
    fn validate_refuses_what_the_generators_cannot_draw() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        assert_eq!(SimConfig::quick().validate(), Ok(()));
        let bad: [fn(&mut SimConfig); 12] = [
            |c| c.delay_budget_us = Some(-5.0),
            |c| c.delay_budget_us = Some(f64::NAN),
            |c| c.delay_budget_us = Some(f64::INFINITY),
            |c| c.network_size = 0,
            |c| c.connectivity = -1.0,
            |c| c.vnf_deploy_ratio = 2.0,
            |c| c.vnf_capacity = -1.0,
            |c| c.sfc_size = 0,
            |c| c.max_layer_width = 0,
            |c| c.vnf_kinds = 0,
            |c| c.vnf_kinds = usize::MAX,
            |c| c.rate = 0.0,
        ];
        for (i, edit) in bad.iter().enumerate() {
            let mut c = SimConfig::default();
            edit(&mut c);
            assert!(c.validate().is_err(), "case {i} passed: {c:?}");
        }
        // A zero budget is legal: only co-located chains can meet it.
        let zero = SimConfig {
            delay_budget_us: Some(0.0),
            ..SimConfig::default()
        };
        assert_eq!(zero.validate(), Ok(()));
    }

    #[test]
    fn quick_profile_shrinks_only_scale() {
        let q = SimConfig::quick();
        assert_eq!(q.network_size, 60);
        assert_eq!(q.runs, 10);
        assert_eq!(q.connectivity, 6.0);
        assert_eq!(q.sfc_size, 5);
    }
}
