//! Traffic flows, embedding requests, and the placement-rule
//! vocabulary (affinity / anti-affinity NF pairs and the precedence
//! order a partial-order chain carries).

use crate::chain::DagSfc;
use dagsfc_net::{NodeId, VnfTypeId};
use serde::{Deserialize, Serialize};

/// Co-location and anti-co-location rules over VNF kinds (Allybokus et
/// al., arXiv 1705.10554): `affinity` pairs must share one substrate
/// node, `anti_affinity` pairs must never share one.
///
/// Semantics, per pair `(a, b)`:
/// * **affinity** — if the chain places at least one slot of kind `a`
///   *and* at least one of kind `b`, then every slot of either kind
///   must land on one single common node (vacuous when either kind is
///   absent from the embedding);
/// * **anti-affinity** — no substrate node may host both a slot of
///   kind `a` and a slot of kind `b`.
///
/// Rules ride on the [`DagSfc`] (see [`DagSfc::with_rules`]) so every
/// carrier of a chain — solver, auditor, daemon, trace — sees them
/// without signature changes; both fields are plain pair lists so the
/// wire form is self-describing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementRules {
    /// Kind pairs that must co-locate.
    pub affinity: Vec<(VnfTypeId, VnfTypeId)>,
    /// Kind pairs that must never co-locate.
    pub anti_affinity: Vec<(VnfTypeId, VnfTypeId)>,
}

impl PlacementRules {
    /// Whether no rule is present at all.
    pub fn is_empty(&self) -> bool {
        self.affinity.is_empty() && self.anti_affinity.is_empty()
    }
}

/// The precedence edges of a partial-order chain, carried alongside its
/// layered rendering.
///
/// Edges are over *flattened regular-slot positions*: position `p` is
/// the `p`-th regular (non-merger) VNF slot when reading the chain's
/// layers in order. An edge `(i, j)` asserts that position `i`'s layer
/// must come strictly before position `j`'s — which the greedy
/// linear-extension layering guarantees by construction, and which the
/// auditor re-checks independently on every embedding so a hand-built
/// or wire-supplied layering cannot silently violate the DAG.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrecedenceOrder {
    /// Precedence edges `(i, j)` over flattened regular-slot positions.
    pub edges: Vec<(u32, u32)>,
}

impl PrecedenceOrder {
    /// Whether the order imposes no constraint.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// A traffic flow (paper §3.2, "Model of Traffic Flow"): size `z`,
/// delivery rate `R`, and a source–destination pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Source node `s`.
    pub src: NodeId,
    /// Destination node `t`.
    pub dst: NodeId,
    /// Delivery rate `R` in rate units; drives all capacity checks.
    pub rate: f64,
    /// Flow size `z`; multiplies every price term of the objective.
    pub size: f64,
    /// Optional end-to-end delay budget `D_max` in microseconds. `None`
    /// means best-effort: no deadline is enforced anywhere. `Some(d)`
    /// makes every solver reject embeddings whose modeled delay exceeds
    /// `d`, and the auditor re-checks the bound independently.
    /// (`Option` also keeps pre-budget serialized requests loadable.)
    pub delay_budget_us: Option<f64>,
}

impl Flow {
    /// A unit flow (`R = z = 1`) between `src` and `dst` — the scale used
    /// throughout the paper's simulations, where only ratios matter.
    pub fn unit(src: NodeId, dst: NodeId) -> Self {
        Flow {
            src,
            dst,
            rate: 1.0,
            size: 1.0,
            delay_budget_us: None,
        }
    }

    /// The same flow with an end-to-end delay budget attached.
    pub fn with_delay_budget(mut self, budget_us: f64) -> Self {
        self.delay_budget_us = Some(budget_us);
        self
    }

    /// Checks the flow's numbers: the rate must be finite and positive,
    /// the size finite and non-negative (a zero-size flow is legal and
    /// costs nothing), and a delay budget finite and non-negative (a
    /// budget of 0 is legal: only co-located chains meet it). The error
    /// names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return Err(format!(
                "flow rate must be finite and > 0 (got {})",
                self.rate
            ));
        }
        if !(self.size.is_finite() && self.size >= 0.0) {
            return Err(format!(
                "flow size must be finite and >= 0 (got {})",
                self.size
            ));
        }
        if let Some(budget) = self.delay_budget_us {
            if !(budget.is_finite() && budget >= 0.0) {
                return Err(format!(
                    "flow delay_budget_us must be finite and >= 0 (got {budget})"
                ));
            }
        }
        Ok(())
    }
}

/// A complete embedding request: the chain plus the flow to carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingRequest {
    /// The DAG-SFC to embed.
    pub sfc: DagSfc,
    /// The traffic flow traversing it.
    pub flow: Flow,
}

impl EmbeddingRequest {
    /// Bundles a chain and a flow.
    pub fn new(sfc: DagSfc, flow: Flow) -> Self {
        EmbeddingRequest { sfc, flow }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::VnfTypeId;

    #[test]
    fn unit_flow() {
        let f = Flow::unit(NodeId(0), NodeId(5));
        assert_eq!(f.rate, 1.0);
        assert_eq!(f.size, 1.0);
        assert_eq!(f.src, NodeId(0));
        assert_eq!(f.dst, NodeId(5));
        assert_eq!(f.delay_budget_us, None);
        let g = f.with_delay_budget(120.0);
        assert_eq!(g.delay_budget_us, Some(120.0));
    }

    /// Pre-budget payloads (no `delay_budget_us` key) must keep
    /// deserializing: the Option field decodes missing keys to `None`.
    #[test]
    fn flow_payload_without_budget_still_loads() {
        let legacy = Flow::unit(NodeId(3), NodeId(7));
        let mut v = legacy.to_value();
        if let serde::value::Value::Object(entries) = &mut v {
            entries.retain(|(k, _)| k.as_str() != "delay_budget_us");
        } else {
            panic!("flow must serialize as an object");
        }
        let back = Flow::from_value(&v).unwrap();
        assert_eq!(back, legacy);
        // And budgets round-trip when present.
        let budgeted = legacy.with_delay_budget(50.0);
        let back = Flow::from_value(&budgeted.to_value()).unwrap();
        assert_eq!(back.delay_budget_us, Some(50.0));
    }

    #[test]
    fn validate_names_the_bad_field() {
        let unit = Flow::unit(NodeId(0), NodeId(1));
        assert_eq!(unit.validate(), Ok(()));
        assert_eq!(unit.with_delay_budget(0.0).validate(), Ok(()));
        assert_eq!(Flow { size: 0.0, ..unit }.validate(), Ok(()));
        for (flow, field) in [
            (Flow { rate: 0.0, ..unit }, "rate"),
            (
                Flow {
                    rate: f64::NAN,
                    ..unit
                },
                "rate",
            ),
            (Flow { size: -1.0, ..unit }, "size"),
            (unit.with_delay_budget(-5.0), "delay_budget_us"),
            (unit.with_delay_budget(f64::NAN), "delay_budget_us"),
            (unit.with_delay_budget(f64::INFINITY), "delay_budget_us"),
            (unit.with_delay_budget(f64::NEG_INFINITY), "delay_budget_us"),
        ] {
            let err = flow.validate().unwrap_err();
            assert!(err.contains(field), "{flow:?}: {err}");
        }
    }

    #[test]
    fn request_bundles() {
        let sfc = DagSfc::new(vec![Layer::new(vec![VnfTypeId(0)])], VnfCatalog::new(2)).unwrap();
        let req = EmbeddingRequest::new(sfc.clone(), Flow::unit(NodeId(1), NodeId(2)));
        assert_eq!(req.sfc, sfc);
        assert_eq!(req.flow.src, NodeId(1));
    }
}
