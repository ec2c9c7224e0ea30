//! The designated layered-access compatibility module.
//!
//! Solvers consume chains through this module instead of iterating
//! [`DagSfc::layers`] directly: the layered rendering is *one*
//! admissible linear extension of the chain's partial order, and
//! funnelling every candidate-generation walk through a single seam is
//! what lets the workspace swap or re-derive that rendering without
//! touching solver internals. The `raw-layer-access` lint rule denies
//! direct `.layers()` / `.layer(...)` calls in solver code outside this
//! file, so the seam cannot erode by accident.
//!
//! The module also hosts [`verify_admissible`]: the pre-solve check
//! that a chain's carried [`crate::PrecedenceOrder`] is actually
//! honored by its layered rendering. Chains built by
//! [`DagSfc::from_partial_order`] satisfy it by construction; a
//! hand-built or wire-supplied chain can claim any order, and must be
//! rejected before a solver embeds it in the wrong sequence.

use crate::chain::{DagSfc, Layer};
use crate::error::{rule_infeasible_reason, SolveError};

/// The chain's layers, via the designated seam.
#[inline]
pub(crate) fn layers(sfc: &DagSfc) -> &[Layer] {
    sfc.layers()
}

/// One layer of the chain, via the designated seam.
#[inline]
pub(crate) fn layer(sfc: &DagSfc, l: usize) -> &Layer {
    sfc.layer(l)
}

/// The layer index of every flattened regular-slot position: position
/// `p` is the `p`-th non-merger VNF slot reading the layers in order.
/// This is the coordinate system [`crate::flow::PrecedenceOrder`] edges
/// are expressed in.
pub(crate) fn position_layers(sfc: &DagSfc) -> Vec<usize> {
    let mut out = Vec::with_capacity(sfc.size());
    for (l, layer) in layers(sfc).iter().enumerate() {
        out.extend(std::iter::repeat_n(l, layer.width()));
    }
    out
}

/// Verifies that the chain's layered rendering is an admissible linear
/// extension of the [`PrecedenceOrder`](crate::flow::PrecedenceOrder)
/// it carries: every edge `(i, j)` must cross strictly forward between
/// layers, and every position must exist. Chains without an order pass
/// trivially.
///
/// Run by [`Solver::solve_in`](super::Solver::solve_in) before the
/// search, so no solver can embed a wire-supplied layering that
/// contradicts its own declared partial order; failures classify as
/// rule-infeasible ([`crate::error::RULE_INFEASIBLE_PREFIX`]).
pub fn verify_admissible(sfc: &DagSfc) -> Result<(), SolveError> {
    let Some(order) = sfc.order() else {
        return Ok(());
    };
    let pos_layers = position_layers(sfc);
    for &(i, j) in &order.edges {
        let (i, j) = (i as usize, j as usize);
        if i >= pos_layers.len() || j >= pos_layers.len() {
            return Err(SolveError::Infeasible(rule_infeasible_reason(&format!(
                "precedence edge ({i}, {j}) names a position outside the chain's {} slots",
                pos_layers.len()
            ))));
        }
        if pos_layers[i] >= pos_layers[j] {
            return Err(SolveError::Infeasible(rule_infeasible_reason(&format!(
                "precedence edge ({i}, {j}) is not honored: layer {} !< layer {}",
                pos_layers[i], pos_layers[j]
            ))));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::PrecedenceOrder;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::VnfTypeId;

    fn sfc() -> DagSfc {
        // Two layers: [f0] then [f1, f2] — positions 0 | 1, 2.
        DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0)]),
                Layer::new(vec![VnfTypeId(1), VnfTypeId(2)]),
            ],
            VnfCatalog::new(4),
        )
        .unwrap()
    }

    #[test]
    fn position_layers_flatten_regular_slots() {
        assert_eq!(position_layers(&sfc()), vec![0, 1, 1]);
    }

    #[test]
    fn no_order_is_trivially_admissible() {
        assert!(verify_admissible(&sfc()).is_ok());
    }

    #[test]
    fn honored_order_passes() {
        let s = sfc().with_order(PrecedenceOrder {
            edges: vec![(0, 1), (0, 2)],
        });
        assert!(verify_admissible(&s).is_ok());
    }

    #[test]
    fn same_layer_edge_is_rejected_as_rule_infeasible() {
        // Positions 1 and 2 share a layer, so an edge between them
        // contradicts the layering.
        let s = sfc().with_order(PrecedenceOrder {
            edges: vec![(1, 2)],
        });
        let e = verify_admissible(&s).unwrap_err();
        assert!(e.to_string().contains("not honored"), "{e}");
    }

    #[test]
    fn backward_edge_is_rejected() {
        let s = sfc().with_order(PrecedenceOrder {
            edges: vec![(2, 0)],
        });
        assert!(verify_admissible(&s).is_err());
    }

    #[test]
    fn out_of_range_position_is_rejected() {
        let s = sfc().with_order(PrecedenceOrder {
            edges: vec![(0, 9)],
        });
        let e = verify_admissible(&s).unwrap_err();
        assert!(e.to_string().contains("outside the chain"), "{e}");
    }
}
