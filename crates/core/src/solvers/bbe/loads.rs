//! Lineage loads: what a sub-solution-tree lineage already uses of the
//! residual (paper constraints (2)(3) under the eqs. (7)–(10)
//! accounting).
//!
//! A lineage — the layer sub-solutions from the root down to one tree
//! node — fixes the first layers of every embedding completed under it.
//! Its uses only grow as layers are added: a link counts once per layer
//! multicast that crosses it plus once per inner path over it, a VNF
//! instance once per slot on it (a chain that crosses a link `k` times
//! uses `k·R` of it). So a lineage whose uses already overload a link or
//! an instance, by the validator's own test, can never validate, not
//! even with a delay-bounded final path.
//!
//! The search drops such a lineage, and so tracks loads only where
//! dropping moves no accepted embedding: while no level cut can bind
//! (MBBE on at most five layers), with or without a delay budget. Under
//! a budget a dead lineage is dropped before its delay is checked, so a
//! request is a deadline rejection only if a lineage that does not
//! overload the residual blew the budget. Only resources this chain can
//! overload are counted: a link that every use the chain can make of it
//! fits (capacity 1e6 in Fig. 6), or an instance of a kind the chain
//! places once, never binds. When no resource binds, tracking is off
//! and the search runs as if this module did not exist.

use super::candidates::LayerSubs;
use super::stamped::Stamped;
use crate::chain::{DagSfc, Layer};
use crate::validate::overloaded;
use crate::vnf::VnfCatalog;
use dagsfc_net::{Network, NodeId, VnfTypeId};
use std::cell::RefCell;

/// One layer sub-solution's uses of one resource it can overload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Use {
    /// Resource id: a link id, or a VNF instance past the links (see
    /// [`Loads::instance`]).
    res: u32,
    /// Uses by this sub-solution.
    count: u32,
    /// The resource's residual capacity.
    capacity: f64,
}

/// How one chain under one flow rate loads the residual: which
/// resources it can overload and how their uses are counted.
#[derive(Debug)]
pub(crate) struct Loads {
    rate: f64,
    links: usize,
    /// The chain's slot kinds (mergers included), sorted, each with how
    /// many slots of the chain take it.
    kinds: Vec<(VnfTypeId, u32)>,
    /// The most uses one embedding of the chain can make of a link:
    /// once per layer multicast and per inner path, plus the final path.
    link_uses_max: u32,
}

impl Loads {
    /// The load model of `sfc` at `rate` over a network of `links` links.
    pub fn new(sfc: &DagSfc, catalog: &VnfCatalog, rate: f64, links: usize) -> Self {
        let mut kinds: Vec<(VnfTypeId, u32)> = Vec::new();
        let mut link_uses_max = 1;
        for layer in crate::solvers::layering::layers(sfc) {
            link_uses_max += 1;
            if layer.needs_merger() {
                link_uses_max += layer.width() as u32;
            }
            for slot in 0..layer.slot_count() {
                let kind = layer.slot_kind(slot, catalog);
                match kinds.binary_search_by_key(&kind, |&(k, _)| k) {
                    Ok(i) => kinds[i].1 += 1,
                    Err(i) => kinds.insert(i, (kind, 1)),
                }
            }
        }
        Loads {
            rate,
            links,
            kinds,
            link_uses_max,
        }
    }

    /// Whether a link of residual `capacity` that carries the flow at
    /// all can be overloaded by one embedding of the chain.
    pub fn link_binds(&self, capacity: f64) -> bool {
        overloaded(f64::from(self.link_uses_max) * self.rate, capacity)
    }

    /// Whether some instance the chain can use binds: the chain places
    /// its kind more than once, the instance carries the flow once, and
    /// not every placement fits.
    pub fn any_instance_binds(&self, net: &Network) -> bool {
        self.kinds.iter().any(|&(kind, slots)| {
            slots > 1
                && net.hosts_of(kind).iter().any(|&n| {
                    net.instance(n, kind).is_some_and(|i| {
                        !overloaded(self.rate, i.capacity)
                            && overloaded(f64::from(slots) * self.rate, i.capacity)
                    })
                })
        })
    }

    /// The resource id of instance `(node, kind)` — past every link id,
    /// one per (node, chain kind) — and the chain's slot count of `kind`.
    fn instance(&self, node: NodeId, kind: VnfTypeId) -> Option<(u32, u32)> {
        let i = self.kinds.binary_search_by_key(&kind, |&(k, _)| k).ok()?;
        let res = u32::try_from(self.links + node.index() * self.kinds.len() + i).ok()?;
        Some((res, self.kinds[i].1))
    }

    /// The uses each sub-solution in `arena`, an embedding of `layer`,
    /// makes of the resources the chain can overload: each link once per
    /// multicast over it and once per inner path over it, each instance
    /// once per slot.
    pub fn use_lists(
        &self,
        net: &Network,
        layer: &Layer,
        catalog: &VnfCatalog,
        arena: &LayerSubs,
    ) -> UseLists {
        let mut lists = UseLists::default();
        SCRATCH.with(|cell| {
            let counts = &mut cell.borrow_mut().links;
            for sub in arena.subs() {
                counts.begin(self.links);
                let uses = &mut lists.uses;
                let from = uses.len();
                let inter = arena.inter_paths(sub).map(|p| (p, true));
                let inner = arena.inner_paths(sub).map(|p| (p, false));
                for (path, multicast) in inter.chain(inner) {
                    for &l in path.links() {
                        let capacity = net.link(l).capacity;
                        if !self.link_binds(capacity) {
                            continue;
                        }
                        let seen = counts.get(l.0) > 0;
                        if !seen {
                            uses.push(Use {
                                res: l.0,
                                count: 0,
                                capacity,
                            });
                        }
                        if !(seen && multicast) {
                            counts.add(l.0, 1);
                        }
                    }
                }
                for u in &mut uses[from..] {
                    u.count = counts.get(u.res);
                }
                for (slot, node) in arena.assignment(sub).enumerate() {
                    let kind = layer.slot_kind(slot, catalog);
                    let (Some((res, slots)), Some(inst)) =
                        (self.instance(node, kind), net.instance(node, kind))
                    else {
                        continue;
                    };
                    if !overloaded(f64::from(slots) * self.rate, inst.capacity) {
                        continue;
                    }
                    match uses[from..].iter_mut().find(|u| u.res == res) {
                        Some(u) => u.count += 1,
                        None => uses.push(Use {
                            res,
                            count: 1,
                            capacity: inst.capacity,
                        }),
                    }
                }
                lists.ends.push(uses.len() as u32);
            }
        });
        lists
    }

    /// Runs `check` with the accumulated uses of a lineage, given as
    /// the use lists of its layer sub-solutions.
    pub fn with_lineage<'u, R>(
        &self,
        lineage: impl Iterator<Item = &'u [Use]>,
        check: impl FnOnce(&LineageLoad<'_>) -> R,
    ) -> R {
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.links.begin(self.links);
            scratch.instances.clear();
            for u in lineage.flatten() {
                if (u.res as usize) < self.links {
                    scratch.links.add(u.res, u.count);
                } else {
                    scratch.instances.push((u.res, u.count));
                }
            }
            check(&LineageLoad {
                scratch,
                links: self.links,
                rate: self.rate,
            })
        })
    }
}

/// The use lists of one layer expansion's sub-solutions, in one arena.
#[derive(Debug, Default)]
pub(crate) struct UseLists {
    uses: Vec<Use>,
    /// Where each sub-solution's list ends in `uses`.
    ends: Vec<u32>,
}

impl UseLists {
    /// The uses of sub-solution `i`.
    pub fn get(&self, i: usize) -> &[Use] {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.uses[start..self.ends[i] as usize]
    }
}

/// A lineage's accumulated uses, lent by [`Loads::with_lineage`].
pub(crate) struct LineageLoad<'s> {
    scratch: &'s Scratch,
    links: usize,
    rate: f64,
}

impl LineageLoad<'_> {
    /// Whether the lineage extended by a sub-solution with `uses`
    /// overloads a resource, by the validator's own test on
    /// `uses · rate`.
    pub fn overloads_with(&self, uses: &[Use]) -> bool {
        uses.iter().any(|u| {
            let n = self.uses_of(u.res) + u.count;
            overloaded(f64::from(n) * self.rate, u.capacity)
        })
    }

    /// The lineage's uses of resource `res`.
    fn uses_of(&self, res: u32) -> u32 {
        if (res as usize) < self.links {
            self.scratch.links.get(res)
        } else {
            let instances = self.scratch.instances.iter();
            instances.filter(|&&(r, _)| r == res).map(|&(_, n)| n).sum()
        }
    }
}

/// Per-thread load counting space: link uses by link id, and a lineage's
/// instance uses as a short list (a lineage places a few slots, so a
/// scan beats an array over every (node, kind)).
#[derive(Debug)]
struct Scratch {
    links: Stamped,
    instances: Vec<(u32, u32)>,
}

thread_local! {
    /// Reused by every solve on the thread (the sim runner solves on
    /// several threads at once).
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            links: Stamped::new(),
            instances: Vec::new(),
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link takes one use per layer multicast and per inner path plus
    /// the final path; kinds count their slots, the merger included.
    #[test]
    fn the_load_model_counts_uses_per_embedding() {
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(0)]);
        let loads = Loads::new(
            &DagSfc::new(vec![layer], VnfCatalog::new(1)).unwrap(),
            &VnfCatalog::new(1),
            1.0,
            0,
        );
        assert_eq!(
            loads.link_uses_max, 4,
            "two inner paths, the multicast and the final path"
        );
        assert_eq!(loads.kinds, vec![(VnfTypeId(0), 2), (VnfTypeId(1), 1)]);
    }
}
