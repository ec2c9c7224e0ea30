//! Reuse accounting against a reference kept here: per-instance and
//! per-link use counts in `BTreeMap`s, a `HashSet` of links per
//! multicast group, and a load vector over every link.
//!
//! Seeded embeddings on small substrates with tight capacities cover
//! inter-layer links a multicast group shares, inner-layer links charged
//! more than once, instances several slots reuse, overloaded links and
//! instances, and slots on nodes that do not deploy their kind. The
//! sparse `Accounting` must equal the reference bit for bit: both cost
//! terms, every load, and the missing-instance error. `validate` must
//! report the reference's capacity violations, in its order, after its
//! structural ones.

use std::collections::{BTreeMap, HashSet};

use dagsfc_core::{
    meta_paths, validate, DagSfc, Embedding, Endpoint, Flow, Layer, MetaPathKind, ModelError,
    Violation, VnfCatalog,
};
use dagsfc_net::routing::{min_cost_path, NoFilter};
use dagsfc_net::{LinkId, Network, NodeId, Path, VnfTypeId, CAP_EPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Regular VNF kinds; the merger is kind `KINDS`.
const KINDS: u16 = 4;

/// A ring of `n` nodes plus chords; small link and instance capacities
/// so that a few uses overload them. Every node deploys the merger and
/// about half the regular kinds; node `k` deploys kind `k`.
fn network(rng: &mut StdRng, n: u32) -> Network {
    let mut g = Network::new();
    g.add_nodes(n as usize);
    let caps = [1.0, 2.0, 2.5, 4.0];
    let link = |g: &mut Network, rng: &mut StdRng, a: u32, b: u32| {
        let price = [0.5, 1.0, 1.0, 1.7][rng.gen_range(0..4usize)];
        // lint:allow(unwrap) — test fixture: endpoints exist, values valid
        g.add_link(NodeId(a), NodeId(b), price, caps[rng.gen_range(0..4usize)])
            .unwrap();
    };
    for v in 0..n {
        link(&mut g, rng, v, (v + 1) % n);
    }
    for v in (0..n / 2).step_by(3) {
        link(&mut g, rng, v, (v + n / 2) % n);
    }
    for v in 0..n {
        for k in 0..=KINDS {
            if k == KINDS || v == u32::from(k) || rng.gen_bool(0.5) {
                let price = 1.0 + f64::from(rng.gen_range(0..5u8)) * 0.3;
                // lint:allow(unwrap) — test fixture: values valid
                g.deploy_vnf(
                    NodeId(v),
                    VnfTypeId(k),
                    price,
                    caps[rng.gen_range(0..4usize)],
                )
                .unwrap();
            }
        }
    }
    g
}

/// A chain of two or three layers of width one to three; kinds repeat
/// across layers, and every parallel layer reuses the merger kind.
fn chain(rng: &mut StdRng) -> DagSfc {
    let layers = (0..rng.gen_range(2..4))
        .map(|_| {
            let width = rng.gen_range(1..4);
            let first = rng.gen_range(0..KINDS);
            Layer::new((0..width).map(|i| VnfTypeId((first + i) % KINDS)).collect())
        })
        .collect();
    // lint:allow(unwrap) — test fixture: layers are non-empty and distinct within
    DagSfc::new(layers, VnfCatalog::new(KINDS)).unwrap()
}

/// Assigns every slot — mostly to a host of its kind, often the host an
/// earlier slot of that kind took, now and then to a random node that
/// may not deploy it — and routes every meta-path on a cheapest path,
/// some through a detour node that can cross a link twice.
fn embedding(rng: &mut StdRng, g: &Network, sfc: &DagSfc, flow: &Flow) -> Embedding {
    let catalog = sfc.catalog();
    let mut taken: Vec<(VnfTypeId, NodeId)> = Vec::new();
    let assignments: Vec<Vec<NodeId>> = sfc
        .layers()
        .iter()
        .map(|layer| {
            (0..layer.slot_count())
                .map(|slot| {
                    let kind = layer.slot_kind(slot, catalog);
                    let earlier = taken.iter().find(|t| t.0 == kind).map(|t| t.1);
                    let hosts = g.hosts_of(kind);
                    let node = match (rng.gen_range(0..10), earlier) {
                        (0, _) => NodeId(rng.gen_range(0..g.node_count() as u32)),
                        (1..=4, Some(node)) => node,
                        _ => hosts[rng.gen_range(0..hosts.len())],
                    };
                    taken.push((kind, node));
                    node
                })
                .collect()
        })
        .collect();
    let at = |ep| match ep {
        Endpoint::Source => flow.src,
        Endpoint::Destination => flow.dst,
        Endpoint::Slot { layer, slot } => assignments[layer][slot],
    };
    let cheapest = |a, b| min_cost_path(g, a, b, &NoFilter).expect("connected ring");
    let paths = meta_paths(sfc)
        .iter()
        .map(|mp| {
            let (from, to) = (at(mp.from), at(mp.to));
            if rng.gen_bool(0.2) {
                let via = NodeId(rng.gen_range(0..g.node_count() as u32));
                let mut nodes = cheapest(from, via).nodes().to_vec();
                nodes.extend_from_slice(&cheapest(via, to).nodes()[1..]);
                Path::from_nodes(g, nodes).expect("walk of adjacent nodes")
            } else {
                cheapest(from, to)
            }
        })
        .collect();
    Embedding::new(sfc, assignments, paths).expect("shaped to the chain")
}

/// What the reference accounting found.
struct Reference {
    vnf: f64,
    link: f64,
    vnf_load: BTreeMap<(NodeId, VnfTypeId), f64>,
    link_load: Vec<f64>,
    missing: Option<(NodeId, VnfTypeId)>,
    /// Whether some link was shared within a group, charged twice
    /// across inner paths, or some instance reused.
    shared: bool,
    repeated: bool,
    reused: bool,
}

/// The reference: use counts in `BTreeMap`s summed in key order, one
/// `HashSet` per multicast group, a load vector over every link.
fn reference(g: &Network, sfc: &DagSfc, flow: &Flow, emb: &Embedding) -> Reference {
    let catalog = sfc.catalog();
    let mut vnf_uses: BTreeMap<(NodeId, VnfTypeId), u32> = BTreeMap::new();
    for (l, slots) in emb.assignments().iter().enumerate() {
        for (slot, &node) in slots.iter().enumerate() {
            *vnf_uses
                .entry((node, sfc.layer(l).slot_kind(slot, catalog)))
                .or_insert(0) += 1;
        }
    }
    let (mut vnf, mut missing) = (0.0, None);
    let mut vnf_load = BTreeMap::new();
    for (&(node, kind), &uses) in &vnf_uses {
        let price = g.instance(node, kind).map_or_else(
            || {
                missing.get_or_insert((node, kind));
                f64::INFINITY
            },
            |i| i.price,
        );
        vnf += uses as f64 * price * flow.size;
        vnf_load.insert((node, kind), uses as f64 * flow.rate);
    }
    let mut link_uses: BTreeMap<LinkId, u32> = BTreeMap::new();
    let mut groups: BTreeMap<usize, HashSet<LinkId>> = BTreeMap::new();
    let (mut shared, mut inner_uses) = (false, BTreeMap::<LinkId, u32>::new());
    for (mp, path) in meta_paths(sfc).iter().zip(emb.paths()) {
        for &l in path.links() {
            let counted = match mp.kind {
                MetaPathKind::InterLayer => groups.entry(mp.group).or_default().insert(l),
                MetaPathKind::InnerLayer => {
                    *inner_uses.entry(l).or_insert(0) += 1;
                    true
                }
            };
            shared |= !counted;
            if counted {
                *link_uses.entry(l).or_insert(0) += 1;
            }
        }
    }
    let mut link = 0.0;
    let mut link_load = vec![0.0; g.link_count()];
    for (&l, &uses) in &link_uses {
        link += uses as f64 * g.link(l).price * flow.size;
        link_load[l.index()] = uses as f64 * flow.rate;
    }
    Reference {
        vnf,
        link,
        vnf_load,
        link_load,
        missing,
        shared,
        repeated: inner_uses.values().any(|&u| u > 1),
        reused: vnf_uses.values().any(|&u| u > 1),
    }
}

/// The capacity violations the dense reference implies, in the order
/// the validator reports them: instances by key, then links by id.
fn capacity_violations(g: &Network, r: &Reference) -> Vec<Violation> {
    let mut out = Vec::new();
    for (&(node, kind), &load) in &r.vnf_load {
        if let Some(i) = g.instance(node, kind) {
            if load > i.capacity + CAP_EPS {
                out.push(Violation::VnfOverload {
                    node,
                    kind,
                    load,
                    capacity: i.capacity,
                });
            }
        }
    }
    for (i, &load) in r.link_load.iter().enumerate() {
        let link = LinkId(i as u32);
        let capacity = g.link(link).capacity;
        if load > capacity + CAP_EPS {
            out.push(Violation::LinkOverload {
                link,
                load,
                capacity,
            });
        }
    }
    out
}

#[test]
fn sparse_accounting_equals_the_dense_reference() {
    // shared, repeated, reused, link overload, instance overload, missing
    let mut seen = [0usize; 6];
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = network(&mut rng, 8 + (seed % 7) as u32);
        let sfc = chain(&mut rng);
        let n = g.node_count() as u32;
        let flow = Flow {
            src: NodeId(rng.gen_range(0..n)),
            dst: NodeId(rng.gen_range(0..n)),
            rate: [0.5, 1.0, 1.25][rng.gen_range(0..3usize)],
            size: [1.0, 0.7, 3.0][rng.gen_range(0..3usize)],
            delay_budget_us: None,
        };
        let emb = embedding(&mut rng, &g, &sfc, &flow);
        let r = reference(&g, &sfc, &flow, &emb);
        let capacity = capacity_violations(&g, &r);
        seen[0] += usize::from(r.shared);
        seen[1] += usize::from(r.repeated);
        seen[2] += usize::from(r.reused);
        seen[3] += usize::from(
            capacity
                .iter()
                .any(|v| matches!(v, Violation::LinkOverload { .. })),
        );
        seen[4] += usize::from(
            capacity
                .iter()
                .any(|v| matches!(v, Violation::VnfOverload { .. })),
        );
        seen[5] += usize::from(r.missing.is_some());

        match (emb.try_account(&g, &sfc, &flow), r.missing) {
            (Err(e), Some((node, kind))) => {
                assert_eq!(
                    e,
                    ModelError::MissingVnfInstance { node, kind },
                    "seed {seed}"
                );
            }
            (Ok(acct), None) => {
                assert_eq!(acct.cost.vnf.to_bits(), r.vnf.to_bits(), "seed {seed}");
                assert_eq!(acct.cost.link.to_bits(), r.link.to_bits(), "seed {seed}");
                let bits = |(k, v): (_, f64)| (k, v.to_bits());
                let want: Vec<_> = r.vnf_load.iter().map(|(&k, &v)| bits((k, v))).collect();
                let got: Vec<_> = acct.vnf_load.iter().map(|&e| bits(e)).collect();
                assert_eq!(got, want, "seed {seed}");
                let mut dense = vec![0.0; g.link_count()];
                for (k, &(l, load)) in acct.link_load.iter().enumerate() {
                    assert!(load > 0.0, "seed {seed}: unused {l:?} listed");
                    assert!(
                        k == 0 || acct.link_load[k - 1].0 < l,
                        "seed {seed}: unsorted"
                    );
                    dense[l.index()] = load;
                }
                let dense: Vec<u64> = dense.iter().map(|d| d.to_bits()).collect();
                let want: Vec<u64> = r.link_load.iter().map(|d| d.to_bits()).collect();
                assert_eq!(dense, want, "seed {seed}");
            }
            (got, want) => panic!("seed {seed}: accounting {got:?}, reference missing {want:?}"),
        }

        match validate(&g, &sfc, &flow, &emb) {
            Ok(cost) => {
                assert!(capacity.is_empty() && r.missing.is_none(), "seed {seed}");
                assert_eq!(cost.total().to_bits(), (r.vnf + r.link).to_bits());
            }
            Err(violations) => {
                let capacity_kind = |v: &&Violation| {
                    matches!(
                        v,
                        Violation::VnfOverload { .. } | Violation::LinkOverload { .. }
                    )
                };
                let mut want: Vec<Violation> = violations
                    .iter()
                    .filter(|v| !capacity_kind(v))
                    .cloned()
                    .collect();
                want.extend(capacity);
                assert_eq!(violations, want, "seed {seed}");
            }
        }
    }
    assert!(seen.iter().all(|&k| k > 0), "cases reached: {seen:?}");
}
