//! The engine's residual views are patched in place when the ledger
//! moves. These tests drive a seeded mix of every ledger mutation the
//! engine makes — accepted and rejected embeds, releases, link and node
//! faults, owner reclaims, a forced commit refusal and (with shards) a
//! forced audit rollback — and after every step compare the
//! unpartitioned view against a network rebuilt from the ledger's
//! state, capacity bit for capacity bit, CSR snapshot included. The
//! stitched views go through the same patch, and debug builds check
//! each patched refresh against a rebuild inside the engine.

use dagsfc_core::Flow;
use dagsfc_net::{FaultEvent, LinkId, Network, NetworkSnapshot, NodeId, CAP_EPS};
use dagsfc_shard::{ShardPlan, ShardRouter, ShardedEngine, StitchId};
use dagsfc_sim::runner::{instance_network, instance_request};
use dagsfc_sim::{arrival_seed, Algo, EmbedRejection, SimConfig};

/// A 40-node substrate tight enough that arrivals are both accepted
/// and rejected.
fn sim(seed: u64) -> SimConfig {
    SimConfig {
        network_size: 40,
        sfc_size: 4,
        vnf_capacity: 3.0,
        link_capacity: 3.0,
        seed,
        ..SimConfig::default()
    }
}

/// SplitMix64: the test's own seeded stream of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The unpartitioned residual as a fresh rebuild from the ledger: each
/// resource's remaining capacity, zero while it is out of service,
/// floored at zero.
fn rebuilt_from_ledgers(engine: &ShardedEngine<'_>) -> Network {
    let state = engine.raw_ledger().state();
    engine.network().map_capacities(
        |node, kind, _| {
            if !state.node_available(node) {
                return 0.0;
            }
            state.vnf_remaining(node, kind).expect("instance").max(0.0)
        },
        |link, _| {
            if !state.link_available(link) {
                return 0.0;
            }
            state.link_remaining(link).expect("link").max(0.0)
        },
    )
}

fn assert_view_is_current(engine: &mut ShardedEngine<'_>, step: &str) {
    let expected = rebuilt_from_ledgers(engine);
    let view = engine.unpartitioned_residual();
    for l in view.link_ids() {
        assert_eq!(
            view.link(l).capacity.to_bits(),
            expected.link(l).capacity.to_bits(),
            "{step}: link {l} capacity"
        );
    }
    for v in view.node_ids() {
        for (got, want) in view
            .node(v)
            .instances()
            .iter()
            .zip(expected.node(v).instances())
        {
            assert_eq!(
                got.capacity.to_bits(),
                want.capacity.to_bits(),
                "{step}: {v} instance {} capacity",
                got.vnf
            );
        }
    }
    assert_eq!(
        **view.snapshot(),
        NetworkSnapshot::build(&expected),
        "{step}: CSR snapshot"
    );
}

/// Forces the two rare ledger paths with rates a hair from the
/// capacity epsilon. Saturating request `i` a hair past the fresh
/// capacity leaves its resources a hair below zero; the view floors
/// them at zero, zero still admits a rate below `CAP_EPS`, so the same
/// request at such a rate lands on them and the ledger refuses the
/// commit. With shards, a rate below `CAP_EPS` also fits every zeroed
/// out-of-scope resource, so a solve that leaves the stitched scope
/// commits and is released again by the audit. Returns the number of
/// requests offered, commit refusals and audit rollbacks.
fn force_failures(
    engine: &mut ShardedEngine<'_>,
    sim: &SimConfig,
    net: &Network,
    live: &mut Vec<StitchId>,
) -> (u64, u32, u32) {
    let (mut offered, mut commit_failures, mut audit_rollbacks) = (0, 0, 0);
    let mut offer = |engine: &mut ShardedEngine<'_>, i: usize, rate: f64| {
        offered += 1;
        let (sfc, flow) = instance_request(sim, net, i);
        let flow = Flow { rate, ..flow };
        let result = engine.embed(&sfc, &flow, Algo::Mbbe, arrival_seed(sim.seed, i));
        match &result {
            Ok(acc) => live.push(acc.lease),
            Err(EmbedRejection::Commit(_)) => commit_failures += 1,
            Err(EmbedRejection::Audit(_)) => audit_rollbacks += 1,
            Err(_) => {}
        }
        assert_view_is_current(engine, &format!("request {i} at rate {rate:e}"));
        result.is_ok()
    };
    let hair = 0.9 * CAP_EPS;
    for i in 1000..1010usize {
        if offer(engine, i, sim.vnf_capacity + 0.5 * CAP_EPS) {
            offer(engine, i, hair);
        }
    }
    if engine.plan().shards() > 1 {
        for i in 2000..2010usize {
            offer(engine, i, hair);
        }
    }
    (offered, commit_failures, audit_rollbacks)
}

fn drive(shards: usize, seed: u64, steps: usize) {
    let sim = sim(seed);
    let net = instance_network(&sim);
    let plan = ShardPlan::partition(&net, shards).expect("partition");
    let mut engine = ShardedEngine::new(&net, plan, ShardRouter::default());
    let mut rng = Rng(seed);
    let mut live: Vec<StitchId> = Vec::new();
    let (mut accepted, mut rejected) = (0u32, 0u32);
    assert_view_is_current(&mut engine, "fresh engine");

    let (offered, commit_failures, audit_rollbacks) =
        force_failures(&mut engine, &sim, &net, &mut live);
    assert!(commit_failures > 0, "{shards} shards: no commit refusal");
    if shards > 1 {
        assert!(audit_rollbacks > 0, "{shards} shards: no audit rollback");
    }
    let stats = engine.stats();
    // A refused commit changes nothing, so nothing re-solves it.
    let solves: u64 = stats.per_algo.iter().map(|a| a.1).sum();
    assert_eq!(solves, offered, "{shards} shards: one solve per request");
    assert_eq!(stats.audits_failed, u64::from(audit_rollbacks));

    let links = net.link_count();
    let nodes = net.node_count();
    for step in 0..steps {
        // A caller still holding the view across the step forces the
        // rebuild fallback.
        let held = (rng.below(8) == 0).then(|| engine.unpartitioned_residual());
        let op = rng.below(20);
        let what = match op {
            0..=9 => {
                let i = step;
                let (sfc, flow) = instance_request(&sim, &net, i);
                engine.set_request_owner(Some(rng.below(3) as u64));
                let result = engine.embed(&sfc, &flow, Algo::Mbbe, arrival_seed(sim.seed, i));
                engine.set_request_owner(None);
                match result {
                    Ok(acc) => {
                        accepted += 1;
                        live.push(acc.lease);
                    }
                    Err(_) => rejected += 1,
                }
                format!("embed {i}")
            }
            10..=14 if !live.is_empty() => {
                let lease = live.swap_remove(rng.below(live.len()));
                // A lease an owner reclaim already took is refused.
                let _ = engine.release(lease);
                format!("release {lease}")
            }
            15 | 16 => {
                let link = LinkId(rng.below(links) as u32);
                let event = match rng.below(3) {
                    0 => FaultEvent::LinkDown { link },
                    1 => FaultEvent::LinkUp { link },
                    _ => FaultEvent::LinkCapacity {
                        link,
                        factor: 0.5 + rng.below(3) as f64 * 0.5,
                    },
                };
                engine.apply_fault(&event).expect("known link");
                format!("{event:?}")
            }
            17 | 18 => {
                let node = NodeId(rng.below(nodes) as u32);
                let event = match (rng.below(3), net.node(node).instances().first()) {
                    (0, _) => FaultEvent::NodeDown { node },
                    (1, _) | (_, None) => FaultEvent::NodeUp { node },
                    (_, Some(inst)) => FaultEvent::VnfCapacity {
                        node,
                        vnf: inst.vnf,
                        factor: 0.5 + rng.below(3) as f64 * 0.5,
                    },
                };
                engine.apply_fault(&event).expect("known node");
                format!("{event:?}")
            }
            _ => {
                let owner = rng.below(3) as u64;
                let gone = engine.reclaim_owner(owner);
                live.retain(|l| !gone.contains(l));
                format!("reclaim owner {owner}")
            }
        };
        drop(held);
        assert_view_is_current(&mut engine, &format!("step {step} ({what})"));
    }
    assert!(
        accepted > 0 && rejected > 0,
        "accepted {accepted}, rejected {rejected}"
    );
    for lease in live {
        let _ = engine.release(lease);
    }
    assert_view_is_current(&mut engine, "after draining");
}

#[test]
fn one_shard_views_match_a_rebuild_after_every_mutation() {
    drive(1, 0x5EED_0001, 160);
}

#[test]
fn four_shard_views_match_a_rebuild_after_every_mutation() {
    drive(4, 0x5EED_0004, 160);
}
