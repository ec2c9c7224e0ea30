//! Invariant and property tests for the region-sharded substrate:
//! partition soundness, router determinism, gateway-table pricing, the
//! two-phase commit's no-leak guarantees, and the serving engine's
//! counters, fault handling, orphan reclaim and rejection split.

use dagsfc_net::{CommitLedger, FaultEvent, LinkId, Network, NodeId};
use dagsfc_shard::{
    GatewayTable, RoutePolicy, ShardPlan, ShardRouter, ShardedEngine, ShardedStats,
};
use dagsfc_sim::runner::{instance_network, instance_request};
use dagsfc_sim::{arrival_seed, embed_and_commit, Algo, SimConfig};
use proptest::prelude::*;

fn cfg(nodes: usize, seed: u64) -> SimConfig {
    SimConfig {
        network_size: nodes,
        sfc_size: 4,
        vnf_capacity: 6.0,
        link_capacity: 6.0,
        seed,
        ..SimConfig::default()
    }
}

/// A 24-node substrate with room for a few chains at a time.
fn roomy() -> SimConfig {
    SimConfig {
        network_size: 24,
        sfc_size: 3,
        vnf_capacity: 8.0,
        link_capacity: 8.0,
        seed: 0xE46,
        ..SimConfig::default()
    }
}

fn engine(net: &Network, shards: usize) -> ShardedEngine<'_> {
    let plan = ShardPlan::partition(net, shards).expect("partition");
    ShardedEngine::new(net, plan, ShardRouter::default())
}

#[test]
fn partition_covers_every_node_with_contiguous_balanced_regions() {
    let net = instance_network(&cfg(41, 0xA1));
    for shards in [1usize, 2, 3, 4, 7] {
        let plan = ShardPlan::partition(&net, shards).expect("partition");
        assert_eq!(plan.shards(), shards);
        let mut sizes = vec![0usize; shards];
        let mut prev = 0usize;
        for v in 0..net.node_count() {
            let s = plan.shard_of(NodeId(v as u32));
            assert!(s < shards, "node {v} assigned out-of-range shard {s}");
            assert!(s >= prev, "regions must be contiguous in node-id order");
            prev = s;
            sizes[s] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), net.node_count());
        for (s, &size) in sizes.iter().enumerate() {
            assert!(size > 0, "shard {s} is empty");
            assert_eq!(size, plan.shard_size(s));
        }
    }
}

#[test]
fn partition_rejects_degenerate_shard_counts() {
    let net = instance_network(&cfg(10, 0xA2));
    assert!(ShardPlan::partition(&net, 0).is_err());
    assert!(ShardPlan::partition(&net, 11).is_err());
    assert!(ShardPlan::partition(&net, 10).is_ok());
}

#[test]
fn cross_links_are_owned_by_min_shard_and_mark_gateways() {
    let net = instance_network(&cfg(50, 0xA3));
    let plan = ShardPlan::partition(&net, 4).expect("partition");
    let mut saw_cross = false;
    for l in 0..net.link_count() {
        let link = LinkId(l as u32);
        let e = net.link(link);
        let (sa, sb) = (plan.shard_of(e.a), plan.shard_of(e.b));
        assert_eq!(plan.owner_of(link), sa.min(sb), "owner must be min shard");
        assert_eq!(plan.is_cross(link), sa != sb);
        if sa != sb {
            saw_cross = true;
            assert!(plan.cross_links().contains(&link));
            assert!(
                plan.gateways(sa).contains(&e.a) && plan.gateways(sb).contains(&e.b),
                "both endpoints of cross link {link:?} must be gateways"
            );
        }
    }
    assert!(saw_cross, "a 4-way split of a connected net must cut links");
    for s in 0..4 {
        let gs = plan.gateways(s);
        assert!(!gs.is_empty(), "shard {s} has no gateway");
        assert!(gs.windows(2).all(|w| w[0] < w[1]), "gateways sorted+dedup");
    }
}

#[test]
fn gateway_table_prices_every_reachable_region_pair() {
    let net = instance_network(&cfg(50, 0xA4));
    let plan = ShardPlan::partition(&net, 3).expect("partition");
    let table = GatewayTable::build(&net, &plan);
    assert!(table.corridor_count() > 0);
    for home in 0..3 {
        for dst in 0..3 {
            if home == dst {
                assert!(table.corridor(home, dst).is_none());
                continue;
            }
            let route = table
                .corridor(home, dst)
                .expect("connected net: every region pair must have a corridor");
            assert_eq!(plan.shard_of(route.from), home);
            assert_eq!(plan.shard_of(route.to), dst);
            assert!(route.price >= 0.0 && route.price.is_finite());
            assert!(
                !route.path.links().is_empty(),
                "a corridor between distinct regions crosses at least one link"
            );
        }
    }
}

/// 2PC embeds across two regions, and release drains every shard's
/// ledger back to zero — no half-committed reservations survive.
#[test]
fn two_phase_commit_and_release_leave_no_residue() {
    let sim = cfg(40, 0xA5);
    let net = instance_network(&sim);
    let plan = ShardPlan::partition(&net, 2).expect("partition");
    let router = ShardRouter::new(RoutePolicy::SourceAffinity);
    let mut engine = ShardedEngine::new(&net, plan, router);

    let mut leases = Vec::new();
    for i in 0..20u64 {
        let (sfc, flow) = instance_request(&sim, &net, i as usize);
        if let Ok(acc) = engine.embed(&sfc, &flow, Algo::Mbbe, arrival_seed(sim.seed, i as usize)) {
            assert!(acc.shards_involved >= 1 && acc.shards_involved <= 2);
            leases.push(acc.lease);
        }
    }
    let stats = engine.stats();
    assert!(stats.accepted > 0, "some arrivals must commit");
    assert_eq!(stats.audits_failed, 0, "audits must pass on the way in");
    assert!(
        stats.cross_shard_accepted > 0,
        "a 2-way split must accept at least one stitched embedding"
    );

    for lease in leases {
        engine.release(lease).expect("release");
        assert!(!engine.is_active(lease));
    }
    let drained: ShardedStats = engine.stats();
    assert_eq!(drained.active_leases, 0);
    assert!(
        drained.outstanding_load.abs() < 1e-9,
        "leak after full drain: {}",
        drained.outstanding_load
    );
    for lane in &drained.per_shard {
        assert!(
            lane.outstanding_load.abs() < 1e-9,
            "shard {} leaked {}",
            lane.shard,
            lane.outstanding_load
        );
    }
}

/// A rejection — solver or audit — must not move any ledger: epochs and
/// outstanding loads are byte-identical before and after.
#[test]
fn rejections_leave_every_ledger_untouched() {
    let sim = SimConfig {
        vnf_capacity: 0.4, // too small for any unit-rate chain
        link_capacity: 0.4,
        ..cfg(30, 0xA6)
    };
    let net = instance_network(&sim);
    let plan = ShardPlan::partition(&net, 3).expect("partition");
    let mut engine = ShardedEngine::new(&net, plan, ShardRouter::default());
    let before: Vec<(u64, f64)> = engine
        .stats()
        .per_shard
        .iter()
        .map(|l| (l.epoch, l.outstanding_load))
        .collect();
    let mut rejections = 0;
    for i in 0..10usize {
        let (sfc, flow) = instance_request(&sim, &net, i);
        if engine
            .embed(&sfc, &flow, Algo::Mbbe, arrival_seed(sim.seed, i))
            .is_err()
        {
            rejections += 1;
        }
    }
    assert!(rejections > 0, "starved substrate must reject something");
    let after: Vec<(u64, f64)> = engine
        .stats()
        .per_shard
        .iter()
        .map(|l| (l.epoch, l.outstanding_load))
        .collect();
    assert_eq!(before, after, "rejections must not advance any ledger");
}

#[test]
fn embed_release_cycle_updates_counters() {
    let sim = roomy();
    let net = instance_network(&sim);
    let mut engine = engine(&net, 1);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let a = engine
        .embed(&sfc, &flow, Algo::Minv, arrival_seed(sim.seed, 0))
        .expect("fresh network admits");
    assert!(engine.is_active(a.lease));
    assert_eq!(engine.active_leases(), 1);

    let stats = engine.stats();
    assert_eq!((stats.accepted, stats.rejected), (1, 0));
    assert_eq!(stats.audits_run, 1, "every commit is audited");
    assert_eq!(stats.audits_failed, 0);
    assert_eq!(stats.total_cost, a.cost.total());
    assert!(stats.outstanding_load > 0.0);
    assert_eq!(stats.per_algo.len(), 1);
    assert_eq!((stats.per_algo[0].0, stats.per_algo[0].1), ("MINV", 1));

    engine.release(a.lease).expect("release");
    let stats = engine.stats();
    assert_eq!(stats.active_leases, 0);
    assert_eq!(stats.released, 1);
    assert!(stats.outstanding_load.abs() < 1e-12);
    assert!(engine.release(a.lease).is_err(), "double release must fail");
}

#[test]
fn every_commit_is_audited_and_clean_under_saturation() {
    let sim = SimConfig {
        vnf_capacity: 3.0,
        link_capacity: 3.0,
        ..roomy()
    };
    let net = instance_network(&sim);
    for shards in [1usize, 3] {
        let mut engine = engine(&net, shards);
        for i in 0..30 {
            let (sfc, flow) = instance_request(&sim, &net, i);
            let _ = engine.embed(&sfc, &flow, Algo::Mbbe, arrival_seed(sim.seed, i));
        }
        let stats = engine.stats();
        assert!(stats.accepted > 0, "shards={shards}");
        assert!(
            stats.rejected > 0,
            "shards={shards}: the load must saturate"
        );
        assert_eq!(stats.audits_run, stats.accepted, "shards={shards}");
        assert_eq!(stats.audits_failed, 0, "shards={shards}");
    }
}

#[test]
fn node_faults_block_then_restore_and_are_counted() {
    let sim = roomy();
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let seed = arrival_seed(sim.seed, 0);
    let nodes = || (0..net.node_count()).map(|n| NodeId(n as u32));
    let mut engine = engine(&net, 1);
    for node in nodes() {
        assert_eq!(engine.apply_fault(&FaultEvent::NodeDown { node }), Ok(true));
    }
    // An idempotent re-send changes nothing and is not counted.
    let again = FaultEvent::NodeDown { node: NodeId(0) };
    assert_eq!(engine.apply_fault(&again), Ok(false));
    assert!(engine.embed(&sfc, &flow, Algo::Minv, seed).is_err());

    for node in nodes() {
        assert_eq!(engine.apply_fault(&FaultEvent::NodeUp { node }), Ok(true));
    }
    engine
        .embed(&sfc, &flow, Algo::Minv, seed)
        .expect("recovered substrate admits");
    let stats = engine.stats();
    assert_eq!(stats.faults_applied, 2 * net.node_count() as u64);
    assert_eq!(stats.audits_failed, 0);
    // A fault naming a missing node is an error, not a panic.
    let missing = FaultEvent::NodeDown {
        node: NodeId(10_000),
    };
    assert!(engine.apply_fault(&missing).is_err());
}

#[test]
fn reclaim_owner_releases_only_that_owners_leases() {
    let sim = roomy();
    let net = instance_network(&sim);
    let mut engine = engine(&net, 1);
    let mut embed_as = |owner: u64, i: usize| {
        engine.set_request_owner(Some(owner));
        let (sfc, flow) = instance_request(&sim, &net, i);
        let acc = engine.embed(&sfc, &flow, Algo::Minv, arrival_seed(sim.seed, i));
        engine.set_request_owner(None);
        acc.expect("fresh network admits")
    };
    let a = embed_as(7, 0);
    let b = embed_as(8, 1);

    assert_eq!(engine.reclaim_owner(7), vec![a.lease]);
    assert!(!engine.is_active(a.lease));
    assert!(engine.is_active(b.lease), "other owner untouched");
    assert_eq!(engine.stats().orphans_reclaimed, 1);
    // A second reclaim of the same owner finds nothing.
    assert!(engine.reclaim_owner(7).is_empty());
    assert!(engine.release(a.lease).is_err(), "reclaimed lease is gone");
    engine.release(b.lease).expect("own lease still live");
    assert!(engine.stats().outstanding_load.abs() < 1e-9);
}

#[test]
fn rejection_stats_split_deadline_rule_and_capacity() {
    let sim = roomy();
    let net = instance_network(&sim);
    let mut engine = engine(&net, 1);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let seed = arrival_seed(sim.seed, 0);

    // An unmeetable delay budget: generated links carry ~10 µs each,
    // so 0.001 µs end-to-end is provably deadline-infeasible.
    let strict = dagsfc_core::Flow {
        delay_budget_us: Some(0.001),
        ..flow
    };
    let e = engine
        .embed(&sfc, &strict, Algo::Mbbe, seed)
        .expect_err("deadline-infeasible");
    assert!(e.is_deadline_infeasible(), "{e}");

    // An unmeetable rate with no budget: capacity-infeasible.
    let heavy = dagsfc_core::Flow { rate: 1e9, ..flow };
    let e = engine
        .embed(&sfc, &heavy, Algo::Mbbe, seed)
        .expect_err("capacity-infeasible");
    assert!(
        !e.is_deadline_infeasible() && !e.is_rule_infeasible(),
        "{e}"
    );

    // A reflexive anti-affinity pair over an embedded kind can never
    // hold, so the rejection must classify as rule-infeasible.
    let kind = sfc.layers()[0].vnfs()[0];
    let ruled = sfc.clone().with_rules(dagsfc_core::PlacementRules {
        affinity: vec![],
        anti_affinity: vec![(kind, kind)],
    });
    let e = engine
        .embed(&ruled, &flow, Algo::Mbbe, seed)
        .expect_err("rule-infeasible");
    assert!(e.is_rule_infeasible() && !e.is_deadline_infeasible(), "{e}");

    let stats = engine.stats();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.rejected_rule, 1);
    assert_eq!(stats.rejected_capacity, 1);
    assert_eq!(stats.epoch, 0, "rejections leave the ledger untouched");

    // The best-effort request still embeds.
    engine
        .embed(&sfc, &flow, Algo::Mbbe, seed)
        .expect("best-effort request admits");
}

/// At one shard the engine is the lifecycle kernel: on a tiny
/// substrate driven to saturation it accepts exactly when
/// `embed_and_commit` over one ledger does, at the same cost bits.
#[test]
fn one_shard_engine_matches_the_lifecycle_kernel() {
    let sim = SimConfig {
        network_size: 12,
        sfc_size: 3,
        vnf_capacity: 2.0,
        link_capacity: 2.0,
        seed: 0xE47,
        ..SimConfig::default()
    };
    let net = instance_network(&sim);
    let mut engine = engine(&net, 1);
    let mut ledger = CommitLedger::new(&net);
    let mut rejected = 0;
    for i in 0..20 {
        let (sfc, flow) = instance_request(&sim, &net, i);
        let seed = arrival_seed(sim.seed, i);
        let direct = {
            let residual = ledger.residual();
            embed_and_commit(&mut ledger, &residual, &sfc, &flow, Algo::Minv, seed)
        };
        let served = engine.embed(&sfc, &flow, Algo::Minv, seed);
        match (direct, served) {
            (Ok(d), Ok(s)) => assert_eq!(
                d.cost.total().to_bits(),
                s.cost.total().to_bits(),
                "arrival {i}"
            ),
            (Err(_), Err(_)) => rejected += 1,
            (d, s) => panic!(
                "arrival {i}: kernel {:?} vs engine {:?}",
                d.is_ok(),
                s.is_ok()
            ),
        }
    }
    assert!(rejected > 0, "the substrate must saturate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The router is a pure function of (plan, flow): same inputs, same
    /// shard, under both policies, regardless of construction order.
    #[test]
    fn router_assignment_is_pure_and_policy_faithful(
        seed in 0u64..1024,
        shards in 1usize..6,
        pairs in prop::collection::vec((0usize..40, 0usize..40), 1..20),
    ) {
        let net = instance_network(&cfg(40, seed));
        let plan = ShardPlan::partition(&net, shards).expect("partition");
        let src_router = ShardRouter::new(RoutePolicy::SourceAffinity);
        let dst_router = ShardRouter::new(RoutePolicy::DestinationAffinity);
        for (a, b) in pairs {
            let flow = dagsfc_core::Flow::unit(NodeId(a as u32), NodeId(b as u32));
            let s1 = src_router.assign(&plan, &flow);
            prop_assert_eq!(s1, src_router.assign(&plan, &flow));
            prop_assert_eq!(s1, plan.shard_of(flow.src));
            prop_assert_eq!(dst_router.assign(&plan, &flow), plan.shard_of(flow.dst));
        }
    }

    /// 2PC outcomes are a function of the admission order alone: two
    /// engines fed the same sequence agree bit-for-bit on every fate
    /// and cost, and interleaving releases does not disturb lease ids.
    #[test]
    fn two_phase_outcomes_are_deterministic(
        seed in 0u64..512,
        shards in 1usize..5,
        arrivals in 4usize..24,
    ) {
        let sim = cfg(36, seed);
        let net = instance_network(&sim);
        let mk = || {
            let plan = ShardPlan::partition(&net, shards).expect("partition");
            ShardedEngine::new(&net, plan, ShardRouter::default())
        };
        let mut one = mk();
        let mut two = mk();
        for i in 0..arrivals {
            let (sfc, flow) = instance_request(&sim, &net, i);
            let s = arrival_seed(sim.seed, i);
            let a = one.embed(&sfc, &flow, Algo::Mbbe, s);
            let b = two.embed(&sfc, &flow, Algo::Mbbe, s);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.lease, y.lease);
                    prop_assert_eq!(x.cost.total(), y.cost.total());
                    prop_assert_eq!(x.shards_involved, y.shards_involved);
                }
                (Err(x), Err(y)) => prop_assert_eq!(format!("{x:?}"), format!("{y:?}")),
                (x, y) => prop_assert!(false, "fates diverged: {:?} vs {:?}", x.is_ok(), y.is_ok()),
            }
        }
        let (sa, sb) = (one.stats(), two.stats());
        prop_assert_eq!(sa.accepted, sb.accepted);
        prop_assert_eq!(sa.total_cost, sb.total_cost);
        prop_assert_eq!(sa.cross_shard_accepted, sb.cross_shard_accepted);
        prop_assert_eq!(sa.audits_failed, 0);
    }
}
