//! Property tests for the oracle session, which holds a solve's link
//! reservations and answers its residual-capacity queries from the class
//! trees until the residuals stop matching them: every answer must equal
//! a target-bounded search under the residual filter, and the session
//! must switch to those searches exactly when the residual filter can
//! differ from the class filter.
//!
//! The reference is `min_cost_path_in` under the filter a baseline solve
//! routes with: `RateFilter` over a `NetworkState` that mirrors every
//! reservation made through the session, plus the links a multicast
//! group shares. Every reservation, refused ones included, must return
//! what the mirror's returns and leave each link's remaining bandwidth
//! bit-equal to the mirror's. The session reads trees while the overlay
//! marks nothing down and no reservation has left a link below the
//! rate. Networks draw prices with repeats and zeros (ties, zero-length
//! arcs) and capacities on both sides of a class boundary and within
//! `CAP_EPS` of one.

use dagsfc_net::routing::{min_cost_path_in, LinkFilter, RateFilter, RoutingScratch};
use dagsfc_net::{LinkId, Network, NetworkState, NodeId, OracleSession, Path, PathOracle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Link prices: repeats make ties, zeros make zero-length arcs.
const PRICES: [f64; 5] = [0.0, 0.5, 1.0, 1.0, 2.5];
/// Link capacities: zero, the class boundaries 1 and 2, values a hair
/// either side of them (inside and outside `CAP_EPS`), and room for a
/// few reservations.
const CAPACITIES: [f64; 9] = [
    0.0,
    1.0 - 2e-9,
    1.0 - 0.5e-9,
    1.0,
    1.0 + 0.5e-9,
    2.0,
    2.0 + 2e-9,
    3.0,
    5.0,
];
/// Flow rates: inside a class, on its boundary, within `CAP_EPS` above
/// it and just beyond.
const RATES: [f64; 6] = [0.5, 1.0, 1.0 + 0.9e-9, 1.0 + 1.5e-9, 2.0, 2.5];
/// Queries per sequence.
const STEPS: usize = 12;

/// A random network of `n` nodes: a spanning path plus random chords.
fn network(rng: &mut StdRng, n: usize) -> Network {
    let mut g = Network::new();
    g.add_nodes(n);
    let link = |g: &mut Network, rng: &mut StdRng, a: usize, b: usize| {
        let price = PRICES[rng.gen_range(0..PRICES.len())];
        let cap = CAPACITIES[rng.gen_range(0..CAPACITIES.len())];
        // lint:allow(unwrap) — test fixture: endpoints exist, values valid
        g.add_link(NodeId(a as u32), NodeId(b as u32), price, cap)
            .unwrap();
    };
    for v in 1..n {
        link(&mut g, rng, v - 1, v);
    }
    for _ in 0..2 * n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b
            && g.neighbors(NodeId(a as u32))
                .iter()
                .all(|&(m, _)| m.index() != b)
        {
            link(&mut g, rng, a, b);
        }
    }
    g
}

/// A path's node and link lists, compared bit for bit.
type Route = Option<(Vec<NodeId>, Vec<LinkId>)>;

fn route(p: Option<&Path>) -> Route {
    p.map(|p| (p.nodes().to_vec(), p.links().to_vec()))
}

/// A link or a node of the fault overlay.
#[derive(Clone, Copy)]
enum Fault {
    Link(LinkId),
    Node(NodeId),
}

impl Fault {
    fn random(rng: &mut StdRng, net: &Network) -> Self {
        if rng.gen_bool(0.5) {
            Fault::Link(LinkId(rng.gen_range(0..net.link_count()) as u32))
        } else {
            Fault::Node(NodeId(rng.gen_range(0..net.node_count()) as u32))
        }
    }

    fn set(self, oracle: &PathOracle<'_>, down: bool) {
        match self {
            Fault::Link(l) => oracle.set_link_down(l, down),
            Fault::Node(v) => oracle.set_node_down(v, down),
        };
    }
}

/// A random walk of up to four hops from a random node; it may cross a
/// link twice.
fn walk(rng: &mut StdRng, net: &Network) -> Path {
    let mut nodes = vec![NodeId(rng.gen_range(0..net.node_count()) as u32)];
    for _ in 0..rng.gen_range(1..5) {
        // lint:allow(unwrap) — test fixture: the walk is never empty
        let adj = net.neighbors(*nodes.last().unwrap());
        nodes.push(adj[rng.gen_range(0..adj.len())].0);
    }
    // lint:allow(unwrap) — test fixture: consecutive nodes are adjacent
    Path::from_nodes(net, nodes).unwrap()
}

/// Whether the session and its mirror agree on every link's remaining
/// bandwidth, bit for bit.
fn same_residuals(
    session: &OracleSession<'_, '_>,
    state: &NetworkState<'_>,
    net: &Network,
) -> bool {
    net.link_ids().all(|l| {
        let bits = |r: Result<f64, _>| r.map(f64::to_bits);
        bits(session.link_remaining(l)) == bits(state.link_remaining(l))
    })
}

/// One solve-shaped query sequence on a random network: queries between
/// random nodes, each path then reserved either link by link into a
/// shared multicast set or as a whole, with a fault on the oracle from
/// some query on, and now and then a reservation of a random link or
/// walk that need not fit. Checks that every answer equals the residual
/// search over the mirror state, that every reservation returns what the
/// mirror's does and leaves the same residuals, and that the session
/// searches exactly from the first query at which the invariant is
/// broken; returns how many queries read a tree, how many searched and
/// how many reservations were refused.
fn solve_shaped(seed: u64, n: usize) -> Result<(u64, u64, u64), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = network(&mut rng, n);
    let oracle = PathOracle::new(&net);
    let rate = RATES[rng.gen_range(0..RATES.len())];
    // Some trees are cached before the solve, some of another class.
    for _ in 0..rng.gen_range(0..n) {
        let other = RATES[rng.gen_range(0..RATES.len())];
        oracle.tree(NodeId(rng.gen_range(0..n) as u32), other);
    }
    // A fault before the solve or part-way through it, and sometimes its
    // repair a few queries later, which does not resume the tree reads.
    let fault = Fault::random(&mut rng, &net);
    let fault_at = rng.gen_bool(0.4).then(|| rng.gen_range(0..STEPS));
    let repair_at = fault_at.map(|at| at + rng.gen_range(1..STEPS));
    let mut broken = false;

    let mut state = NetworkState::new(&net);
    let mut session = oracle.session(rate);
    let mut scratch = RoutingScratch::new();
    let mut shared = vec![false; net.link_count()];
    let warm = oracle.stats();
    let mut queries = 0u64;
    let mut refused = 0u64;
    for step in 0..STEPS {
        if fault_at == Some(step) {
            fault.set(&oracle, true);
            broken = true;
        }
        if repair_at == Some(step) {
            fault.set(&oracle, false);
        }
        // A reservation outside any answer: a random link, or a walk
        // that may cross a link twice. Either may not fit.
        if rng.gen_bool(0.3) {
            let walk = walk(&mut rng, &net);
            let (got, want, links) = if rng.gen_bool(0.5) {
                let l = walk.links()[0];
                let got = session.reserve_link(l);
                (got, state.reserve_link(l, rate), &walk.links()[..1])
            } else {
                let got = session.reserve_path(&walk);
                (got, state.reserve_path(&walk, rate), walk.links())
            };
            prop_assert_eq!(&got, &want, "seed {} step {}", seed, step);
            prop_assert!(same_residuals(&session, &state, &net), "seed {}", seed);
            refused += u64::from(got.is_err());
            if got.is_ok() {
                broken |= links.iter().any(|&l| !state.link_fits(l, rate));
            }
        }
        let from = NodeId(rng.gen_range(0..n) as u32);
        let to = NodeId(rng.gen_range(0..n) as u32);
        let grouped = rng.gen_bool(0.5);
        let admits_shared = |l: LinkId| grouped && shared[l.index()];
        let searches = session.searches();
        let got = session.residual_path(from, to, &admits_shared);
        let fits = RateFilter::new(&state, rate);
        let residual = |l: LinkId| admits_shared(l) || fits.allows(l);
        let want = min_cost_path_in(&net, from, to, &residual, &mut scratch);
        prop_assert_eq!(
            route(got.as_ref()),
            route(want.as_ref()),
            "seed {} step {}: {:?} -> {:?}",
            seed,
            step,
            from,
            to
        );
        let searched = session.searches() - searches;
        prop_assert_eq!(
            searched,
            u64::from(broken && from != to),
            "seed {} step {}",
            seed,
            step
        );
        queries += u64::from(from != to);

        let Some(path) = got else { continue };
        if grouped {
            for &l in path.links() {
                if !shared[l.index()] {
                    shared[l.index()] = true;
                    let got = session.reserve_link(l);
                    prop_assert_eq!(&got, &state.reserve_link(l, rate));
                    if got.is_ok() {
                        broken |= !state.link_fits(l, rate);
                    }
                }
            }
        } else {
            let got = session.reserve_path(&path);
            prop_assert_eq!(&got, &state.reserve_path(&path, rate));
            if got.is_ok() {
                broken |= path.links().iter().any(|&l| !state.link_fits(l, rate));
            }
        }
        prop_assert!(same_residuals(&session, &state, &net), "seed {}", seed);
    }
    prop_assert_eq!(session.hits() + session.misses(), queries);
    let s = oracle.stats();
    prop_assert_eq!(s.hits - warm.hits, session.hits());
    prop_assert_eq!(s.misses - warm.misses, session.misses());
    Ok((queries - session.searches(), session.searches(), refused))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn session_answers_equal_residual_searches(seed in 0u64..1 << 40, n in 2usize..30) {
        solve_shaped(seed, n)?;
    }
}

/// The generator reaches every regime: sequences that read trees to the
/// end, sequences that search from the start, and sequences that switch
/// from one to the other part-way; and some reservations are refused.
#[test]
fn sequences_reach_tree_reads_searches_the_switch_and_refusals() {
    let mut seen = [0usize; 3];
    let mut refused = 0;
    for seed in 0..64 {
        let (reads, searches, r) = solve_shaped(seed, 2 + seed as usize % 28).expect("sequence");
        refused += r;
        if searches == 0 {
            seen[0] += usize::from(reads > 0);
        } else if reads == 0 {
            seen[1] += 1;
        } else {
            seen[2] += 1;
        }
    }
    assert!(
        seen.iter().all(|&k| k > 0),
        "reads only / searches only / both: {seen:?}"
    );
    assert!(refused > 0, "no reservation was refused");
}
