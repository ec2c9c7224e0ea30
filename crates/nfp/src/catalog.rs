//! A canned catalog of enterprise network functions.
//!
//! The DAG-SFC paper motivates hybrid chains with the enterprise NFs
//! studied by NFP \[17\] — firewalls, intrusion detection, NAT, load
//! balancing, monitoring, and so on. This module provides action profiles
//! and representative per-packet processing delays for twelve such
//! functions, enough to populate the paper's VNF universe (Table 2 uses a
//! deployment of *n* VNF kinds plus the merger).

use crate::action::ActionProfile;
use crate::field::{FieldSet, PacketField};
use serde::{Deserialize, Serialize};

/// A network function specification: identity, behaviour, and unit costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NfSpec {
    /// Human-readable name, e.g. `"firewall"`.
    pub name: &'static str,
    /// The packet-action profile driving parallelism analysis.
    pub profile: ActionProfile,
    /// Representative per-packet processing delay in microseconds
    /// (order-of-magnitude values from the NFV literature; used by the
    /// delay model, not by the cost objective).
    pub proc_delay_us: f64,
}

/// Builds the default twelve-function enterprise catalog.
///
/// Index in the returned vector is the NF's id; the DAG-SFC VNF type ids
/// map 1:1 onto these indices.
pub fn enterprise_catalog() -> Vec<NfSpec> {
    use PacketField as F;
    let header = FieldSet::FIVE_TUPLE;
    vec![
        NfSpec {
            // Stateless ACL firewall: inspects the 5-tuple, may drop.
            name: "firewall",
            profile: ActionProfile {
                reads: header,
                writes: FieldSet::EMPTY,
                may_drop: true,
                counts_traffic: false,
                terminates: false,
            },
            proc_delay_us: 15.0,
        },
        NfSpec {
            // Signature IDS: reads everything, alerts out-of-band.
            name: "ids",
            profile: ActionProfile {
                reads: FieldSet::ALL,
                writes: FieldSet::EMPTY,
                may_drop: false,
                counts_traffic: false,
                terminates: false,
            },
            proc_delay_us: 120.0,
        },
        NfSpec {
            // Inline IPS: reads everything, may drop.
            name: "ips",
            profile: ActionProfile {
                reads: FieldSet::ALL,
                writes: FieldSet::EMPTY,
                may_drop: true,
                counts_traffic: false,
                terminates: false,
            },
            proc_delay_us: 130.0,
        },
        NfSpec {
            // Source NAT: inspects and rewrites the source half only.
            name: "nat",
            profile: ActionProfile {
                reads: FieldSet::of(&[F::SrcIp, F::SrcPort, F::Protocol]),
                writes: FieldSet::of(&[F::SrcIp, F::SrcPort]),
                may_drop: false,
                counts_traffic: false,
                terminates: false,
            },
            proc_delay_us: 25.0,
        },
        NfSpec {
            // L4 load balancer: inspects and rewrites the destination half.
            name: "load_balancer",
            profile: ActionProfile {
                reads: FieldSet::of(&[F::DstIp, F::DstPort, F::Protocol]),
                writes: FieldSet::of(&[F::DstIp, F::DstPort]),
                may_drop: false,
                counts_traffic: false,
                terminates: false,
            },
            proc_delay_us: 20.0,
        },
        NfSpec {
            // Terminating HTTP proxy: re-originates connections.
            name: "proxy",
            profile: ActionProfile {
                reads: FieldSet::ALL,
                writes: FieldSet::ALL,
                may_drop: false,
                counts_traffic: false,
                terminates: true,
            },
            proc_delay_us: 200.0,
        },
        NfSpec {
            // VPN gateway: encapsulates the whole packet.
            name: "vpn",
            profile: ActionProfile {
                reads: FieldSet::ALL,
                writes: FieldSet::ALL,
                may_drop: false,
                counts_traffic: false,
                terminates: true,
            },
            proc_delay_us: 180.0,
        },
        NfSpec {
            // Passive monitor / billing probe.
            name: "monitor",
            profile: ActionProfile::monitor(),
            proc_delay_us: 10.0,
        },
        NfSpec {
            // DSCP remarker for QoS.
            name: "qos_marker",
            profile: ActionProfile {
                reads: header,
                writes: FieldSet::of(&[F::Tos]),
                may_drop: false,
                counts_traffic: false,
                terminates: false,
            },
            proc_delay_us: 12.0,
        },
        NfSpec {
            // Deep packet inspection classifier: pure payload reader.
            name: "dpi",
            profile: ActionProfile {
                reads: FieldSet::of(&[F::Payload, F::Protocol]),
                writes: FieldSet::EMPTY,
                may_drop: false,
                counts_traffic: false,
                terminates: false,
            },
            proc_delay_us: 90.0,
        },
        NfSpec {
            // WAN optimizer: compresses payload.
            name: "wan_optimizer",
            profile: ActionProfile {
                reads: FieldSet::of(&[F::Payload]),
                writes: FieldSet::of(&[F::Payload, F::Length]),
                may_drop: false,
                counts_traffic: false,
                terminates: false,
            },
            proc_delay_us: 150.0,
        },
        NfSpec {
            // Traffic policer: meters and may drop, but rewrites nothing.
            name: "policer",
            profile: ActionProfile {
                reads: header,
                writes: FieldSet::EMPTY,
                may_drop: true,
                counts_traffic: false,
                terminates: false,
            },
            proc_delay_us: 8.0,
        },
    ]
}

/// Looks up an NF by name in a catalog.
pub fn find<'a>(catalog: &'a [NfSpec], name: &str) -> Option<(usize, &'a NfSpec)> {
    catalog.iter().enumerate().find(|(_, s)| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{parallelism, Parallelism};

    #[test]
    fn twelve_functions_with_unique_names() {
        let cat = enterprise_catalog();
        assert_eq!(cat.len(), 12);
        let mut names: Vec<_> = cat.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn find_by_name() {
        let cat = enterprise_catalog();
        let (idx, spec) = find(&cat, "nat").unwrap();
        assert_eq!(spec.name, "nat");
        assert_eq!(cat[idx].name, "nat");
        assert!(find(&cat, "quantum_router").is_none());
    }

    #[test]
    fn profiles_behave_as_documented() {
        let cat = enterprise_catalog();
        let fw = &find(&cat, "firewall").unwrap().1.profile;
        let ids = &find(&cat, "ids").unwrap().1.profile;
        let nat = &find(&cat, "nat").unwrap().1.profile;
        let mon = &find(&cat, "monitor").unwrap().1.profile;
        let proxy = &find(&cat, "proxy").unwrap().1.profile;

        // Firewall ∥ IDS: classic NFP example of full parallelism.
        assert_eq!(parallelism(fw, ids), Parallelism::Full);
        // NAT then firewall: firewall reads what NAT wrote.
        assert_eq!(parallelism(nat, fw), Parallelism::Sequential);
        // Firewall then monitor: drop-vs-count ordering matters.
        assert_eq!(parallelism(fw, mon), Parallelism::Sequential);
        // Proxies never parallelize.
        assert_eq!(parallelism(proxy, ids), Parallelism::Sequential);
    }

    #[test]
    fn delays_positive() {
        for s in enterprise_catalog() {
            assert!(s.proc_delay_us > 0.0, "{} has no delay", s.name);
        }
    }

    #[test]
    fn nat_and_lb_parallel_with_copy() {
        let cat = enterprise_catalog();
        let nat = &find(&cat, "nat").unwrap().1.profile;
        let lb = &find(&cat, "load_balancer").unwrap().1.profile;
        // Both write disjoint header halves → copy-and-merge parallelism.
        assert_eq!(parallelism(nat, lb), Parallelism::WithCopyOverhead);
    }
}
