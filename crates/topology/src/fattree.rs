//! k-ary fat-tree topology and ECMP routing.
//!
//! The classic three-layer Clos: `k` pods, each with `k/2` edge and `k/2`
//! aggregation switches; `(k/2)²` core switches; `k³/4` hosts. Core
//! switch `(a, c)` connects to aggregation switch `a` of every pod, which
//! pins the return aggregation hop — so an inter-pod route is always the
//! 5-hop `edge → agg → core → agg → edge` of the paper's experiment.
//!
//! ECMP: the aggregation index and core index are picked by hashing the
//! flow 5-tuple, so a flow is route-stable but flows spread over all
//! equal-cost paths.

use core::ops::Deref;

use dta_core::hash::hash_bytes;
use dta_wire::{ipv4, FiveTuple};

/// The most switches a fat-tree route crosses:
/// `edge → agg → core → agg → edge`.
pub const MAX_PATH_HOPS: usize = 5;

/// A route's switch IDs in traversal order, stored inline (a route is
/// computed per flow, so it must not allocate). Reads as a `[u32]`
/// slice and iterates by value or by reference like the `Vec` it
/// replaces.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Path {
    hops: [u32; MAX_PATH_HOPS],
    len: u8,
}

impl Path {
    fn new(hops: &[u32]) -> Path {
        let mut path = Path {
            hops: [0; MAX_PATH_HOPS],
            len: hops.len() as u8,
        };
        path.hops[..hops.len()].copy_from_slice(hops);
        path
    }
}

impl Deref for Path {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.hops[..usize::from(self.len)]
    }
}

impl IntoIterator for Path {
    type Item = u32;
    type IntoIter = core::iter::Take<core::array::IntoIter<u32, MAX_PATH_HOPS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.hops.into_iter().take(usize::from(self.len))
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a u32;
    type IntoIter = core::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq<Vec<u32>> for Path {
    fn eq(&self, other: &Vec<u32>) -> bool {
        **self == **other
    }
}

impl core::fmt::Debug for Path {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Which layer a switch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Top-of-rack / edge.
    Edge,
    /// Aggregation.
    Aggregation,
    /// Core.
    Core,
}

/// A host position in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Host {
    /// Pod index `∈ [0, k)`.
    pub pod: u8,
    /// Edge switch index within the pod `∈ [0, k/2)`.
    pub edge: u8,
    /// Host index under the edge switch `∈ [0, k/2)`.
    pub idx: u8,
}

impl Host {
    /// The host's IP address, `10.pod.edge.idx+2` (the classic fat-tree
    /// addressing scheme).
    pub fn ip(&self) -> ipv4::Address {
        ipv4::Address([10, self.pod, self.edge, self.idx + 2])
    }
}

/// A k-ary fat-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTree {
    /// The arity `k` (even, ≥ 2).
    pub k: u8,
}

/// Errors constructing a fat-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// `k` must be even and at least 2.
    InvalidArity(u8),
    /// A host coordinate is out of range.
    InvalidHost(Host),
    /// Only an aggregation or core switch of the tree can fail: ECMP
    /// has no alternative to a host's own edge switch.
    NotFailable(u32),
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::InvalidArity(k) => write!(f, "fat-tree arity {k} must be even >= 2"),
            TopologyError::InvalidHost(h) => write!(f, "host {h:?} out of range"),
            TopologyError::NotFailable(id) => {
                write!(f, "switch {id} is not an aggregation or core switch")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl FatTree {
    /// Build a k-ary fat-tree.
    pub fn new(k: u8) -> Result<FatTree, TopologyError> {
        if k < 2 || k % 2 != 0 {
            return Err(TopologyError::InvalidArity(k));
        }
        Ok(FatTree { k })
    }

    fn half(&self) -> u8 {
        self.k / 2
    }

    /// Switches per layer: `(edge, aggregation, core)`.
    pub fn layer_counts(&self) -> (u32, u32, u32) {
        let k = u32::from(self.k);
        let h = k / 2;
        (k * h, k * h, h * h)
    }

    /// Total switch count (`5k²/4`).
    pub fn switch_count(&self) -> u32 {
        let (e, a, c) = self.layer_counts();
        e + a + c
    }

    /// Total host count (`k³/4`).
    pub fn host_count(&self) -> u32 {
        let k = u32::from(self.k);
        k * k * k / 4
    }

    /// Switch ID of edge switch `e` in `pod` (IDs are dense: edges,
    /// then aggs, then cores, starting at 1 — 0 is reserved so INT
    /// zero-padding is unambiguous).
    pub fn edge_id(&self, pod: u8, e: u8) -> u32 {
        1 + u32::from(pod) * u32::from(self.half()) + u32::from(e)
    }

    /// Switch ID of aggregation switch `a` in `pod`.
    pub fn agg_id(&self, pod: u8, a: u8) -> u32 {
        let (edges, _, _) = self.layer_counts();
        1 + edges + u32::from(pod) * u32::from(self.half()) + u32::from(a)
    }

    /// Switch ID of core switch `(a, c)` — reachable from aggregation
    /// index `a` in every pod.
    pub fn core_id(&self, a: u8, c: u8) -> u32 {
        let (edges, aggs, _) = self.layer_counts();
        1 + edges + aggs + u32::from(a) * u32::from(self.half()) + u32::from(c)
    }

    /// The layer of a switch ID.
    pub fn layer_of(&self, id: u32) -> Option<Layer> {
        let (edges, aggs, cores) = self.layer_counts();
        let id = id.checked_sub(1)?;
        if id < edges {
            Some(Layer::Edge)
        } else if id < edges + aggs {
            Some(Layer::Aggregation)
        } else if id < edges + aggs + cores {
            Some(Layer::Core)
        } else {
            None
        }
    }

    /// All switch IDs in the tree.
    pub fn all_switch_ids(&self) -> Vec<u32> {
        (1..=self.switch_count()).collect()
    }

    /// Validate a host position.
    pub fn check_host(&self, host: Host) -> Result<(), TopologyError> {
        if host.pod < self.k && host.edge < self.half() && host.idx < self.half() {
            Ok(())
        } else {
            Err(TopologyError::InvalidHost(host))
        }
    }

    /// The host at a dense index `∈ [0, host_count)`.
    pub fn host(&self, index: u32) -> Host {
        let h = u32::from(self.half());
        let per_pod = h * h;
        Host {
            pod: (index / per_pod) as u8,
            edge: ((index % per_pod) / h) as u8,
            idx: (index % h) as u8,
        }
    }

    /// ECMP route from `src` to `dst` for `flow`: the ordered switch IDs
    /// the packet traverses. Same-edge pairs take 1 hop, intra-pod 3,
    /// inter-pod 5.
    pub fn route(&self, src: Host, dst: Host, flow: &FiveTuple) -> Result<Path, TopologyError> {
        self.route_with_failures(src, dst, flow, &[])
    }

    /// ECMP route avoiding `failed` aggregation/core switches — the
    /// fast-failover behaviour that makes flows change paths mid-life
    /// (and thereby re-trigger event-filtered INT reports). Each ECMP
    /// choice probes successive candidates until one avoids the failed
    /// set; if every candidate is down the route falls back to the
    /// original (traffic blackholes, like real life).
    pub fn route_with_failures(
        &self,
        src: Host,
        dst: Host,
        flow: &FiveTuple,
        failed: &[u32],
    ) -> Result<Path, TopologyError> {
        self.check_host(src)?;
        self.check_host(dst)?;
        let h = u64::from(self.half());
        let key = flow.to_bytes();
        let alive = |id: u32| !failed.contains(&id);

        // Probe aggregation candidates in hash order; the agg choice must
        // be alive in BOTH pods (core (a, c) pins the far-side agg).
        let pick = |seed: u64, ok: &dyn Fn(u8) -> bool| -> u8 {
            let base = hash_bytes(&key, seed);
            for probe in 0..h {
                let candidate = ((base + probe) % h) as u8;
                if ok(candidate) {
                    return candidate;
                }
            }
            (base % h) as u8
        };

        if src.pod == dst.pod && src.edge == dst.edge {
            return Ok(Path::new(&[self.edge_id(src.pod, src.edge)]));
        }
        if src.pod == dst.pod {
            let a = pick(0xECB0, &|a| alive(self.agg_id(src.pod, a)));
            return Ok(Path::new(&[
                self.edge_id(src.pod, src.edge),
                self.agg_id(src.pod, a),
                self.edge_id(dst.pod, dst.edge),
            ]));
        }
        let a = pick(0xECB0, &|a| {
            alive(self.agg_id(src.pod, a)) && alive(self.agg_id(dst.pod, a))
        });
        let c = pick(0xECB1, &|c| alive(self.core_id(a, c)));
        Ok(Path::new(&[
            self.edge_id(src.pod, src.edge),
            self.agg_id(src.pod, a),
            self.core_id(a, c),
            self.agg_id(dst.pod, a),
            self.edge_id(dst.pod, dst.edge),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(seed: u16) -> FiveTuple {
        FiveTuple {
            src_ip: ipv4::Address([10, 0, 0, 2]),
            dst_ip: ipv4::Address([10, 1, 0, 2]),
            src_port: 30000 + seed,
            dst_port: 80,
            protocol: 6,
        }
    }

    #[test]
    fn arity_validation() {
        assert!(FatTree::new(4).is_ok());
        assert!(matches!(
            FatTree::new(3),
            Err(TopologyError::InvalidArity(3))
        ));
        assert!(matches!(
            FatTree::new(0),
            Err(TopologyError::InvalidArity(0))
        ));
    }

    #[test]
    fn k4_counts() {
        let t = FatTree::new(4).unwrap();
        assert_eq!(t.layer_counts(), (8, 8, 4));
        assert_eq!(t.switch_count(), 20);
        assert_eq!(t.host_count(), 16);
    }

    #[test]
    fn ids_are_dense_and_layered() {
        let t = FatTree::new(4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for pod in 0..4 {
            for i in 0..2 {
                assert!(seen.insert(t.edge_id(pod, i)));
                assert!(seen.insert(t.agg_id(pod, i)));
            }
        }
        for a in 0..2 {
            for c in 0..2 {
                assert!(seen.insert(t.core_id(a, c)));
            }
        }
        assert_eq!(seen.len(), 20);
        assert_eq!(t.layer_of(t.edge_id(0, 0)), Some(Layer::Edge));
        assert_eq!(t.layer_of(t.agg_id(3, 1)), Some(Layer::Aggregation));
        assert_eq!(t.layer_of(t.core_id(1, 1)), Some(Layer::Core));
        assert_eq!(t.layer_of(0), None);
        assert_eq!(t.layer_of(21), None);
    }

    #[test]
    fn inter_pod_routes_are_5_hops() {
        let t = FatTree::new(4).unwrap();
        let src = Host {
            pod: 0,
            edge: 0,
            idx: 0,
        };
        let dst = Host {
            pod: 2,
            edge: 1,
            idx: 1,
        };
        let route = t.route(src, dst, &flow(1)).unwrap();
        assert_eq!(route.len(), 5);
        assert_eq!(t.layer_of(route[0]), Some(Layer::Edge));
        assert_eq!(t.layer_of(route[1]), Some(Layer::Aggregation));
        assert_eq!(t.layer_of(route[2]), Some(Layer::Core));
        assert_eq!(t.layer_of(route[3]), Some(Layer::Aggregation));
        assert_eq!(t.layer_of(route[4]), Some(Layer::Edge));
        // Up/down aggregation indices must match (core pins them).
        let h = 2u32;
        let a_up = (route[1] - 1 - 8) % h;
        let a_down = (route[3] - 1 - 8) % h;
        assert_eq!(a_up, a_down);
    }

    #[test]
    fn intra_pod_routes_are_3_hops() {
        let t = FatTree::new(4).unwrap();
        let src = Host {
            pod: 1,
            edge: 0,
            idx: 0,
        };
        let dst = Host {
            pod: 1,
            edge: 1,
            idx: 0,
        };
        let route = t.route(src, dst, &flow(2)).unwrap();
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn same_edge_routes_are_1_hop() {
        let t = FatTree::new(4).unwrap();
        let src = Host {
            pod: 1,
            edge: 1,
            idx: 0,
        };
        let dst = Host {
            pod: 1,
            edge: 1,
            idx: 1,
        };
        let route = t.route(src, dst, &flow(3)).unwrap();
        assert_eq!(route, vec![t.edge_id(1, 1)]);
    }

    #[test]
    fn routes_are_flow_stable_but_spread() {
        let t = FatTree::new(8).unwrap();
        let src = Host {
            pod: 0,
            edge: 0,
            idx: 0,
        };
        let dst = Host {
            pod: 5,
            edge: 2,
            idx: 1,
        };
        let r1 = t.route(src, dst, &flow(7)).unwrap();
        let r2 = t.route(src, dst, &flow(7)).unwrap();
        assert_eq!(r1, r2, "same flow, same path");
        let mut cores = std::collections::HashSet::new();
        for s in 0..64 {
            cores.insert(t.route(src, dst, &flow(s)).unwrap()[2]);
        }
        assert!(cores.len() > 4, "ECMP should spread across cores");
    }

    #[test]
    fn failover_avoids_failed_switches() {
        let t = FatTree::new(4).unwrap();
        let src = Host {
            pod: 0,
            edge: 0,
            idx: 0,
        };
        let dst = Host {
            pod: 2,
            edge: 1,
            idx: 1,
        };
        let f = flow(11);
        let healthy = t.route(src, dst, &f).unwrap();
        // Fail the core this flow uses: the reroute must avoid it but
        // still deliver a valid 5-hop path.
        let failed = [healthy[2]];
        let rerouted = t.route_with_failures(src, dst, &f, &failed).unwrap();
        assert_eq!(rerouted.len(), 5);
        assert_ne!(rerouted[2], healthy[2], "must avoid the failed core");
        assert_eq!(t.layer_of(rerouted[2]), Some(Layer::Core));
        // Up/down agg indices still pinned by the core.
        let h = 2u32;
        assert_eq!((rerouted[1] - 1 - 8) % h, (rerouted[3] - 1 - 8) % h);
        // And the flow is stable on the new path too.
        assert_eq!(
            rerouted,
            t.route_with_failures(src, dst, &f, &failed).unwrap()
        );
    }

    #[test]
    fn failing_an_aggregation_switch_moves_both_sides() {
        let t = FatTree::new(4).unwrap();
        let src = Host {
            pod: 0,
            edge: 0,
            idx: 0,
        };
        let dst = Host {
            pod: 1,
            edge: 0,
            idx: 0,
        };
        let f = flow(3);
        let healthy = t.route(src, dst, &f).unwrap();
        let failed = [healthy[1]]; // src-side agg
        let rerouted = t.route_with_failures(src, dst, &f, &failed).unwrap();
        assert!(!rerouted.contains(&healthy[1]));
        assert_eq!(rerouted.len(), 5);
    }

    #[test]
    fn all_candidates_failed_falls_back() {
        let t = FatTree::new(4).unwrap();
        let src = Host {
            pod: 0,
            edge: 0,
            idx: 0,
        };
        let dst = Host {
            pod: 1,
            edge: 0,
            idx: 0,
        };
        let f = flow(5);
        // Fail every aggregation switch in the source pod.
        let failed: Vec<u32> = (0..2).map(|a| t.agg_id(0, a)).collect();
        let route = t.route_with_failures(src, dst, &f, &failed).unwrap();
        // Blackhole: the route still names an agg (traffic would drop),
        // but the function must not panic or loop.
        assert_eq!(route.len(), 5);
    }

    #[test]
    fn invalid_hosts_rejected() {
        let t = FatTree::new(4).unwrap();
        let bad = Host {
            pod: 9,
            edge: 0,
            idx: 0,
        };
        let ok = Host {
            pod: 0,
            edge: 0,
            idx: 0,
        };
        assert!(t.route(bad, ok, &flow(1)).is_err());
        assert!(t.route(ok, bad, &flow(1)).is_err());
    }

    #[test]
    fn dense_host_indexing_roundtrip() {
        let t = FatTree::new(4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..t.host_count() {
            let h = t.host(i);
            t.check_host(h).unwrap();
            assert!(seen.insert(h.ip()));
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn host_ips_follow_convention() {
        let h = Host {
            pod: 3,
            edge: 1,
            idx: 0,
        };
        assert_eq!(h.ip(), ipv4::Address([10, 3, 1, 2]));
    }
}
