//! Reproducible flow workloads.
//!
//! Generates flow 5-tuples between fat-tree hosts. Destination selection
//! is either uniform or Zipf-skewed (datacenter traffic concentrates on
//! hot services); source ports are ephemeral, so keys are unique with
//! overwhelming probability and the generator additionally deduplicates
//! by each flow's packed id.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dta_wire::FiveTuple;

use crate::fattree::{FatTree, Host};

/// Destination skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// Uniform over hosts.
    Uniform,
    /// Zipf with this exponent (e.g. 1.0).
    Zipf(f64),
}

/// A sampled Zipf distribution over `n` ranks.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf(`s`) distribution over `n` ranks.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank `∈ [0, n)`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// A bijective 64-bit mix (MurmurHash3's finalizer): distinct flow ids
/// stay distinct, and every id bit reaches every bit of the result.
fn mix(id: u64) -> u64 {
    let mut x = id ^ (id >> 33);
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The dedup set's hasher. Its keys are flow ids already passed through
/// [`mix`], so a key is its own hash. The keys come from the generator,
/// never from outside, so the flooding resistance SipHash buys is not
/// needed here.
#[derive(Default)]
struct MixedIdHasher(u64);

impl Hasher for MixedIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the dedup set hashes only its u64 keys")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard of the dedup set: mixed flow ids, 9 bytes per bucket.
type IdSet = HashSet<u64, BuildHasherDefault<MixedIdHasher>>;

/// log2 of the dedup set's shard count.
const SHARD_BITS: u32 = 5;

/// Shards of the dedup set. A resize rebuilds one shard's table, so
/// only that shard's old table is live beside the set, not the whole
/// set's.
const SHARDS: usize = 1 << SHARD_BITS;

/// Where a mixed id's shard index starts: just below the top 7 bits,
/// which hashbrown keeps as each bucket's tag (its bucket index comes
/// from the low bits), so the keys of one shard still differ in both.
const SHARD_SHIFT: u32 = 64 - 7 - SHARD_BITS;

/// Well-known destination ports the generator draws from.
const DST_PORTS: [u16; 6] = [80, 443, 8080, 5432, 6379, 9092];

/// First ephemeral source port the generator draws.
const SRC_PORT_MIN: u16 = 32768;

/// Last ephemeral source port the generator draws.
const SRC_PORT_MAX: u16 = 60999;

/// Ephemeral source ports the generator draws.
const SRC_PORT_COUNT: u64 = (SRC_PORT_MAX - SRC_PORT_MIN) as u64 + 1;

/// A generated flow: endpoints plus the wire 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Source host.
    pub src: Host,
    /// Destination host.
    pub dst: Host,
    /// The 5-tuple key.
    pub tuple: FiveTuple,
}

/// Deterministic flow generator for a fat-tree.
pub struct FlowGenerator {
    tree: FatTree,
    rng: StdRng,
    skew: Skew,
    zipf: Option<Zipf>,
    /// The mixed id of every flow issued so far, in the shard that a
    /// few of its bits pick.
    seen: [IdSet; SHARDS],
}

impl FlowGenerator {
    /// Build a generator.
    pub fn new(tree: FatTree, skew: Skew, seed: u64) -> FlowGenerator {
        let zipf = match skew {
            Skew::Zipf(s) => Some(Zipf::new(tree.host_count() as usize, s)),
            Skew::Uniform => None,
        };
        FlowGenerator {
            tree,
            rng: StdRng::seed_from_u64(seed),
            skew,
            zipf,
            seen: std::array::from_fn(|_| IdSet::default()),
        }
    }

    /// The configured skew.
    pub fn skew(&self) -> Skew {
        self.skew
    }

    /// Generate the next flow with a previously unseen 5-tuple.
    pub fn next_flow(&mut self) -> Flow {
        self.next_flow_and_id().0
    }

    /// Generate the next flow, as [`FlowGenerator::next_flow`] does, with
    /// its packed id: its place in the generator's domain `src host ×
    /// dst host × src port × dst port`, read as one mixed-radix number
    /// (hosts by dense index, source ports from 32768, destination ports
    /// by their index in the well-known list; the protocol is always
    /// TCP). The mapping is exact, so [`FlowGenerator::flow_from_id`]
    /// recovers the flow, and the largest domain (`k` = 254) still fits
    /// a `u64`.
    pub(crate) fn next_flow_and_id(&mut self) -> (Flow, u64) {
        let hosts = self.tree.host_count();
        loop {
            let src_index = self.rng.gen_range(0..hosts);
            let dst_index = match &self.zipf {
                Some(z) => z.sample(&mut self.rng) as u32,
                None => self.rng.gen_range(0..hosts),
            };
            if src_index == dst_index {
                continue;
            }
            let src_port: u16 = self.rng.gen_range(SRC_PORT_MIN..=SRC_PORT_MAX);
            let dst_port = self.rng.gen_range(0..DST_PORTS.len());
            let hosts_id = u64::from(src_index) * u64::from(hosts) + u64::from(dst_index);
            let id = (hosts_id * SRC_PORT_COUNT + u64::from(src_port - SRC_PORT_MIN))
                * DST_PORTS.len() as u64
                + dst_port as u64;
            let mixed = mix(id);
            if self.seen[(mixed >> SHARD_SHIFT) as usize % SHARDS].insert(mixed) {
                let (src, dst) = (self.tree.host(src_index), self.tree.host(dst_index));
                let tuple = FiveTuple {
                    src_ip: src.ip(),
                    dst_ip: dst.ip(),
                    src_port,
                    dst_port: DST_PORTS[dst_port],
                    protocol: 6,
                };
                return (Flow { src, dst, tuple }, id);
            }
        }
    }

    /// The flow whose packed id ([`FlowGenerator::next_flow_and_id`]) is
    /// `id`.
    pub(crate) fn flow_from_id(&self, id: u64) -> Flow {
        let hosts = u64::from(self.tree.host_count());
        let ports = DST_PORTS.len() as u64;
        let dst_port = DST_PORTS[(id % ports) as usize];
        let id = id / ports;
        let src_port = SRC_PORT_MIN + (id % SRC_PORT_COUNT) as u16;
        let id = id / SRC_PORT_COUNT;
        let src = self.tree.host((id / hosts) as u32);
        let dst = self.tree.host((id % hosts) as u32);
        Flow {
            src,
            dst,
            tuple: FiveTuple {
                src_ip: src.ip(),
                dst_ip: dst.ip(),
                src_port,
                dst_port,
                protocol: 6,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> FatTree {
        FatTree::new(4).unwrap()
    }

    #[test]
    fn flows_are_deterministic_per_seed() {
        let mut a = FlowGenerator::new(tree(), Skew::Uniform, 7);
        let mut b = FlowGenerator::new(tree(), Skew::Uniform, 7);
        for _ in 0..32 {
            assert_eq!(a.next_flow(), b.next_flow());
        }
        let mut c = FlowGenerator::new(tree(), Skew::Uniform, 8);
        assert_ne!(a.next_flow(), c.next_flow());
    }

    #[test]
    fn flows_never_duplicate_keys() {
        let mut g = FlowGenerator::new(tree(), Skew::Uniform, 1);
        let mut keys = HashSet::new();
        for _ in 0..1000 {
            assert!(keys.insert(g.next_flow().tuple));
        }
    }

    /// The dedup set only rejects repeats, so neither its key nor its
    /// layout may move the flow sequence: a digest (FNV-1a over the
    /// 13-byte keys) of seed 1's first 100k flows is pinned. At k = 16
    /// the ids exceed 2^32.
    #[test]
    fn flow_sequence_is_pinned() {
        for (k, skew, digest) in [
            (8, Skew::Uniform, 0xabe6_4515_603b_d323u64),
            (4, Skew::Zipf(1.0), 0x2da7_361f_6eef_6344),
            (16, Skew::Uniform, 0xd66f_3746_64ca_0915),
        ] {
            let mut g = FlowGenerator::new(FatTree::new(k).unwrap(), skew, 1);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for _ in 0..100_000 {
                for b in g.next_flow().tuple.to_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(h, digest, "k={k} {skew:?}");
        }
    }

    /// Every issued flow's id maps back to it, and no id repeats, at
    /// three tree sizes and both skews.
    #[test]
    fn flow_ids_round_trip_and_are_distinct() {
        for k in [4, 8, 16] {
            for skew in [Skew::Uniform, Skew::Zipf(1.0)] {
                let mut g = FlowGenerator::new(FatTree::new(k).unwrap(), skew, 1);
                let mut ids = HashSet::new();
                for _ in 0..100_000 {
                    let (flow, id) = g.next_flow_and_id();
                    assert_eq!(g.flow_from_id(id), flow, "k={k} {skew:?} id {id}");
                    assert!(ids.insert(id), "k={k} {skew:?}: id {id} repeats");
                }
            }
        }
    }

    #[test]
    fn endpoints_differ() {
        let mut g = FlowGenerator::new(tree(), Skew::Uniform, 2);
        for _ in 0..200 {
            let f = g.next_flow();
            assert_ne!(f.src, f.dst);
            assert_eq!(f.tuple.src_ip, f.src.ip());
            assert_eq!(f.tuple.dst_ip, f.dst.ip());
        }
    }

    #[test]
    fn zipf_skews_destinations() {
        let mut g = FlowGenerator::new(tree(), Skew::Zipf(1.2), 3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2000 {
            *counts.entry(g.next_flow().dst).or_insert(0u32) += 1;
        }
        let max = *counts.values().max().unwrap();
        let min = *counts.values().min().unwrap_or(&0);
        assert!(
            max > 4 * min.max(1),
            "Zipf head ({max}) should dominate tail ({min})"
        );
    }

    #[test]
    fn zipf_cdf_properties() {
        let z = Zipf::new(100, 1.0);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        // CDF strictly increasing.
        for w in z.cdf.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Rank 0 carries the most mass.
        assert!(z.cdf[0] > 1.0 / 100.0);
    }

    #[test]
    fn zipf_sampling_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }
}
