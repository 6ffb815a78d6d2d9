//! Reproducible flow workloads.
//!
//! Generates flow 5-tuples between fat-tree hosts. Destination selection
//! is either uniform or Zipf-skewed (datacenter traffic concentrates on
//! hot services); source ports are ephemeral, so keys are unique with
//! overwhelming probability and the generator additionally deduplicates.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dta_wire::{ipv4, FiveTuple};

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

/// A multiplicative hasher for the generator's own tuple keys: one
/// 128-bit multiply folded to 64 bits per key. The keys come from the
/// generator, never from outside, so the flooding resistance SipHash
/// buys is not needed here.
#[derive(Default)]
struct TupleHasher(u64);

impl Hasher for TupleHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.write_u128(u128::from(word));
    }

    fn write_u128(&mut self, key: u128) {
        // Folded multiply: the high and low halves of the product mix
        // every input bit into both the bucket bits and the tag bits.
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let lo = (key as u64) ^ self.0;
        let hi = (key >> 64) as u64 ^ K;
        let product = u128::from(lo ^ K.rotate_left(23)) * u128::from(hi);
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A 5-tuple as the dedup set stores it: its 13 wire bytes (13 bytes
/// per bucket, where a `FiveTuple` takes 14), hashed as one integer.
#[derive(PartialEq, Eq)]
struct TupleKey([u8; FiveTuple::WIRE_LEN]);

impl Hash for TupleKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut bytes = [0u8; 16];
        bytes[..FiveTuple::WIRE_LEN].copy_from_slice(&self.0);
        state.write_u128(u128::from_le_bytes(bytes));
    }
}

/// Well-known destination ports the generator draws from.
const DST_PORTS: [u16; 6] = [80, 443, 8080, 5432, 6379, 9092];

/// First ephemeral source port the generator draws.
const SRC_PORT_MIN: u16 = 32768;

/// Ephemeral source ports the generator draws (`32768..=60999`).
const SRC_PORT_COUNT: u64 = 60999 - SRC_PORT_MIN as u64 + 1;

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
    /// Every tuple issued so far.
    seen: HashSet<TupleKey, BuildHasherDefault<TupleHasher>>,
    /// Well-known destination ports drawn from.
    dst_ports: Vec<u16>,
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
            seen: HashSet::default(),
            dst_ports: DST_PORTS.to_vec(),
        }
    }

    /// The configured skew.
    pub fn skew(&self) -> Skew {
        self.skew
    }

    /// Generate the next flow with a previously unseen 5-tuple.
    pub fn next_flow(&mut self) -> Flow {
        loop {
            let hosts = self.tree.host_count();
            let src = self.tree.host(self.rng.gen_range(0..hosts));
            let dst_index = match &self.zipf {
                Some(z) => z.sample(&mut self.rng) as u32,
                None => self.rng.gen_range(0..hosts),
            };
            let dst = self.tree.host(dst_index);
            if src == dst {
                continue;
            }
            let tuple = FiveTuple {
                src_ip: src.ip(),
                dst_ip: dst.ip(),
                src_port: self.rng.gen_range(32768..=60999),
                dst_port: self.dst_ports[self.rng.gen_range(0..self.dst_ports.len())],
                protocol: 6,
            };
            if self.seen.insert(TupleKey(tuple.to_bytes())) {
                return Flow { src, dst, tuple };
            }
        }
    }

    /// The packed id of a tuple this generator issued: its place in the
    /// generator's domain `src host × dst host × src port × dst port`,
    /// read as one mixed-radix number (hosts by dense index, source
    /// ports from 32768, destination ports by their index in the
    /// well-known list; the protocol is always TCP). The mapping is
    /// exact, so [`FlowGenerator::flow_from_id`] recovers the flow, and
    /// the largest domain (`k` = 254) still fits a `u64`.
    ///
    /// # Panics
    /// Panics if `tuple` lies outside the generator's domain.
    pub(crate) fn flow_id(&self, tuple: &FiveTuple) -> u64 {
        let hosts = u64::from(self.tree.host_count());
        let src_port = tuple
            .src_port
            .checked_sub(SRC_PORT_MIN)
            .map(u64::from)
            .filter(|&port| port < SRC_PORT_COUNT)
            .expect("source port outside the generator's ephemeral range");
        let dst_port = DST_PORTS
            .iter()
            .position(|&port| port == tuple.dst_port)
            .expect("destination port outside the generator's list") as u64;
        assert_eq!(tuple.protocol, 6, "the generator issues TCP tuples only");
        let hosts_id = self.host_index(tuple.src_ip) * hosts + self.host_index(tuple.dst_ip);
        (hosts_id * SRC_PORT_COUNT + src_port) * DST_PORTS.len() as u64 + dst_port
    }

    /// The flow whose [`FlowGenerator::flow_id`] is `id`.
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

    /// The dense index of the host at `ip` (`10.pod.edge.idx+2`), the
    /// inverse of [`FatTree::host`].
    ///
    /// # Panics
    /// Panics if no host of the tree has that address.
    fn host_index(&self, ip: ipv4::Address) -> u64 {
        let [net, pod, edge, idx] = ip.0;
        assert_eq!(net, 10, "host addresses are 10.pod.edge.idx+2");
        let host = Host {
            pod,
            edge,
            idx: idx.wrapping_sub(2),
        };
        self.tree
            .check_host(host)
            .expect("address outside the tree's hosts");
        let half = u64::from(self.tree.k / 2);
        (u64::from(pod) * half + u64::from(edge)) * half + u64::from(host.idx)
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

    /// The dedup set's hasher only places keys in buckets, so it must
    /// not move the flow sequence: a digest (FNV-1a over the 13-byte
    /// keys) of seed 1's first 100k flows is pinned.
    #[test]
    fn flow_sequence_is_pinned() {
        for (k, skew, digest) in [
            (8, Skew::Uniform, 0xabe6_4515_603b_d323u64),
            (4, Skew::Zipf(1.0), 0x2da7_361f_6eef_6344),
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

    /// Every issued tuple maps to its own id and back, at three tree
    /// sizes and both skews.
    #[test]
    fn flow_ids_round_trip_and_are_distinct() {
        for k in [4, 8, 16] {
            for skew in [Skew::Uniform, Skew::Zipf(1.0)] {
                let mut g = FlowGenerator::new(FatTree::new(k).unwrap(), skew, 1);
                let mut ids = HashSet::new();
                for _ in 0..100_000 {
                    let flow = g.next_flow();
                    let id = g.flow_id(&flow.tuple);
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
