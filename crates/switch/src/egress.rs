//! The DART egress engine: from `(key, value)` to a RoCEv2 WRITE frame.
//!
//! This is the heart of the §6 prototype. Per report the pipeline:
//!
//! 1. draws the copy index `n ∈ [0, N)` from the RNG extern;
//! 2. hashes the key with the CRC-16 extern (prefix `0xC0`) to the
//!    collector ID, and `(0xA0, n, key)` with the CRC-32C extern to the
//!    slot index — bit-exact with [`dta_core::hash::CrcMapping`];
//! 3. looks the collector ID up in the match-action collector table to
//!    fetch MAC / IP / QPN / rkey / base VA;
//! 4. reads-and-increments the per-collector PSN register;
//! 5. deparses Ethernet ‖ IPv4 ‖ UDP(4791) ‖ BTH ‖ RETH ‖
//!    `checksum ‖ value` ‖ iCRC.
//!
//! Hardware constraints honoured here: the slot count must be a power of
//! two (the modulo reduction is a bit mask on Tofino), keys are bounded
//! (parser depth), and the only mutable state is the PSN register array.

use std::collections::HashSet;

use dta_core::hash::{
    failover_collector, AddressMapping, CrcMapping, FailoverRecord, FailoverTarget, LivenessMask,
};
use dta_core::primitive::{append_encode_entry, increment_decode, PrimitiveSpec};
use dta_obs::{Counter, EventKind, Obs};
use dta_rdma::link::FrameArena;
use dta_rdma::verbs::RemoteEndpoint;
use dta_wire::dart::SlotLayout;
use dta_wire::roce::{self, AtomicEthRepr, BthRepr, Opcode, Psn, RethRepr};

use crate::externs::{RandomExtern, RegisterArray};
use crate::tables::{InstallError, MatchActionTable};
use crate::SwitchIdentity;

/// Maximum telemetry key length the parser supports.
pub const MAX_KEY_LEN: usize = 64;

/// Cap on distinct keys the failover log retains. Slots store only the
/// non-invertible key *checksum*, so the re-replication sweep must be
/// key-driven: the switch is the one component that sees every remapped
/// key and can remember it. The cap bounds the control-plane SRAM/DRAM
/// this costs; overflow is counted, never silently dropped.
pub const FAILOVER_LOG_CAP: usize = 4096;

/// Errors from the egress engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchError {
    /// The collector ID hashed to has no table entry.
    UnknownCollector(u32),
    /// Slot count must be a power of two for the hardware mask reduction.
    SlotsNotPowerOfTwo(u64),
    /// The key exceeds [`MAX_KEY_LEN`].
    KeyTooLong(usize),
    /// The value length does not match the slot layout.
    ValueLength {
        /// Configured value length.
        expected: usize,
        /// Supplied value length.
        actual: usize,
    },
    /// The collector table is full.
    TableFull,
    /// The endpoint's region cannot hold the configured slots.
    RegionTooSmall {
        /// Bytes required.
        required: u64,
        /// Bytes available.
        available: u64,
    },
    /// Every liveness register reads dead — no collector to report to.
    NoLiveCollector,
    /// The configured primitive is invalid for this geometry, or a
    /// primitive-specific craft entry point was called under a different
    /// primitive.
    InvalidPrimitive(&'static str),
    /// An append ring index beyond the configured ring count.
    RingOutOfRange(u64),
}

impl core::fmt::Display for SwitchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SwitchError::UnknownCollector(id) => write!(f, "no endpoint for collector {id}"),
            SwitchError::SlotsNotPowerOfTwo(s) => {
                write!(f, "slot count {s} is not a power of two")
            }
            SwitchError::KeyTooLong(len) => write!(f, "key of {len} bytes exceeds parser depth"),
            SwitchError::ValueLength { expected, actual } => {
                write!(f, "value length {actual} != configured {expected}")
            }
            SwitchError::TableFull => write!(f, "collector lookup table full"),
            SwitchError::RegionTooSmall {
                required,
                available,
            } => write!(
                f,
                "region of {available} B cannot hold {required} B of slots"
            ),
            SwitchError::NoLiveCollector => write!(f, "all collectors marked dead"),
            SwitchError::InvalidPrimitive(msg) => write!(f, "invalid primitive: {msg}"),
            SwitchError::RingOutOfRange(ring) => write!(f, "append ring {ring} out of range"),
        }
    }
}

impl std::error::Error for SwitchError {}

/// Static egress configuration (compiled into the P4 program).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgressConfig {
    /// Redundant copies per key (`N`).
    pub copies: u8,
    /// Slots per collector region (power of two).
    pub slots: u64,
    /// Slot layout (checksum width + value length).
    pub layout: SlotLayout,
    /// Number of collectors the key space is sharded over.
    pub collectors: u32,
    /// UDP source port for crafted reports.
    pub udp_src_port: u16,
    /// Which translation primitive this pipeline runs.
    pub primitive: PrimitiveSpec,
}

impl EgressConfig {
    /// Bytes one entry occupies under the configured primitive.
    pub fn entry_len(&self) -> usize {
        self.primitive.entry_len(&self.layout)
    }

    /// Number of append rings (1 for the non-ring primitives).
    pub fn rings(&self) -> u64 {
        self.primitive.rings(self.slots)
    }
}

/// Which of a report's copies one crafting call emits.
#[derive(Debug, Clone, Copy)]
enum Copies {
    /// Every frame the primitive requires.
    All,
    /// One Key-Write copy.
    One(u8),
}

/// Where one crafted frame went.
#[derive(Debug, Clone, Copy)]
struct CraftedMeta {
    collector_id: u32,
    copy: u8,
    slot: u64,
    psn: Psn,
}

/// One crafted DART report, ready for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CraftedReport {
    /// Collector the report is addressed to.
    pub collector_id: u32,
    /// Copy index the RNG selected.
    pub copy: u8,
    /// Slot index within the collector region.
    pub slot: u64,
    /// The PSN used.
    pub psn: Psn,
    /// The complete Ethernet frame.
    pub frame: Vec<u8>,
}

/// The longest frame one report copy under `config` takes: a WRITE of
/// one padded entry, or a FETCH_ADD.
fn max_frame_len(config: &EgressConfig) -> usize {
    let entry_len = config.entry_len();
    let write = roce::write_len(entry_len, ((4 - entry_len % 4) % 4) as u8);
    crate::deparse::frame_len(write.max(roce::BTH_LEN + roce::ATOMIC_ETH_LEN))
}

/// Per-switch egress counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EgressCounters {
    /// Reports crafted successfully.
    pub reports: u64,
    /// Reports dropped because the collector had no table entry.
    pub unknown_collector: u64,
    /// Reports remapped to a survivor because the primary's liveness
    /// register read dead.
    pub failovers: u64,
    /// Reports dropped because every liveness register read dead.
    pub no_live_collector: u64,
    /// Remapped keys the failover log could not retain because it was
    /// at [`FAILOVER_LOG_CAP`]. The sweep for those keys degrades to
    /// query-time failover (the old behaviour), never to data loss.
    pub failover_log_dropped: u64,
}

/// Cached observability handles: registered once at attach time so the
/// per-report path is a lone atomic add per counter.
struct EgressObs {
    obs: Obs,
    reports: Counter,
    unknown_collector: Counter,
    failovers: Counter,
    no_live_collector: Counter,
}

/// The DART report-crafting engine of one switch.
pub struct DartEgress {
    identity: SwitchIdentity,
    config: EgressConfig,
    mapping: CrcMapping,
    rng: RandomExtern,
    collector_table: MatchActionTable<RemoteEndpoint>,
    psn_registers: RegisterArray<u32>,
    /// Append tail-pointer registers, one per (collector, ring), laid
    /// out `collector * rings + ring`. Each holds the *last stored*
    /// sequence number of its ring (0 = never written); the data plane
    /// post-increments it per append, exactly the PSN-register idiom.
    /// Empty for the non-ring primitives.
    tail_registers: RegisterArray<u32>,
    /// One bit of mutable state per collector: alive (1) or dead (0),
    /// written by the control plane's health monitor, read feed-forward
    /// by every report (§6's register-extern-only constraint).
    liveness: RegisterArray<u8>,
    /// Control-plane log of keys remapped while their primary was dead:
    /// one [`FailoverRecord`] per distinct key, insertion-ordered (so
    /// draining is deterministic), membership-checked through
    /// `failover_logged`. The recovery sweep drains this.
    failover_log: Vec<FailoverRecord>,
    failover_logged: HashSet<Vec<u8>>,
    counters: EgressCounters,
    obs: Option<EgressObs>,
    /// Where the owned-report wrappers craft before copying frames out.
    scratch: FrameArena,
    scratch_meta: Vec<CraftedMeta>,
}

impl DartEgress {
    /// Build the engine. `slots` must be a power of two.
    pub fn new(
        identity: SwitchIdentity,
        config: EgressConfig,
        rng_seed: u64,
    ) -> Result<DartEgress, SwitchError> {
        if !config.slots.is_power_of_two() {
            return Err(SwitchError::SlotsNotPowerOfTwo(config.slots));
        }
        config
            .primitive
            .validate(config.slots, config.copies, &config.layout)
            .map_err(|e| match e {
                dta_core::DartError::InvalidConfig(msg) => SwitchError::InvalidPrimitive(msg),
                _ => SwitchError::InvalidPrimitive("primitive rejected the geometry"),
            })?;
        let collectors = usize::try_from(config.collectors).unwrap();
        let mut liveness = RegisterArray::new(collectors);
        for id in 0..collectors {
            liveness.write(id, 1).expect("sized above");
        }
        // Tail registers only exist for the ring primitive; Key-Write
        // and Key-Increment keep the SRAM.
        let tail_cells = match config.primitive {
            PrimitiveSpec::Append { .. } => collectors * config.rings() as usize,
            _ => 0,
        };
        Ok(DartEgress {
            identity,
            config,
            mapping: CrcMapping::new(),
            rng: RandomExtern::new(rng_seed),
            collector_table: MatchActionTable::new(collectors),
            psn_registers: RegisterArray::new(collectors),
            tail_registers: RegisterArray::new(tail_cells),
            liveness,
            failover_log: Vec::new(),
            failover_logged: HashSet::new(),
            counters: EgressCounters::default(),
            obs: None,
            // Sized for one report, so the wrappers never grow it.
            scratch: FrameArena::with_capacity(
                usize::from(config.copies),
                usize::from(config.copies) * max_frame_len(&config),
            ),
            scratch_meta: Vec::with_capacity(usize::from(config.copies)),
        })
    }

    /// Attach an observability handle. Counters are registered here,
    /// once, under `dta_switch_*`; the per-report hot path then only
    /// performs atomic adds. A [`Obs::noop`] handle keeps the call
    /// sites valid while recording no events.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = Some(EgressObs {
            reports: obs.counter("dta_switch_reports_total"),
            unknown_collector: obs.counter("dta_switch_unknown_collector_total"),
            failovers: obs.counter("dta_switch_failovers_total"),
            no_live_collector: obs.counter("dta_switch_no_live_collector_total"),
            obs: obs.clone(),
        });
    }

    /// The static configuration.
    pub fn config(&self) -> &EgressConfig {
        &self.config
    }

    /// This switch's identity.
    pub fn identity(&self) -> SwitchIdentity {
        self.identity
    }

    /// Egress counters.
    pub fn counters(&self) -> EgressCounters {
        self.counters
    }

    /// Install a collector endpoint (control-plane write; §6's lookup
    /// table costs ~20 B of SRAM per entry).
    pub fn install_collector(
        &mut self,
        collector_id: u32,
        endpoint: RemoteEndpoint,
    ) -> Result<(), SwitchError> {
        let required = self.config.slots * self.config.entry_len() as u64;
        if endpoint.region_len < required {
            return Err(SwitchError::RegionTooSmall {
                required,
                available: endpoint.region_len,
            });
        }
        // Seed the PSN register with the QP's negotiated start PSN so the
        // first crafted report is exactly what the collector expects.
        self.psn_registers
            .write(collector_id as usize, endpoint.start_psn.value())
            .ok();
        self.collector_table
            .install(collector_id, endpoint)
            .map_err(|InstallError::Full| SwitchError::TableFull)
    }

    /// Control-plane write after an epoch rotation (§5.2.1): each
    /// collector row takes the rkey and base VA of the live region
    /// `directory` lists for it. QPs stay, so PSN registers are kept.
    pub fn repoint_collectors(&mut self, directory: &[RemoteEndpoint]) -> Result<(), SwitchError> {
        for (id, live) in (0u32..).zip(directory) {
            let row = self.collector_table.peek(id);
            let row = *row.ok_or(SwitchError::UnknownCollector(id))?;
            let (rkey, base_va) = (live.rkey, live.base_va);
            let row = RemoteEndpoint {
                rkey,
                base_va,
                ..row
            };
            self.collector_table
                .install(id, row)
                .expect("the row exists");
        }
        Ok(())
    }

    /// Control-plane write of one collector's liveness register. The
    /// health monitor calls this on every state flip; the data plane only
    /// ever reads it.
    pub fn set_collector_liveness(
        &mut self,
        collector_id: u32,
        live: bool,
    ) -> Result<(), SwitchError> {
        self.liveness
            .write(collector_id as usize, u8::from(live))
            .map_err(|_| SwitchError::UnknownCollector(collector_id))
    }

    /// The liveness registers as a mask (what the failover hash runs on).
    pub fn liveness_mask(&self) -> LivenessMask {
        let total = self.config.collectors.min(LivenessMask::MAX_COLLECTORS);
        let mut bits = 0u64;
        for id in 0..total {
            if self.liveness.read(id as usize).unwrap_or(0) != 0 {
                bits |= 1 << id;
            }
        }
        LivenessMask::from_bits(bits, total)
    }

    /// Control-plane write of one PSN register — used when a QP is
    /// renegotiated at a nonzero PSN (and by wraparound tests to pre-wind
    /// a register next to the 24-bit modulus).
    pub fn set_psn_register(&mut self, collector_id: u32, psn: Psn) -> Result<(), SwitchError> {
        self.psn_registers
            .write(collector_id as usize, psn.value())
            .map_err(|_| SwitchError::UnknownCollector(collector_id))
    }

    /// Control-plane write of one append tail register (the last stored
    /// sequence number of `(collector_id, ring)`) — used when a switch
    /// re-attaches to a collector whose rings already hold data, and by
    /// wraparound tests to pre-wind a tail next to the `u32` modulus.
    pub fn set_ring_tail(
        &mut self,
        collector_id: u32,
        ring: u64,
        stored_seq: u32,
    ) -> Result<(), SwitchError> {
        let rings = self.config.rings();
        if ring >= rings {
            return Err(SwitchError::RingOutOfRange(ring));
        }
        self.tail_registers
            .write(
                collector_id as usize * rings as usize + ring as usize,
                stored_seq,
            )
            .map_err(|_| SwitchError::UnknownCollector(collector_id))
    }

    /// Read one append tail register (None when out of range or the
    /// primitive has no rings).
    pub fn ring_tail(&self, collector_id: u32, ring: u64) -> Option<u32> {
        let rings = self.config.rings();
        if ring >= rings {
            return None;
        }
        self.tail_registers
            .read(collector_id as usize * rings as usize + ring as usize)
            .ok()
    }

    /// Drain every failover record whose dead primary was
    /// `primary` — called by the control plane when that collector
    /// transitions back to alive, to seed the re-replication sweep.
    /// Records for other (still dead) primaries stay logged; drained
    /// keys become loggable again, so a second outage re-records them.
    pub fn drain_failover_records(&mut self, primary: u32) -> Vec<FailoverRecord> {
        let mut drained = Vec::new();
        let mut kept = Vec::new();
        for record in self.failover_log.drain(..) {
            if record.primary == primary {
                self.failover_logged.remove(&record.key);
                drained.push(record);
            } else {
                kept.push(record);
            }
        }
        self.failover_log = kept;
        drained
    }

    /// Number of distinct keys currently held in the failover log.
    pub fn failover_log_len(&self) -> usize {
        self.failover_log.len()
    }

    /// Data-plane collector resolution: the primary hash, then the
    /// liveness registers. A dead primary's report is remapped onto a
    /// live survivor by [`failover_collector`] — the identical function
    /// the query side evaluates, so readers always know where a key's
    /// writes went. Deployments beyond the 64-collector mask limit fall
    /// back to primary-only routing.
    fn resolve_collector(&mut self, key: &[u8]) -> Result<u32, SwitchError> {
        if self.config.collectors > LivenessMask::MAX_COLLECTORS {
            return Ok(self.mapping.collector(key, self.config.collectors));
        }
        match failover_collector(&self.mapping, key, self.liveness_mask()) {
            FailoverTarget::Primary(id) => Ok(id),
            FailoverTarget::Failover { primary, target } => {
                self.counters.failovers += 1;
                if self.failover_logged.contains(key) {
                    // Already logged; first record wins — the sweep
                    // re-derives the read location from the outage mask,
                    // so the recorded target is advisory.
                } else if self.failover_logged.len() < FAILOVER_LOG_CAP {
                    self.failover_logged.insert(key.to_vec());
                    self.failover_log.push(FailoverRecord {
                        primary,
                        target,
                        key: key.to_vec(),
                    });
                } else {
                    self.counters.failover_log_dropped += 1;
                }
                if let Some(o) = &self.obs {
                    o.failovers.inc();
                    o.obs.event(EventKind::FailoverRemap {
                        switch: self.identity.switch_id,
                        primary: primary as u8,
                        target: target as u8,
                    });
                }
                Ok(target)
            }
            FailoverTarget::NoneLive { .. } => {
                self.counters.no_live_collector += 1;
                if let Some(o) = &self.obs {
                    o.no_live_collector.inc();
                    o.obs.event(EventKind::NoLiveCollector {
                        switch: self.identity.switch_id,
                    });
                }
                Err(SwitchError::NoLiveCollector)
            }
        }
    }

    /// Estimated on-switch SRAM per collector: the table entry (MAC 6 +
    /// IP 4 + QPN 3 + rkey 4) plus the 24-bit PSN register ≈ 20 bytes,
    /// matching the paper's figure.
    pub const fn sram_bytes_per_collector() -> usize {
        6 + 4 + 3 + 4 + 3
    }

    /// Total register/table SRAM this switch dedicates to DART state
    /// under the configured primitive: the per-collector lookup entry +
    /// PSN register, plus 4 bytes per append tail register. This is what
    /// the Append primitive costs over the paper's ~20 B/collector —
    /// still register-file state, never per-flow state.
    pub fn sram_bytes(&self) -> usize {
        self.config.collectors as usize * Self::sram_bytes_per_collector()
            + self.tail_registers.len() * 4
    }

    /// Craft every frame one report requires under the configured
    /// primitive, returning each as an owned [`CraftedReport`]:
    ///
    /// * Key-Write: `N` RDMA WRITEs, one per redundant copy;
    /// * Append: one WRITE landing the entry at the ring tail;
    /// * Key-Increment: `N` RC FETCH_ADDs, one per counter copy.
    ///
    /// A wrapper over [`DartEgress::craft_into`], which the report hot
    /// path calls to craft into a reusable arena instead.
    pub fn craft(&mut self, key: &[u8], value: &[u8]) -> Result<Vec<CraftedReport>, SwitchError> {
        let mut reports = Vec::with_capacity(usize::from(self.config.copies));
        self.craft_owned(key, value, Copies::All, |r| reports.push(r))?;
        Ok(reports)
    }

    /// Craft every frame one report requires under the configured
    /// primitive (see [`DartEgress::craft`]) straight into `frames`. On
    /// error nothing is appended, though registers already advanced for
    /// earlier copies stay advanced, as on the hardware.
    pub fn craft_into(
        &mut self,
        key: &[u8],
        value: &[u8],
        frames: &mut FrameArena,
    ) -> Result<(), SwitchError> {
        self.craft_frames(key, value, Copies::All, frames, |_| {})
    }

    /// Craft one Key-Write report with an RNG-chosen copy index.
    pub fn craft_report(&mut self, key: &[u8], value: &[u8]) -> Result<CraftedReport, SwitchError> {
        let copy = self.rng.next_below(self.config.copies);
        self.craft_report_copy(key, value, copy)
    }

    /// [`DartEgress::craft_report`] into `frames`.
    pub fn craft_report_into(
        &mut self,
        key: &[u8],
        value: &[u8],
        frames: &mut FrameArena,
    ) -> Result<(), SwitchError> {
        let copy = self.rng.next_below(self.config.copies);
        self.craft_report_copy_into(key, value, copy, frames)
    }

    /// Craft one Key-Write report for an explicit copy index
    /// (deterministic tests; also used to flush all `N` copies at once).
    pub fn craft_report_copy(
        &mut self,
        key: &[u8],
        value: &[u8],
        copy: u8,
    ) -> Result<CraftedReport, SwitchError> {
        self.require_key_write()?;
        self.craft_one_owned(key, value, Copies::One(copy))
    }

    /// [`DartEgress::craft_report_copy`] into `frames`.
    pub fn craft_report_copy_into(
        &mut self,
        key: &[u8],
        value: &[u8],
        copy: u8,
        frames: &mut FrameArena,
    ) -> Result<(), SwitchError> {
        self.require_key_write()?;
        self.craft_frames(key, value, Copies::One(copy), frames, |_| {})
    }

    /// Craft the single WRITE that lands one append entry at its ring's
    /// tail. The listkey names the ring (`slot(listkey, 0, rings)`); the
    /// tail register names the position; the entry carries its own
    /// sequence number so readers stay stateless across wraparound.
    pub fn craft_append(
        &mut self,
        listkey: &[u8],
        value: &[u8],
    ) -> Result<CraftedReport, SwitchError> {
        if !matches!(self.config.primitive, PrimitiveSpec::Append { .. }) {
            return Err(SwitchError::InvalidPrimitive(
                "craft_append requires the Append primitive",
            ));
        }
        self.craft_one_owned(listkey, value, Copies::All)
    }

    /// Craft a single *native multi-write* report carrying all `N` slot
    /// addresses at once (§7's SmartNIC primitive; terminated by
    /// `dta_rdma::native::NativeNic`). One packet replaces `N` WRITEs,
    /// cutting the reporting overhead by roughly `N×`.
    pub fn craft_multiwrite_report(
        &mut self,
        key: &[u8],
        value: &[u8],
    ) -> Result<CraftedReport, SwitchError> {
        if self.config.primitive != PrimitiveSpec::KeyWrite {
            return Err(SwitchError::InvalidPrimitive(
                "multiwrite is a Key-Write (§7) extension",
            ));
        }
        self.validate(key, value)?;
        let collector_id = self.resolve_collector(key)?;
        let endpoint = self.endpoint(collector_id)?;
        let psn = self.next_psn(collector_id);

        let slot_len = self.config.layout.slot_len();
        let mut payload = vec![0u8; slot_len];
        self.config
            .layout
            .encode(self.mapping.key_checksum(key), value, &mut payload)
            .expect("lengths validated above");

        let addresses: Vec<u64> = (0..self.config.copies)
            .map(|copy| {
                endpoint.base_va + self.mapping.slot(key, copy, self.config.slots) * slot_len as u64
            })
            .collect();
        let first_slot = (addresses[0] - endpoint.base_va) / slot_len as u64;

        let mut body = dta_rdma::native::MULTIWRITE_MAGIC.to_vec();
        body.extend_from_slice(
            &dta_wire::dart::MultiWriteRepr { addresses, payload }
                .to_bytes()
                .expect("1..=255 addresses"),
        );
        let pad = ((4 - body.len() % 4) % 4) as u8;
        let packet = roce::RoceRepr::Send {
            bth: BthRepr {
                opcode: Opcode::UcSendOnly,
                solicited: false,
                migration: true,
                pad_count: pad,
                partition_key: 0xFFFF,
                dest_qp: endpoint.qpn,
                ack_request: false,
                psn: psn.value(),
            },
            payload: body,
        };
        let frame = crate::deparse::deparse_roce_frame(
            self.identity.mac,
            endpoint.mac,
            self.identity.ip,
            endpoint.ip,
            self.config.udp_src_port,
            &packet,
        );
        self.record_crafted(collector_id, 0, psn);
        Ok(CraftedReport {
            collector_id,
            copy: 0,
            slot: first_slot,
            psn,
            frame,
        })
    }

    /// Err unless the configured primitive is Key-Write (the
    /// per-copy report paths).
    pub(crate) fn require_key_write(&self) -> Result<(), SwitchError> {
        if self.config.primitive == PrimitiveSpec::KeyWrite {
            Ok(())
        } else {
            Err(SwitchError::InvalidPrimitive(
                "craft_report is the Key-Write path; use craft()",
            ))
        }
    }

    /// The parser-depth and slot-layout checks every report passes
    /// before any register moves. Returns the Key-Increment delta (the
    /// 8-byte big-endian value; 0 for the WRITE-based primitives).
    fn validate(&self, key: &[u8], value: &[u8]) -> Result<u64, SwitchError> {
        if key.len() > MAX_KEY_LEN {
            return Err(SwitchError::KeyTooLong(key.len()));
        }
        if self.config.primitive == PrimitiveSpec::KeyIncrement {
            return increment_decode(value).map_err(|_| SwitchError::ValueLength {
                expected: 8,
                actual: value.len(),
            });
        }
        if value.len() != self.config.layout.value_len {
            return Err(SwitchError::ValueLength {
                expected: self.config.layout.value_len,
                actual: value.len(),
            });
        }
        Ok(0)
    }

    /// The one crafting implementation, shared by all three primitives:
    /// validate the report once, then craft each selected copy's frame
    /// straight into `frames`, handing `each` its metadata. On error the
    /// frames this call appended are taken back out.
    fn craft_frames(
        &mut self,
        key: &[u8],
        value: &[u8],
        copies: Copies,
        frames: &mut FrameArena,
        mut each: impl FnMut(CraftedMeta),
    ) -> Result<(), SwitchError> {
        let delta = self.validate(key, value)?;
        let (first, count) = match (copies, self.config.primitive) {
            (Copies::One(copy), _) => (copy, 1),
            (Copies::All, PrimitiveSpec::Append { .. }) => (0, 1),
            (Copies::All, _) => (0, self.config.copies),
        };
        let start = frames.len();
        for copy in first..first + count {
            match self.craft_frame(key, value, delta, copy, frames) {
                Ok(meta) => each(meta),
                Err(e) => {
                    frames.truncate(start);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// [`DartEgress::craft_frames`] into the scratch arena, handing
    /// `out` each frame copied out as an owned [`CraftedReport`] (the
    /// wrappers' path).
    fn craft_owned(
        &mut self,
        key: &[u8],
        value: &[u8],
        copies: Copies,
        mut out: impl FnMut(CraftedReport),
    ) -> Result<(), SwitchError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut metas = std::mem::take(&mut self.scratch_meta);
        scratch.clear();
        metas.clear();
        let result = self.craft_frames(key, value, copies, &mut scratch, |meta| metas.push(meta));
        if result.is_ok() {
            for (meta, frame) in metas.iter().zip(scratch.iter()) {
                out(CraftedReport {
                    collector_id: meta.collector_id,
                    copy: meta.copy,
                    slot: meta.slot,
                    psn: meta.psn,
                    frame: frame.to_vec(),
                });
            }
        }
        self.scratch = scratch;
        self.scratch_meta = metas;
        result
    }

    /// [`DartEgress::craft_owned`] for a call that crafts one frame.
    fn craft_one_owned(
        &mut self,
        key: &[u8],
        value: &[u8],
        copies: Copies,
    ) -> Result<CraftedReport, SwitchError> {
        let mut report = None;
        self.craft_owned(key, value, copies, |r| report = Some(r))?;
        Ok(report.expect("one frame crafted"))
    }

    /// Craft one frame: resolve the collector (liveness failover), look
    /// up its endpoint, advance the append tail and PSN registers, and
    /// deparse the WRITE or FETCH_ADD into `frames`.
    fn craft_frame(
        &mut self,
        key: &[u8],
        value: &[u8],
        delta: u64,
        copy: u8,
        frames: &mut FrameArena,
    ) -> Result<CraftedMeta, SwitchError> {
        let collector_id = self.resolve_collector(key)?;
        let endpoint = self.endpoint(collector_id)?;
        let (slot, copy, append_seq) = match self.config.primitive {
            PrimitiveSpec::Append { ring_capacity } => {
                let rings = self.config.rings();
                let ring = self.mapping.slot(key, 0, rings);
                // Tail register: post-increment over the full u32 range.
                // The stateful ALU returns the OLD value, so re-apply the
                // transform for the sequence number this entry stores.
                let old = self
                    .tail_registers
                    .read_modify_write(
                        collector_id as usize * rings as usize + ring as usize,
                        |v| v.wrapping_add(1),
                    )
                    .expect("tail registers sized to collectors × rings");
                let stored = old.wrapping_add(1);
                let position = u64::from(stored.wrapping_sub(1)) % ring_capacity;
                (ring * ring_capacity + position, 0, stored)
            }
            _ => (self.mapping.slot(key, copy, self.config.slots), copy, 0),
        };
        let psn = self.next_psn(collector_id);

        let entry_len = self.config.entry_len();
        let va = endpoint.base_va + slot * entry_len as u64;
        let layout = self.config.layout;
        match self.config.primitive {
            PrimitiveSpec::KeyIncrement => {
                // Atomics are RC-only in the RDMA spec, so the frame
                // requests an ACK; the pipeline fire-and-forgets it
                // §6-style.
                let packet = roce::RoceRepr::FetchAdd {
                    bth: BthRepr {
                        opcode: Opcode::RcFetchAdd,
                        solicited: false,
                        migration: true,
                        pad_count: 0,
                        partition_key: 0xFFFF,
                        dest_qp: endpoint.qpn,
                        ack_request: true,
                        psn: psn.value(),
                    },
                    atomic: AtomicEthRepr {
                        virtual_addr: va,
                        rkey: endpoint.rkey,
                        swap_or_add: delta,
                        compare: 0,
                    },
                };
                self.push_frame(frames, &endpoint, packet.buffer_len(), |t| packet.emit(t));
            }
            primitive => {
                // A WRITE whose `checksum ‖ value` (Append: `seq ‖
                // checksum ‖ value`) payload is encoded in place.
                let key_checksum = self.mapping.key_checksum(key);
                let pad_count = ((4 - entry_len % 4) % 4) as u8;
                let bth = BthRepr {
                    opcode: Opcode::UcRdmaWriteOnly,
                    solicited: false,
                    migration: true,
                    pad_count,
                    partition_key: 0xFFFF,
                    dest_qp: endpoint.qpn,
                    ack_request: false,
                    psn: psn.value(),
                };
                let reth = RethRepr {
                    virtual_addr: va,
                    rkey: endpoint.rkey,
                    dma_len: entry_len as u32,
                };
                let transport_len = roce::write_len(entry_len, pad_count);
                self.push_frame(frames, &endpoint, transport_len, |t| {
                    let payload = roce::emit_write_headers(&bth, &reth, entry_len, t);
                    let encoded = if primitive == PrimitiveSpec::KeyWrite {
                        layout.encode(key_checksum, value, payload).is_ok()
                    } else {
                        append_encode_entry(&layout, append_seq, key_checksum, value, payload)
                            .is_ok()
                    };
                    assert!(encoded, "lengths validated before crafting");
                });
            }
        }
        self.record_crafted(collector_id, copy, psn);
        Ok(CraftedMeta {
            collector_id,
            copy,
            slot,
            psn,
        })
    }

    /// The deparser: append a frame to `endpoint` whose
    /// `transport_len`-byte transport packet `emit` writes in place.
    fn push_frame(
        &self,
        frames: &mut FrameArena,
        endpoint: &RemoteEndpoint,
        transport_len: usize,
        emit: impl FnOnce(&mut [u8]),
    ) {
        frames.push_with(crate::deparse::frame_len(transport_len), |frame| {
            crate::deparse::deparse_into(
                frame,
                self.identity.mac,
                endpoint.mac,
                self.identity.ip,
                endpoint.ip,
                self.config.udp_src_port,
                emit,
            )
        });
    }

    /// Collector lookup table: the endpoint for `collector_id`, or a
    /// counted miss.
    fn endpoint(&mut self, collector_id: u32) -> Result<RemoteEndpoint, SwitchError> {
        match self.collector_table.lookup(collector_id) {
            Some(ep) => Ok(*ep),
            None => {
                self.counters.unknown_collector += 1;
                if let Some(o) = &self.obs {
                    o.unknown_collector.inc();
                }
                Err(SwitchError::UnknownCollector(collector_id))
            }
        }
    }

    /// PSN register: post-increment, 24-bit wrap.
    fn next_psn(&mut self, collector_id: u32) -> Psn {
        let raw = self
            .psn_registers
            .read_modify_write(collector_id as usize, |v| (v + 1) & (Psn::MODULUS - 1))
            .expect("register array sized to collectors");
        Psn::new(raw)
    }

    fn record_crafted(&mut self, collector_id: u32, copy: u8, psn: Psn) {
        self.counters.reports += 1;
        if let Some(o) = &self.obs {
            o.reports.inc();
            o.obs.event(EventKind::ReportCrafted {
                switch: self.identity.switch_id,
                collector: collector_id as u8,
                copy,
                psn: psn.value(),
            });
        }
    }
}

impl core::fmt::Debug for DartEgress {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DartEgress")
            .field("identity", &self.identity)
            .field("config", &self.config)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_wire::dart::ChecksumWidth;
    use dta_wire::{ethernet, ipv4};

    fn endpoint() -> RemoteEndpoint {
        RemoteEndpoint {
            mac: ethernet::Address([0x02, 0, 0, 0, 0, 2]),
            ip: ipv4::Address([10, 0, 0, 2]),
            qpn: 0x100,
            rkey: 0x1000,
            base_va: 0x10000,
            region_len: 24 * 1024,
            start_psn: Psn::new(0),
        }
    }

    fn config() -> EgressConfig {
        EgressConfig {
            copies: 2,
            slots: 1024,
            layout: SlotLayout {
                checksum: ChecksumWidth::B32,
                value_len: 20,
            },
            collectors: 1,
            udp_src_port: 49152,
            primitive: dta_core::PrimitiveSpec::KeyWrite,
        }
    }

    fn egress() -> DartEgress {
        let mut e = DartEgress::new(SwitchIdentity::derived(1), config(), 7).unwrap();
        e.install_collector(0, endpoint()).unwrap();
        e
    }

    #[test]
    fn rejects_non_power_of_two_slots() {
        let mut cfg = config();
        cfg.slots = 1000;
        assert_eq!(
            DartEgress::new(SwitchIdentity::derived(1), cfg, 7).err(),
            Some(SwitchError::SlotsNotPowerOfTwo(1000))
        );
    }

    #[test]
    fn crafted_frame_matches_nic_builder() {
        // The switch deparser and the NIC-side reference builder must be
        // byte-identical for the same logical packet.
        let mut e = egress();
        let report = e.craft_report_copy(b"flow-key", &[9u8; 20], 1).unwrap();

        let mapping = CrcMapping::new();
        let slot = mapping.slot(b"flow-key", 1, 1024);
        let mut payload = vec![0u8; 24];
        SlotLayout {
            checksum: ChecksumWidth::B32,
            value_len: 20,
        }
        .encode(mapping.key_checksum(b"flow-key"), &[9u8; 20], &mut payload)
        .unwrap();
        let reference = dta_rdma::nic::build_roce_frame(
            SwitchIdentity::derived(1).mac,
            endpoint().mac,
            SwitchIdentity::derived(1).ip,
            endpoint().ip,
            49152,
            &roce::RoceRepr::Write {
                bth: BthRepr {
                    opcode: Opcode::UcRdmaWriteOnly,
                    solicited: false,
                    migration: true,
                    pad_count: 0,
                    partition_key: 0xFFFF,
                    dest_qp: 0x100,
                    ack_request: false,
                    psn: 0,
                },
                reth: RethRepr {
                    virtual_addr: 0x10000 + slot * 24,
                    rkey: 0x1000,
                    dma_len: 24,
                },
                payload,
            },
        );
        assert_eq!(report.frame, reference);
        assert_eq!(report.slot, slot);
    }

    #[test]
    fn psn_increments_per_report() {
        let mut e = egress();
        let r0 = e.craft_report_copy(b"k", &[0u8; 20], 0).unwrap();
        let r1 = e.craft_report_copy(b"k", &[0u8; 20], 1).unwrap();
        assert_eq!(r0.psn, Psn::new(0));
        assert_eq!(r1.psn, Psn::new(1));
        assert_eq!(e.counters().reports, 2);
    }

    #[test]
    fn repoint_moves_rkey_and_base_but_keeps_the_psn() {
        let mut e = egress();
        e.craft_report_copy(b"k", &[0u8; 20], 0).unwrap();
        let next_region = RemoteEndpoint {
            qpn: 0x999,
            rkey: 0x1001,
            base_va: 0x20000,
            start_psn: Psn::new(77),
            ..endpoint()
        };
        e.repoint_collectors(&[next_region]).unwrap();
        let report = e.craft_report_copy(b"k", &[0u8; 20], 0).unwrap();
        assert_eq!(report.psn, Psn::new(1));
        let eth = ethernet::Frame::new_checked(&report.frame[..]).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        let udp = dta_wire::udp::Datagram::new_checked(ip.payload()).unwrap();
        let body = &udp.payload()[..udp.payload().len() - roce::ICRC_LEN];
        let Ok(roce::RoceView::Write { bth, reth, .. }) = roce::RoceView::parse(body) else {
            panic!("a Key-Write report is an RDMA WRITE");
        };
        assert_eq!((bth.dest_qp, reth.rkey), (0x100, 0x1001));
        assert_eq!(reth.virtual_addr, 0x20000 + report.slot * 24);
        assert_eq!(
            e.repoint_collectors(&[next_region, next_region]),
            Err(SwitchError::UnknownCollector(1))
        );
    }

    #[test]
    fn rng_copy_indices_in_range() {
        let mut e = egress();
        for _ in 0..50 {
            let r = e.craft_report(b"k", &[0u8; 20]).unwrap();
            assert!(r.copy < 2);
        }
    }

    #[test]
    fn unknown_collector_counted() {
        let mut e = DartEgress::new(SwitchIdentity::derived(1), config(), 7).unwrap();
        assert!(matches!(
            e.craft_report_copy(b"k", &[0u8; 20], 0),
            Err(SwitchError::UnknownCollector(0))
        ));
        assert_eq!(e.counters().unknown_collector, 1);
    }

    #[test]
    fn key_and_value_validation() {
        let mut e = egress();
        let long_key = vec![0u8; MAX_KEY_LEN + 1];
        assert!(matches!(
            e.craft_report_copy(&long_key, &[0u8; 20], 0),
            Err(SwitchError::KeyTooLong(_))
        ));
        assert!(matches!(
            e.craft_report_copy(b"k", &[0u8; 4], 0),
            Err(SwitchError::ValueLength { .. })
        ));
    }

    #[test]
    fn region_size_validated_at_install() {
        let mut e = DartEgress::new(SwitchIdentity::derived(1), config(), 7).unwrap();
        let mut small = endpoint();
        small.region_len = 100;
        assert!(matches!(
            e.install_collector(0, small),
            Err(SwitchError::RegionTooSmall { .. })
        ));
    }

    #[test]
    fn sram_budget_matches_paper() {
        assert_eq!(DartEgress::sram_bytes_per_collector(), 20);
    }

    #[test]
    fn multiwrite_report_is_one_packet_for_all_copies() {
        let mut e = egress();
        let report = e.craft_multiwrite_report(b"mw-key", &[3u8; 20]).unwrap();
        // One frame, substantially smaller than two separate WRITE frames.
        let two_writes: usize = {
            let mut f = egress();
            let a = f.craft_report_copy(b"mw-key", &[3u8; 20], 0).unwrap();
            let b = f.craft_report_copy(b"mw-key", &[3u8; 20], 1).unwrap();
            a.frame.len() + b.frame.len()
        };
        assert!(
            report.frame.len() < two_writes * 2 / 3,
            "multiwrite {} B vs 2 writes {} B",
            report.frame.len(),
            two_writes
        );
    }

    #[test]
    fn multiwrite_validations() {
        let mut e = egress();
        assert!(matches!(
            e.craft_multiwrite_report(&[0u8; MAX_KEY_LEN + 1], &[0u8; 20]),
            Err(SwitchError::KeyTooLong(_))
        ));
        assert!(matches!(
            e.craft_multiwrite_report(b"k", &[0u8; 3]),
            Err(SwitchError::ValueLength { .. })
        ));
        let mut bare = DartEgress::new(SwitchIdentity::derived(1), config(), 7).unwrap();
        assert!(matches!(
            bare.craft_multiwrite_report(b"k", &[0u8; 20]),
            Err(SwitchError::UnknownCollector(_))
        ));
    }

    #[test]
    fn psn_wraps_at_24_bits() {
        let mut e = egress();
        // Pre-wind the register to the last PSN before the modulus, then
        // craft across the wrap: MODULUS-1 → 0 → 1.
        e.set_psn_register(0, Psn::new(Psn::MODULUS - 1)).unwrap();
        let r0 = e.craft_report_copy(b"k", &[0u8; 20], 0).unwrap();
        let r1 = e.craft_report_copy(b"k", &[0u8; 20], 1).unwrap();
        let r2 = e.craft_report_copy(b"k", &[0u8; 20], 0).unwrap();
        assert_eq!(r0.psn, Psn::new(Psn::MODULUS - 1));
        assert_eq!(r1.psn, Psn::new(0));
        assert_eq!(r2.psn, Psn::new(1));
    }

    fn endpoint_for(id: u32) -> RemoteEndpoint {
        RemoteEndpoint {
            mac: ethernet::Address([0x02, 0, 0, 0, 0, 2 + id as u8]),
            ip: ipv4::Address([10, 0, 0, 2 + id as u8]),
            qpn: 0x100 + id,
            rkey: 0x1000 + id,
            base_va: 0x10000,
            region_len: 24 * 1024,
            start_psn: Psn::new(0),
        }
    }

    fn egress_pair() -> DartEgress {
        let mut cfg = config();
        cfg.collectors = 2;
        let mut e = DartEgress::new(SwitchIdentity::derived(1), cfg, 7).unwrap();
        e.install_collector(0, endpoint_for(0)).unwrap();
        e.install_collector(1, endpoint_for(1)).unwrap();
        e
    }

    #[test]
    fn psn_register_seeded_from_endpoint_start_psn() {
        let mut cfg = config();
        cfg.collectors = 1;
        let mut e = DartEgress::new(SwitchIdentity::derived(1), cfg, 7).unwrap();
        let mut ep = endpoint();
        ep.start_psn = Psn::new(500);
        e.install_collector(0, ep).unwrap();
        let r = e.craft_report_copy(b"k", &[0u8; 20], 0).unwrap();
        assert_eq!(r.psn, Psn::new(500));
    }

    #[test]
    fn dead_primary_fails_over_to_survivor() {
        let mut e = egress_pair();
        let mapping = CrcMapping::new();
        let primary = mapping.collector(b"fo-key", 2);
        let survivor = 1 - primary;

        // Healthy: report goes to the primary.
        let r = e.craft_report_copy(b"fo-key", &[1u8; 20], 0).unwrap();
        assert_eq!(r.collector_id, primary);
        assert_eq!(e.counters().failovers, 0);

        // Kill the primary's liveness register: the same key now goes to
        // the survivor, slot hash unchanged.
        e.set_collector_liveness(primary, false).unwrap();
        let r = e.craft_report_copy(b"fo-key", &[1u8; 20], 0).unwrap();
        assert_eq!(r.collector_id, survivor);
        assert_eq!(r.slot, mapping.slot(b"fo-key", 0, 1024));
        assert_eq!(e.counters().failovers, 1);
        // The frame is really addressed to the survivor's endpoint.
        let eth = ethernet::Frame::new_checked(&r.frame[..]).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.dst_addr(), endpoint_for(survivor).ip);

        // Recovery: liveness restored, reports return home.
        e.set_collector_liveness(primary, true).unwrap();
        let r = e.craft_report_copy(b"fo-key", &[1u8; 20], 0).unwrap();
        assert_eq!(r.collector_id, primary);
    }

    #[test]
    fn all_collectors_dead_is_an_error_not_a_panic() {
        let mut e = egress_pair();
        e.set_collector_liveness(0, false).unwrap();
        e.set_collector_liveness(1, false).unwrap();
        assert_eq!(
            e.craft_report_copy(b"k", &[0u8; 20], 0),
            Err(SwitchError::NoLiveCollector)
        );
        assert_eq!(e.counters().no_live_collector, 1);
        assert_eq!(e.liveness_mask().live_count(), 0);
    }

    #[test]
    fn obs_counts_reports_and_failovers() {
        let mut e = egress_pair();
        let obs = Obs::new();
        e.attach_obs(&obs);
        let mapping = CrcMapping::new();
        let primary = mapping.collector(b"fo-key", 2);

        e.craft_report_copy(b"fo-key", &[1u8; 20], 0).unwrap();
        e.set_collector_liveness(primary, false).unwrap();
        e.craft_report_copy(b"fo-key", &[1u8; 20], 1).unwrap();

        let reg = obs.registry();
        assert_eq!(reg.counter_value("dta_switch_reports_total"), Some(2));
        assert_eq!(reg.counter_value("dta_switch_failovers_total"), Some(1));
        // Lifecycle events: two crafts, one remap, in order.
        let crafted = obs.ring().events_named("report_crafted");
        assert_eq!(crafted.len(), 2);
        let remaps = obs.ring().events_named("failover_remap");
        assert_eq!(remaps.len(), 1);
        match remaps[0].kind {
            EventKind::FailoverRemap {
                primary: p, target, ..
            } => {
                assert_eq!(u32::from(p), primary);
                assert_eq!(u32::from(target), 1 - primary);
            }
            other => panic!("unexpected event {other:?}"),
        }

        // All dead: the craft fails and the drop is visible.
        e.set_collector_liveness(1 - primary, false).unwrap();
        assert!(e.craft_report_copy(b"fo-key", &[1u8; 20], 0).is_err());
        assert_eq!(
            reg.counter_value("dta_switch_no_live_collector_total"),
            Some(1)
        );
        assert_eq!(obs.ring().events_named("no_live_collector").len(), 1);
    }

    #[test]
    fn failover_log_records_remapped_keys_once_and_drains_per_primary() {
        let mut e = egress_pair();
        let mapping = CrcMapping::new();
        let primary = mapping.collector(b"fo-key", 2);

        // Healthy writes are never logged.
        e.craft_report_copy(b"fo-key", &[1u8; 20], 0).unwrap();
        assert_eq!(e.failover_log_len(), 0);

        // Outage: each remapped key is logged exactly once no matter how
        // many reports it generates.
        e.set_collector_liveness(primary, false).unwrap();
        for _ in 0..3 {
            e.craft_report_copy(b"fo-key", &[1u8; 20], 0).unwrap();
        }
        assert_eq!(e.failover_log_len(), 1);
        assert_eq!(e.counters().failovers, 3);
        assert_eq!(e.counters().failover_log_dropped, 0);

        // Draining the wrong primary returns nothing and keeps the log.
        assert!(e.drain_failover_records(1 - primary).is_empty());
        assert_eq!(e.failover_log_len(), 1);

        // Draining the dead primary returns the record and re-arms the
        // key for a future outage.
        let drained = e.drain_failover_records(primary);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].primary, primary);
        assert_eq!(drained[0].target, 1 - primary);
        assert_eq!(drained[0].key, b"fo-key".to_vec());
        assert_eq!(e.failover_log_len(), 0);
        e.craft_report_copy(b"fo-key", &[1u8; 20], 0).unwrap();
        assert_eq!(e.failover_log_len(), 1);
    }

    #[test]
    fn arena_crafting_matches_owned_reports_for_every_primitive() {
        for (primitive, value) in [
            (dta_core::PrimitiveSpec::KeyWrite, vec![5u8; 20]),
            (
                dta_core::PrimitiveSpec::Append { ring_capacity: 4 },
                vec![6u8; 20],
            ),
            (
                dta_core::PrimitiveSpec::KeyIncrement,
                3u64.to_be_bytes().to_vec(),
            ),
        ] {
            let build = || {
                let mut cfg = config();
                cfg.primitive = primitive;
                match primitive {
                    dta_core::PrimitiveSpec::Append { .. } => cfg.copies = 1,
                    dta_core::PrimitiveSpec::KeyIncrement => cfg.layout.value_len = 8,
                    dta_core::PrimitiveSpec::KeyWrite => {}
                }
                let mut e = DartEgress::new(SwitchIdentity::derived(1), cfg, 7).unwrap();
                let mut ep = endpoint();
                ep.region_len = 64 * 1024;
                e.install_collector(0, ep).unwrap();
                e
            };
            let (mut owned, mut arena_egress) = (build(), build());
            let mut arena = FrameArena::new();
            for key in [&b"k1"[..], b"k2", b"k1"] {
                let reports = owned.craft(key, &value).unwrap();
                let start = arena.len();
                arena_egress.craft_into(key, &value, &mut arena).unwrap();
                let crafted: Vec<&[u8]> = arena.iter().skip(start).collect();
                let expected: Vec<&[u8]> = reports.iter().map(|r| &r.frame[..]).collect();
                assert_eq!(crafted, expected, "{primitive:?}");
            }
            assert_eq!(owned.counters(), arena_egress.counters());
        }
    }

    #[test]
    fn failed_craft_appends_nothing() {
        let mut e = egress_pair();
        let mut arena = FrameArena::new();
        e.craft_into(b"k", &[1u8; 20], &mut arena).unwrap();
        assert_eq!(arena.len(), 2);
        e.set_collector_liveness(0, false).unwrap();
        e.set_collector_liveness(1, false).unwrap();
        assert_eq!(
            e.craft_into(b"k", &[1u8; 20], &mut arena),
            Err(SwitchError::NoLiveCollector)
        );
        assert_eq!(
            e.craft_into(b"k", &[1u8; 3], &mut arena),
            Err(SwitchError::ValueLength {
                expected: 20,
                actual: 3
            })
        );
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn multiwrite_also_fails_over() {
        let mut e = egress_pair();
        let mapping = CrcMapping::new();
        let primary = mapping.collector(b"mw-fo", 2);
        e.set_collector_liveness(primary, false).unwrap();
        let r = e.craft_multiwrite_report(b"mw-fo", &[2u8; 20]).unwrap();
        assert_eq!(r.collector_id, 1 - primary);
        assert_eq!(e.counters().failovers, 1);
    }
}
