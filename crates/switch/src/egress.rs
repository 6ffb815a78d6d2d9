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
    collector_table: MatchActionTable<u32, RemoteEndpoint>,
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
            FailoverTarget::NoneLive => {
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
    /// primitive — the unified entry point the pipeline dispatches
    /// through:
    ///
    /// * Key-Write: `N` RDMA WRITEs, one per redundant copy;
    /// * Append: one WRITE landing the entry at the ring tail;
    /// * Key-Increment: `N` RC FETCH_ADDs, one per counter copy.
    pub fn craft(&mut self, key: &[u8], value: &[u8]) -> Result<Vec<CraftedReport>, SwitchError> {
        match self.config.primitive {
            PrimitiveSpec::KeyWrite => (0..self.config.copies)
                .map(|copy| self.craft_report_copy(key, value, copy))
                .collect(),
            PrimitiveSpec::Append { .. } => Ok(vec![self.craft_append(key, value)?]),
            PrimitiveSpec::KeyIncrement => (0..self.config.copies)
                .map(|copy| self.craft_increment_copy(key, value, copy))
                .collect(),
        }
    }

    /// Craft one report with an RNG-chosen copy index.
    pub fn craft_report(&mut self, key: &[u8], value: &[u8]) -> Result<CraftedReport, SwitchError> {
        let copy = self.rng.next_below(self.config.copies);
        self.craft_report_copy(key, value, copy)
    }

    /// Craft one report for an explicit copy index (deterministic tests;
    /// also used to flush all `N` copies at once).
    pub fn craft_report_copy(
        &mut self,
        key: &[u8],
        value: &[u8],
        copy: u8,
    ) -> Result<CraftedReport, SwitchError> {
        if self.config.primitive != PrimitiveSpec::KeyWrite {
            return Err(SwitchError::InvalidPrimitive(
                "craft_report is the Key-Write path; use craft()",
            ));
        }
        if key.len() > MAX_KEY_LEN {
            return Err(SwitchError::KeyTooLong(key.len()));
        }
        if value.len() != self.config.layout.value_len {
            return Err(SwitchError::ValueLength {
                expected: self.config.layout.value_len,
                actual: value.len(),
            });
        }

        // CRC externs (collector, slot, checksum) + liveness failover.
        let collector_id = self.resolve_collector(key)?;
        let slot = self.mapping.slot(key, copy, self.config.slots);
        let key_checksum = self.mapping.key_checksum(key);

        // Collector lookup table.
        let endpoint = match self.collector_table.lookup(&collector_id) {
            Some(ep) => *ep,
            None => {
                self.counters.unknown_collector += 1;
                if let Some(o) = &self.obs {
                    o.unknown_collector.inc();
                }
                return Err(SwitchError::UnknownCollector(collector_id));
            }
        };

        // PSN register: post-increment, 24-bit wrap.
        let raw = self
            .psn_registers
            .read_modify_write(collector_id as usize, |v| (v + 1) & (Psn::MODULUS - 1))
            .expect("register array sized to collectors");
        let psn = Psn::new(raw);

        // Slot payload: checksum ‖ value, encoded into the frame.
        let layout = self.config.layout;
        let slot_len = layout.slot_len();
        let va = endpoint.base_va + slot * slot_len as u64;
        let frame = self.deparse_write(&endpoint, psn, va, slot_len, |payload| {
            layout
                .encode(key_checksum, value, payload)
                .expect("lengths validated above");
        });
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
        Ok(CraftedReport {
            collector_id,
            copy,
            slot,
            psn,
            frame,
        })
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
        if key.len() > MAX_KEY_LEN {
            return Err(SwitchError::KeyTooLong(key.len()));
        }
        if value.len() != self.config.layout.value_len {
            return Err(SwitchError::ValueLength {
                expected: self.config.layout.value_len,
                actual: value.len(),
            });
        }
        let collector_id = self.resolve_collector(key)?;
        let endpoint = match self.collector_table.lookup(&collector_id) {
            Some(ep) => *ep,
            None => {
                self.counters.unknown_collector += 1;
                if let Some(o) = &self.obs {
                    o.unknown_collector.inc();
                }
                return Err(SwitchError::UnknownCollector(collector_id));
            }
        };
        let raw = self
            .psn_registers
            .read_modify_write(collector_id as usize, |v| (v + 1) & (Psn::MODULUS - 1))
            .expect("register array sized to collectors");
        let psn = Psn::new(raw);

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
        let frame = self.deparse_packet(&endpoint, &packet);
        self.counters.reports += 1;
        if let Some(o) = &self.obs {
            o.reports.inc();
            o.obs.event(EventKind::ReportCrafted {
                switch: self.identity.switch_id,
                collector: collector_id as u8,
                copy: 0,
                psn: psn.value(),
            });
        }
        Ok(CraftedReport {
            collector_id,
            copy: 0,
            slot: first_slot,
            psn,
            frame,
        })
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
        let ring_capacity = match self.config.primitive {
            PrimitiveSpec::Append { ring_capacity } => ring_capacity,
            _ => {
                return Err(SwitchError::InvalidPrimitive(
                    "craft_append requires the Append primitive",
                ))
            }
        };
        if listkey.len() > MAX_KEY_LEN {
            return Err(SwitchError::KeyTooLong(listkey.len()));
        }
        if value.len() != self.config.layout.value_len {
            return Err(SwitchError::ValueLength {
                expected: self.config.layout.value_len,
                actual: value.len(),
            });
        }

        let collector_id = self.resolve_collector(listkey)?;
        let rings = self.config.rings();
        let ring = self.mapping.slot(listkey, 0, rings);
        let key_checksum = self.mapping.key_checksum(listkey);
        let endpoint = match self.collector_table.lookup(&collector_id) {
            Some(ep) => *ep,
            None => {
                self.counters.unknown_collector += 1;
                if let Some(o) = &self.obs {
                    o.unknown_collector.inc();
                }
                return Err(SwitchError::UnknownCollector(collector_id));
            }
        };

        // Tail register: post-increment over the full u32 range. The
        // stateful ALU returns the OLD value, so re-apply the transform
        // for the sequence number this entry stores.
        let old = self
            .tail_registers
            .read_modify_write(
                collector_id as usize * rings as usize + ring as usize,
                |v| v.wrapping_add(1),
            )
            .expect("tail registers sized to collectors × rings");
        let stored = old.wrapping_add(1);
        let position = u64::from(stored.wrapping_sub(1)) % ring_capacity;

        let raw = self
            .psn_registers
            .read_modify_write(collector_id as usize, |v| (v + 1) & (Psn::MODULUS - 1))
            .expect("register array sized to collectors");
        let psn = Psn::new(raw);

        let layout = self.config.layout;
        let entry_len = self.config.entry_len();
        let slot = ring * ring_capacity + position;
        let va = endpoint.base_va + slot * entry_len as u64;
        let frame = self.deparse_write(&endpoint, psn, va, entry_len, |payload| {
            append_encode_entry(&layout, stored, key_checksum, value, payload)
                .expect("lengths validated above");
        });
        self.counters.reports += 1;
        if let Some(o) = &self.obs {
            o.reports.inc();
            o.obs.event(EventKind::ReportCrafted {
                switch: self.identity.switch_id,
                collector: collector_id as u8,
                copy: 0,
                psn: psn.value(),
            });
        }
        Ok(CraftedReport {
            collector_id,
            copy: 0,
            slot,
            psn,
            frame,
        })
    }

    /// Craft the RC FETCH_ADD that adds this report's delta (the 8-byte
    /// big-endian value) into copy `copy`'s counter word. Atomics are
    /// RC-only in the RDMA spec, so the frame requests an ACK; the
    /// pipeline fire-and-forgets it §6-style.
    pub fn craft_increment_copy(
        &mut self,
        key: &[u8],
        value: &[u8],
        copy: u8,
    ) -> Result<CraftedReport, SwitchError> {
        if self.config.primitive != PrimitiveSpec::KeyIncrement {
            return Err(SwitchError::InvalidPrimitive(
                "craft_increment requires the Key-Increment primitive",
            ));
        }
        if key.len() > MAX_KEY_LEN {
            return Err(SwitchError::KeyTooLong(key.len()));
        }
        let delta = increment_decode(value).map_err(|_| SwitchError::ValueLength {
            expected: 8,
            actual: value.len(),
        })?;

        let collector_id = self.resolve_collector(key)?;
        let slot = self.mapping.slot(key, copy, self.config.slots);
        let endpoint = match self.collector_table.lookup(&collector_id) {
            Some(ep) => *ep,
            None => {
                self.counters.unknown_collector += 1;
                if let Some(o) = &self.obs {
                    o.unknown_collector.inc();
                }
                return Err(SwitchError::UnknownCollector(collector_id));
            }
        };
        let raw = self
            .psn_registers
            .read_modify_write(collector_id as usize, |v| (v + 1) & (Psn::MODULUS - 1))
            .expect("register array sized to collectors");
        let psn = Psn::new(raw);

        let entry_len = self.config.entry_len() as u64;
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
                virtual_addr: endpoint.base_va + slot * entry_len,
                rkey: endpoint.rkey,
                swap_or_add: delta,
                compare: 0,
            },
        };
        let frame = self.deparse_packet(&endpoint, &packet);
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
        Ok(CraftedReport {
            collector_id,
            copy,
            slot,
            psn,
            frame,
        })
    }

    /// The deparser for a standard RDMA WRITE report: the BTH, RETH and
    /// the `payload_len`-byte payload `encode` writes go straight into
    /// the frame buffer the link takes ownership of.
    fn deparse_write(
        &self,
        endpoint: &RemoteEndpoint,
        psn: Psn,
        va: u64,
        payload_len: usize,
        encode: impl FnOnce(&mut [u8]),
    ) -> Vec<u8> {
        let pad_count = ((4 - payload_len % 4) % 4) as u8;
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
            dma_len: payload_len as u32,
        };
        crate::deparse::deparse_frame_with(
            self.identity.mac,
            endpoint.mac,
            self.identity.ip,
            endpoint.ip,
            self.config.udp_src_port,
            roce::write_len(payload_len, pad_count),
            |transport| {
                encode(roce::emit_write_headers(
                    &bth,
                    &reth,
                    payload_len,
                    transport,
                ))
            },
        )
    }

    /// The generic deparser: emit the full header stack and iCRC trailer
    /// for any transport packet (shared with the sketch reporter —
    /// see [`crate::deparse`]).
    fn deparse_packet(&self, endpoint: &RemoteEndpoint, packet: &roce::RoceRepr) -> Vec<u8> {
        crate::deparse::deparse_roce_frame(
            self.identity.mac,
            endpoint.mac,
            self.identity.ip,
            endpoint.ip,
            self.config.udp_src_port,
            packet,
        )
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
