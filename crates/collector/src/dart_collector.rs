//! One DART collector: an RNIC, a telemetry region, and a query engine.
//!
//! Startup is the only time the CPU acts (§3): register the region,
//! bring up a UC queue pair, export the endpoint descriptor. From then on
//! every switch report is absorbed by [`DartCollector::receive_frame`]
//! (the NIC data path) and the CPU only runs [`DartCollector::query`].
//! History (§5.2.1) rotates among at most `1 + DRAM_EPOCHS` regions
//! registered with the NIC (see [`DartCollector::rotate_epoch`]).

use std::collections::VecDeque;

use dta_core::config::DartConfig;
use dta_core::query::{DecisionReason, QueryOutcome, ReturnPolicy};
use dta_core::store::{OwnedQueryEngine, ProbeTrace, StoreExplain};
use dta_core::{DartError, PrimitiveSpec};
use dta_rdma::mr::{AccessFlags, CommitKind, MemoryHandle, MemoryRegion};
use dta_rdma::nic::{NicCounters, RxOutcome};
use dta_rdma::verbs::{Device, RemoteEndpoint};
use dta_wire::roce::Psn;
use dta_wire::{ethernet, ipv4};

/// Virtual base address collectors register their telemetry region at.
pub const REGION_BASE_VA: u64 = 0x4000_0000;

/// Sealed epochs a collector keeps in registered DRAM before the oldest
/// drains to the persistent tier and its region is reused.
pub const DRAM_EPOCHS: usize = 2;

/// The QPN collector-side RC queue pairs name as their peer. Switch
/// pipelines have no receive QP — ACKs for Key-Increment FETCH_ADDs are
/// addressed here and ignored by the egress (§6-style).
const SWITCH_PEER_QPN: u32 = 0;

/// The NIC commit semantics each translation primitive's region needs.
fn commit_kind(primitive: PrimitiveSpec) -> CommitKind {
    match primitive {
        PrimitiveSpec::KeyWrite => CommitKind::Write,
        PrimitiveSpec::Append { .. } => CommitKind::Append,
        PrimitiveSpec::KeyIncrement => CommitKind::FetchAdd,
    }
}

/// A single DART collector endpoint.
pub struct DartCollector {
    index: u32,
    device: Device,
    /// The initial queue pair and the live region's rkey and base VA.
    endpoint: RemoteEndpoint,
    handle: MemoryHandle,
    engine: OwnedQueryEngine,
    /// The live epoch's id; never reused, crashes included.
    epoch: u64,
    /// Sealed regions in DRAM as `(epoch, rkey)`, oldest first; the
    /// epoch is `None` once a crash wiped it.
    sealed: VecDeque<(Option<u64>, u32)>,
    /// The persistent tier, which survives crashes: `(epoch, bytes)`.
    archive: Vec<(u64, Vec<u8>)>,
}

impl DartCollector {
    /// Bring up collector number `index` with per-collector `config`.
    ///
    /// Addresses are derived from the index so clusters are easy to
    /// construct; `config.slots` and `config.layout` define the region
    /// size.
    pub fn new(index: u32, config: DartConfig) -> Result<DartCollector, DartError> {
        config.validate()?;
        let id = index.to_be_bytes();
        let mac = ethernet::Address([0x02, 0xC0, id[0], id[1], id[2], id[3]]);
        let ip = ipv4::Address([10, 200, id[2], id[3]]);
        let mut device = Device::open(mac, ip);
        let region_len = config.bytes_per_collector();
        let (rkey, handle) = device
            .register_region_with_commit(
                REGION_BASE_VA,
                region_len,
                AccessFlags::DART_COLLECTOR,
                commit_kind(config.primitive),
            )
            .expect("fresh device has no rkeys");
        let qpn = Self::create_report_qp(&mut device, config.primitive, Psn::new(0));
        let endpoint = device.endpoint(qpn, rkey, REGION_BASE_VA, region_len as u64);
        let engine = OwnedQueryEngine::new(config)?;
        Ok(DartCollector {
            index,
            device,
            endpoint,
            handle,
            engine,
            epoch: 0,
            sealed: VecDeque::new(),
            archive: Vec::new(),
        })
    }

    /// This collector's index (its dense collector ID).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The endpoint descriptor switches need.
    pub fn endpoint(&self) -> RemoteEndpoint {
        self.endpoint
    }

    /// Allocate a dedicated UC queue pair for one reporting switch and
    /// return its endpoint descriptor.
    ///
    /// Each switch keeps its own PSN counter (§6), so each switch needs
    /// its own QP at the collector — UC receive processing would treat a
    /// second switch's low PSNs as stale duplicates otherwise. RDMA NICs
    /// support millions of QPs; one per switch is the deployment model.
    pub fn allocate_switch_qp(&mut self) -> RemoteEndpoint {
        self.allocate_switch_qp_from(Psn::new(0))
    }

    /// Like [`DartCollector::allocate_switch_qp`], but the queue pair
    /// expects `start_psn` first — the PSN the control plane negotiated
    /// with the reporting switch. Lets tests pre-wind both ends close to
    /// the 24-bit wrap point without replaying 2²⁴ frames.
    pub fn allocate_switch_qp_from(&mut self, start_psn: Psn) -> RemoteEndpoint {
        let primitive = self.engine.config().primitive;
        let qpn = Self::create_report_qp(&mut self.device, primitive, start_psn);
        RemoteEndpoint {
            qpn,
            start_psn,
            ..self.endpoint
        }
    }

    /// Create the queue pair one reporting switch writes into. The RDMA
    /// spec defines atomics only for reliable transport, so Key-Increment
    /// (FETCH_ADD) reports need an RC queue pair; the WRITE-based
    /// primitives ride UC, whose gap tolerance is what lets lost reports
    /// merely age the data (§3).
    fn create_report_qp(device: &mut Device, primitive: PrimitiveSpec, start_psn: Psn) -> u32 {
        match primitive {
            PrimitiveSpec::KeyIncrement => device
                .create_rc_qp(start_psn, SWITCH_PEER_QPN)
                .expect("QPN space is ample"),
            _ => device.create_uc_qp(start_psn).expect("QPN space is ample"),
        }
    }

    /// Per-QP receive counters (PSN gap accounting), if `qpn` exists.
    pub fn qp_counters(&self, qpn: u32) -> Option<dta_rdma::qp::QpCounters> {
        self.device.nic().qp(qpn).map(|qp| qp.counters())
    }

    /// The NIC's receive-path counters.
    pub fn nic_counters(&self) -> NicCounters {
        self.device.nic().counters()
    }

    /// The NIC data path: feed one frame from the wire.
    pub fn receive_frame(&mut self, frame: &[u8]) -> RxOutcome {
        self.device.nic_mut().handle_frame(frame)
    }

    /// Query a key under the configured default policy — the only CPU
    /// work this collector ever does, and a pure read of the region the
    /// NIC writes.
    pub fn query(&self, key: &[u8]) -> QueryOutcome {
        self.with_view(|view| view.query(key))
    }

    /// Query a key under `policy`, handing each slot probe to `trace`:
    /// the store's one query implementation
    /// ([`dta_core::store::StoreView::query_traced`]) over the live
    /// region, which [`DartCollector::query`] and
    /// [`DartCollector::query_explain`] also run.
    pub(crate) fn query_traced<T: ProbeTrace>(
        &self,
        key: &[u8],
        policy: ReturnPolicy,
        trace: &mut T,
    ) -> (QueryOutcome, DecisionReason) {
        self.with_view(|view| view.query_traced(key, policy, trace))
    }

    /// Query a key under `policy`, returning the full §3.2 trace — which
    /// slots were probed, which checksums matched, and why the return
    /// policy answered or abstained — alongside the outcome.
    pub fn query_explain(&self, key: &[u8], policy: ReturnPolicy) -> StoreExplain {
        self.with_view(|view| view.query_explain(key, policy))
    }

    /// Direct read access to the live telemetry region.
    pub fn memory(&self) -> &MemoryHandle {
        &self.handle
    }

    /// Run `f` over a [`dta_core::store::StoreView`] of the live
    /// region — the zero-copy read surface the recovery sweep scans
    /// failover slots through (checksum-verified reads, ring windows,
    /// counter words) without going through the query policies.
    pub fn with_view<R>(&self, f: impl FnOnce(&dta_core::store::StoreView<'_>) -> R) -> R {
        self.handle.with(|memory| {
            let view = self
                .engine
                .view(memory)
                .expect("region geometry matches config by construction");
            f(&view)
        })
    }

    /// Host-side tombstone: zero `len` bytes at virtual address `va` in
    /// the live region. This is the *local* CPU acting on its own
    /// DRAM (like [`DartCollector::rotate_epoch`]'s reuse) — no remote
    /// permissions are involved, so the collector rkey stays write/atomic
    /// only. The recovery sweep uses it to retire stranded failover
    /// copies once their write-back to the recovered primary is ACKed.
    pub fn tombstone(&mut self, va: u64, len: usize) -> Result<(), dta_rdma::nic::NicError> {
        self.device.nic().host_zero(self.endpoint.rkey, va, len)
    }

    /// Seal the live epoch (§5.2.1) and return its id. The live region
    /// joins the DRAM ring, still registered, so a report crafted before
    /// the flip and delivered after it lands in the epoch it addressed.
    /// The new live region is registered while the ring fills, then is
    /// the oldest sealed region: its epoch drains to the persistent tier
    /// and the host zeroes it. QPs and PSNs are untouched; switches
    /// re-point their rows at [`DartCollector::endpoint`].
    pub fn rotate_epoch(&mut self) -> u64 {
        let len = self.handle.len();
        let next = if self.sealed.len() == DRAM_EPOCHS {
            let (epoch, rkey) = self.sealed.pop_front().expect("the ring is full");
            let oldest = self.region(rkey);
            if let Some(epoch) = epoch {
                self.archive.push((epoch, oldest.handle().snapshot()));
            }
            let zeroed = self.device.nic().host_zero(rkey, oldest.base_va(), len);
            zeroed.expect("in bounds");
            oldest
        } else {
            let stride = (len as u64).next_multiple_of(4096);
            let base_va = REGION_BASE_VA + (1 + self.sealed.len() as u64) * stride;
            let commit = commit_kind(self.engine.config().primitive);
            let access = AccessFlags::DART_COLLECTOR;
            let registered = self
                .device
                .register_region_with_commit(base_va, len, access, commit);
            self.region(registered.expect("rkeys are allocated fresh").0)
        };
        self.handle = next.handle();
        self.endpoint.base_va = next.base_va();
        let sealed = std::mem::replace(&mut self.endpoint.rkey, next.rkey());
        self.sealed.push_back((Some(self.epoch), sealed));
        self.epoch += 1;
        self.epoch - 1
    }

    /// A region this collector registered (they stay registered).
    fn region(&self, rkey: u32) -> MemoryRegion {
        let mr = self.device.nic().mr(rkey);
        mr.expect("collector regions stay registered").clone()
    }

    /// Wipe this collector's state as a crash-restart would: the live
    /// region is zeroed and the sealed epochs in DRAM are lost (their
    /// regions are zeroed on reuse); the persistent tier and the epoch
    /// counter survive. NIC registrations and QPNs survive — the model
    /// for the control plane re-establishing the same rkey/QPN layout on
    /// the replacement host. Call [`DartCollector::resync_qps`] to
    /// re-handshake their PSNs.
    pub fn wipe_memory(&mut self) {
        for (epoch, _) in &mut self.sealed {
            *epoch = None;
        }
        let (rkey, base_va) = (self.endpoint.rkey, self.endpoint.base_va);
        let zeroed = self
            .device
            .nic()
            .host_zero(rkey, base_va, self.handle.len());
        zeroed.expect("in bounds");
    }

    /// Re-handshake every switch queue pair with its sender's PSN
    /// register: each adopts the PSN of the next report it receives.
    /// The switches kept spending PSNs on reports the fabric dropped
    /// while this host was down, so an RC queue pair (Key-Increment)
    /// would otherwise NAK every later report; UC pairs would count the
    /// jump as a loss gap.
    pub fn resync_qps(&mut self) {
        self.device.nic_mut().resync_qps();
    }

    /// The live epoch's id, which is also the number of epochs sealed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ids of the sealed epochs still in DRAM, oldest first.
    pub fn dram_epochs(&self) -> Vec<u64> {
        self.sealed.iter().filter_map(|(epoch, _)| *epoch).collect()
    }

    /// Ids of the epochs in the persistent tier, oldest first.
    pub fn archived_epochs(&self) -> Vec<u64> {
        self.archive.iter().map(|(epoch, _)| *epoch).collect()
    }

    /// Memory regions registered with the NIC (live plus sealed).
    pub fn registered_regions(&self) -> usize {
        self.device.nic().registered_regions()
    }

    /// Query a key within `epoch`: the live region, then the DRAM ring,
    /// then the persistent tier.
    pub fn query_epoch(&self, epoch: u64, key: &[u8]) -> Result<QueryOutcome, DartError> {
        if epoch == self.epoch {
            return Ok(self.query(key));
        }
        if let Some(&(_, rkey)) = self.sealed.iter().find(|(e, _)| *e == Some(epoch)) {
            return self
                .region(rkey)
                .handle()
                .with(|memory| Ok(self.engine.view(memory)?.query(key)));
        }
        let (_, memory) = self
            .archive
            .iter()
            .find(|(id, _)| *id == epoch)
            .ok_or(DartError::UnknownEpoch(epoch))?;
        Ok(self.engine.view(memory)?.query(key))
    }
}

impl core::fmt::Debug for DartCollector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DartCollector")
            .field("index", &self.index)
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_core::hash::MappingKind;
    use dta_core::primitive::increment_encode;
    use dta_rdma::nic::RxAction;
    use dta_switch::egress::{DartEgress, EgressConfig};
    use dta_switch::SwitchIdentity;
    use dta_wire::dart::SlotLayout;
    use dta_wire::roce::{BthRepr, Opcode, RethRepr, RoceRepr};

    fn config() -> DartConfig {
        DartConfig::builder()
            .slots(1024)
            .copies(2)
            .mapping(MappingKind::Crc)
            .build()
            .unwrap()
    }

    fn write_frame(collector: &DartCollector, key: &[u8], value: &[u8], copy: u8) -> Vec<u8> {
        write_frame_with_psn(collector, key, value, copy, u32::from(copy))
    }

    fn write_frame_with_psn(
        collector: &DartCollector,
        key: &[u8],
        value: &[u8],
        copy: u8,
        psn: u32,
    ) -> Vec<u8> {
        // Hand-roll what a switch does, using the same CRC mapping.
        use dta_core::hash::{AddressMapping, CrcMapping};
        let mapping = CrcMapping::new();
        let cfg = config();
        let slot = mapping.slot(key, copy, cfg.slots);
        let layout: SlotLayout = cfg.layout;
        let mut payload = vec![0u8; layout.slot_len()];
        layout
            .encode(mapping.key_checksum(key), value, &mut payload)
            .unwrap();
        let ep = collector.endpoint();
        dta_rdma::nic::build_roce_frame(
            ethernet::Address([0x02, 0, 0, 0, 0, 9]),
            ep.mac,
            ipv4::Address([10, 0, 0, 9]),
            ep.ip,
            49152,
            &RoceRepr::Write {
                bth: BthRepr {
                    opcode: Opcode::UcRdmaWriteOnly,
                    solicited: false,
                    migration: true,
                    pad_count: 0,
                    partition_key: 0xFFFF,
                    dest_qp: ep.qpn,
                    ack_request: false,
                    psn,
                },
                reth: RethRepr {
                    virtual_addr: ep.base_va + slot * layout.slot_len() as u64,
                    rkey: ep.rkey,
                    dma_len: layout.slot_len() as u32,
                },
                payload,
            },
        )
    }

    #[test]
    fn end_to_end_write_then_query() {
        let mut collector = DartCollector::new(0, config()).unwrap();
        let value = vec![7u8; 20];
        for copy in 0..2 {
            let frame = write_frame(&collector, b"flow-1", &value, copy);
            let outcome = collector.receive_frame(&frame);
            assert!(
                matches!(outcome.action, RxAction::WriteExecuted { .. }),
                "{outcome:?}"
            );
        }
        assert_eq!(collector.query(b"flow-1"), QueryOutcome::Answer(value));
        assert_eq!(collector.nic_counters().writes, 2);
    }

    #[test]
    fn unreported_key_empty() {
        let collector = DartCollector::new(0, config()).unwrap();
        assert_eq!(collector.query(b"nothing"), QueryOutcome::Empty);
    }

    #[test]
    fn collectors_have_distinct_addresses() {
        let a = DartCollector::new(0, config()).unwrap();
        let b = DartCollector::new(1, config()).unwrap();
        assert_ne!(a.endpoint().mac, b.endpoint().mac);
        assert_ne!(a.endpoint().ip, b.endpoint().ip);
    }

    #[test]
    fn epoch_rotation_preserves_history_and_clears_active() {
        let mut collector = DartCollector::new(0, config()).unwrap();
        let value = vec![5u8; 20];
        for copy in 0..2 {
            let frame = write_frame(&collector, b"epoch-key", &value, copy);
            collector.receive_frame(&frame);
        }
        assert_eq!(
            collector.query(b"epoch-key"),
            QueryOutcome::Answer(value.clone())
        );

        let sealed = collector.rotate_epoch();
        assert_eq!(sealed, 0);
        assert_eq!(collector.epoch(), 1);
        // Active region is fresh...
        assert_eq!(collector.query(b"epoch-key"), QueryOutcome::Empty);
        // ...but the history still answers.
        assert_eq!(
            collector.query_epoch(0, b"epoch-key").unwrap(),
            QueryOutcome::Answer(value)
        );
        assert!(matches!(
            collector.query_epoch(9, b"k"),
            Err(DartError::UnknownEpoch(9))
        ));
    }

    #[test]
    fn ingestion_continues_across_rotation() {
        let mut collector = DartCollector::new(0, config()).unwrap();
        let frame = write_frame(&collector, b"before", &[1u8; 20], 0);
        collector.receive_frame(&frame);
        collector.rotate_epoch();
        // PSN state survives rotation: the next report (PSN continues
        // where the switch left off) must still be accepted.
        let frame = write_frame_with_psn(&collector, b"after", &[2u8; 20], 0, 1);
        let outcome = collector.receive_frame(&frame);
        assert!(
            matches!(outcome.action, RxAction::WriteExecuted { .. }),
            "{outcome:?}"
        );
        assert_eq!(
            collector
                .query_explain(b"after", dta_core::query::ReturnPolicy::FirstMatch)
                .outcome,
            QueryOutcome::Answer(vec![2u8; 20])
        );
    }

    /// A one-collector switch pipeline reporting into `collector` on a
    /// queue pair of its own, and that queue pair's number.
    fn switch_for(collector: &mut DartCollector) -> (DartEgress, u32) {
        let config = collector.engine.config().clone();
        let mut egress = DartEgress::new(
            SwitchIdentity::derived(1),
            EgressConfig {
                copies: config.copies,
                slots: config.slots,
                layout: config.layout,
                collectors: 1,
                udp_src_port: 49152,
                primitive: config.primitive,
            },
            7,
        )
        .unwrap();
        let qp = collector.allocate_switch_qp();
        egress.install_collector(0, qp).unwrap();
        (egress, qp.qpn)
    }

    /// Craft `key`'s report before the flip, rotate, re-point the
    /// switch, deliver it after the flip: it must land in the sealed
    /// epoch, leave the live one empty, and cost no PSN drop.
    fn flip_with_report_in_flight(config: DartConfig, value: &[u8], answer: &[u8]) {
        let mut collector = DartCollector::new(0, config).unwrap();
        let (mut egress, qpn) = switch_for(&mut collector);
        let in_flight = egress.craft(b"k", value).unwrap();
        let sealed = collector.rotate_epoch();
        egress.repoint_collectors(&[collector.endpoint()]).unwrap();
        for report in &in_flight {
            let action = collector.receive_frame(&report.frame).action;
            assert!(
                matches!(
                    action,
                    RxAction::WriteExecuted { .. } | RxAction::AtomicExecuted { .. }
                ),
                "{action:?}"
            );
        }
        assert_eq!(
            collector.query_epoch(sealed, b"k").unwrap(),
            QueryOutcome::Answer(answer.to_vec())
        );
        assert_eq!(collector.query(b"k"), QueryOutcome::Empty);
        // The re-pointed switch writes the live epoch on the same QP.
        for report in egress.craft(b"k", value).unwrap() {
            collector.receive_frame(&report.frame);
        }
        assert_eq!(collector.query(b"k"), QueryOutcome::Answer(answer.to_vec()));
        let qp = collector.qp_counters(qpn).unwrap();
        assert_eq!((qp.dropped, qp.psn_gaps), (0, 0));
    }

    #[test]
    fn key_write_over_uc_lands_in_the_epoch_it_addressed() {
        flip_with_report_in_flight(config(), &[9u8; 20], &[9u8; 20]);
    }

    #[test]
    fn key_increment_over_rc_lands_in_the_epoch_it_addressed() {
        let config = DartConfig::builder()
            .slots(1024)
            .copies(2)
            .mapping(MappingKind::Crc)
            .primitive(PrimitiveSpec::KeyIncrement)
            .build()
            .unwrap();
        let delta = increment_encode(5);
        flip_with_report_in_flight(config, &delta, &delta);
    }

    #[test]
    fn append_window_after_the_flip_holds_only_new_entries() {
        let config = DartConfig::builder()
            .slots(1024)
            .copies(1)
            .value_len(4)
            .mapping(MappingKind::Crc)
            .primitive(PrimitiveSpec::Append { ring_capacity: 8 })
            .build()
            .unwrap();
        let mut collector = DartCollector::new(0, config).unwrap();
        let (mut egress, _) = switch_for(&mut collector);
        let append = |collector: &mut DartCollector, egress: &mut DartEgress, entry: &[u8]| {
            let report = egress.craft_append(b"log", entry).unwrap();
            collector.receive_frame(&report.frame);
        };
        for entry in [b"old1", b"old2", b"old3"] {
            append(&mut collector, &mut egress, entry);
        }
        let sealed = collector.rotate_epoch();
        egress.repoint_collectors(&[collector.endpoint()]).unwrap();
        for entry in [b"new1", b"new2"] {
            append(&mut collector, &mut egress, entry);
        }
        assert_eq!(
            collector.query(b"log"),
            QueryOutcome::Answer(b"new1new2".to_vec())
        );
        assert_eq!(
            collector.query_epoch(sealed, b"log").unwrap(),
            QueryOutcome::Answer(b"old1old2old3".to_vec())
        );
    }

    /// Write `key = [tag; 20]` into the live epoch.
    fn write_tagged(collector: &mut DartCollector, key: &[u8], tag: u8) {
        let (mut egress, _) = switch_for(collector);
        for report in egress.craft(key, &[tag; 20]).unwrap() {
            collector.receive_frame(&report.frame);
        }
    }

    #[test]
    fn oldest_sealed_region_drains_to_the_archive_and_is_reused() {
        let mut collector = DartCollector::new(0, config()).unwrap();
        for epoch in 0..3u8 {
            write_tagged(&mut collector, b"k", epoch);
            collector.rotate_epoch();
        }
        // Epoch 0 drained; its region, zeroed, holds live epoch 3.
        assert_eq!(collector.archived_epochs(), vec![0]);
        assert_eq!(collector.dram_epochs(), vec![1, 2]);
        assert_eq!(collector.registered_regions(), 1 + DRAM_EPOCHS);
        assert_eq!(collector.query(b"k"), QueryOutcome::Empty);
        write_tagged(&mut collector, b"k", 3);
        for epoch in 0..4u8 {
            assert_eq!(
                collector.query_epoch(u64::from(epoch), b"k").unwrap(),
                QueryOutcome::Answer(vec![epoch; 20])
            );
        }
    }

    #[test]
    fn epoch_ids_survive_a_crash() {
        let mut collector = DartCollector::new(0, config()).unwrap();
        for epoch in 0..3u8 {
            write_tagged(&mut collector, b"k", epoch);
            collector.rotate_epoch();
        }
        // Archive [0], DRAM [1, 2], live 3. The crash loses DRAM only.
        collector.wipe_memory();
        assert_eq!(
            collector.query_epoch(0, b"k").unwrap(),
            QueryOutcome::Answer(vec![0; 20])
        );
        for lost in [1, 2] {
            assert_eq!(
                collector.query_epoch(lost, b"k"),
                Err(DartError::UnknownEpoch(lost))
            );
        }
        // The next id is fresh, so id 0 still names the archived epoch.
        write_tagged(&mut collector, b"k", 3);
        assert_eq!(collector.rotate_epoch(), 3);
        assert_eq!(collector.dram_epochs(), vec![3]);
        assert_eq!(collector.archived_epochs(), vec![0]);
        assert_eq!(
            collector.query_epoch(3, b"k").unwrap(),
            QueryOutcome::Answer(vec![3; 20])
        );
        assert_eq!(
            collector.query_epoch(0, b"k").unwrap(),
            QueryOutcome::Answer(vec![0; 20])
        );
    }

    #[test]
    fn region_sized_from_config() {
        let collector = DartCollector::new(0, config()).unwrap();
        assert_eq!(collector.memory().len(), 1024 * 24);
        assert_eq!(collector.endpoint().region_len, 1024 * 24);
    }
}
