//! A fixed-capacity ring buffer of lifecycle events.
//!
//! Every stage a report passes through — egress craft, failover remap,
//! NIC verdict, slot write, query probe, liveness flip — can drop a
//! `Copy`-only [`Event`] into the ring. The ring keeps the most recent
//! `capacity` events and a monotonic sequence number so a reader can
//! tell how many were overwritten. Payloads use `&'static str` for
//! reason names, which keeps `dta-obs` a leaf crate: producers pass
//! their own `DropReason::name()`-style strings. Recording takes no
//! lock: events are packed into atomic words (reason names interned),
//! and each slot is a small seqlock.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

/// What happened at one stage of a report's (or probe's) life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A switch egress crafted one report copy.
    ReportCrafted {
        /// Crafting switch id.
        switch: u32,
        /// Destination collector index (after any failover remap).
        collector: u8,
        /// Copy index within the multi-write (0-based).
        copy: u8,
        /// PSN stamped on the frame.
        psn: u32,
    },
    /// The egress rerouted a report because its primary collector was
    /// marked dead in the liveness registers.
    FailoverRemap {
        /// Crafting switch id.
        switch: u32,
        /// The dead primary collector.
        primary: u8,
        /// The live collector the report was remapped to.
        target: u8,
    },
    /// The egress dropped a report: no live collector remained.
    NoLiveCollector {
        /// Crafting switch id.
        switch: u32,
    },
    /// A frame crossed the simulated link.
    LinkFrame {
        /// Whether the link delivered it (false = link-level drop).
        delivered: bool,
    },
    /// A collector NIC executed an RDMA WRITE into a slot.
    SlotWrite {
        /// Receiving collector index.
        collector: u8,
        /// Target virtual address of the write.
        va: u64,
        /// Bytes written.
        len: u32,
        /// True if the slot was previously empty (all-zero), false if
        /// this write overwrote an earlier report.
        fresh: bool,
    },
    /// A collector NIC (or the fabric in front of it) dropped a frame.
    NicDrop {
        /// Receiving collector index.
        collector: u8,
        /// `DropReason::name()` of the verdict.
        reason: &'static str,
    },
    /// A query probed one slot copy.
    QueryProbe {
        /// Collector the probe read from.
        collector: u8,
        /// Copy index probed (0-based).
        copy: u8,
        /// Slot index within the region.
        slot: u64,
        /// Whether the slot held any report (non-zero bytes).
        occupied: bool,
        /// Whether the slot's key checksum matched the queried key.
        matched: bool,
    },
    /// The return policy reached its decision for one query.
    QueryDecision {
        /// Collector that served the query.
        collector: u8,
        /// `DecisionReason`-style name of why it answered/abstained.
        reason: &'static str,
        /// Whether a value was returned.
        answered: bool,
    },
    /// The health monitor's probe to a collector went unanswered.
    ProbeMiss {
        /// Probed collector index.
        collector: u8,
        /// Consecutive misses so far.
        misses: u32,
    },
    /// The health monitor backed off its probe interval for a dead peer.
    ProbeBackoff {
        /// Probed collector index.
        collector: u8,
        /// New probe interval in ticks.
        interval: u64,
    },
    /// The health monitor flipped a collector's liveness bit.
    LivenessFlip {
        /// Collector index.
        collector: u8,
        /// New liveness state.
        live: bool,
    },
    /// A collector came back from a fault.
    Recovery {
        /// Collector index.
        collector: u8,
        /// Whether its memory was wiped on the way back (crash vs.
        /// blackhole/degrade).
        wiped: bool,
    },
    /// A collector NIC committed a Key-Increment FETCH_ADD.
    CounterCommit {
        /// Receiving collector index.
        collector: u8,
        /// Counter word value before the add (0 = first increment).
        original: u64,
    },
    /// The control plane scheduled a re-replication sweep after a
    /// primary collector transitioned dead → alive.
    SweepScheduled {
        /// The recovered primary collector.
        collector: u8,
        /// Keys queued for write-back.
        keys: u32,
    },
    /// One rate-limited batch of a re-replication sweep ran.
    SweepBatch {
        /// The recovered primary collector.
        collector: u8,
        /// Keys whose write-back was ACKed this batch.
        copied: u32,
        /// Write-backs that were dropped (retry or abort).
        aborted: u32,
    },
    /// A re-replication sweep drained its queue.
    SweepCompleted {
        /// The recovered primary collector.
        collector: u8,
        /// Keys restored onto the primary over the whole sweep.
        restored: u32,
        /// Keys abandoned after exhausting retries (stranded copies
        /// kept).
        abandoned: u32,
    },
}

impl EventKind {
    /// A short stable name for the event variant (used by exporters and
    /// the operator console).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ReportCrafted { .. } => "report_crafted",
            EventKind::FailoverRemap { .. } => "failover_remap",
            EventKind::NoLiveCollector { .. } => "no_live_collector",
            EventKind::LinkFrame { .. } => "link_frame",
            EventKind::SlotWrite { .. } => "slot_write",
            EventKind::NicDrop { .. } => "nic_drop",
            EventKind::QueryProbe { .. } => "query_probe",
            EventKind::QueryDecision { .. } => "query_decision",
            EventKind::ProbeMiss { .. } => "probe_miss",
            EventKind::ProbeBackoff { .. } => "probe_backoff",
            EventKind::LivenessFlip { .. } => "liveness_flip",
            EventKind::Recovery { .. } => "recovery",
            EventKind::CounterCommit { .. } => "counter_commit",
            EventKind::SweepScheduled { .. } => "sweep_scheduled",
            EventKind::SweepBatch { .. } => "sweep_batch",
            EventKind::SweepCompleted { .. } => "sweep_completed",
        }
    }
}

/// One recorded event: a monotonic sequence number, the producer's tick
/// at record time, and the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (0-based, never reused).
    pub seq: u64,
    /// Producer clock at record time (link frames in the simulator).
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A slot mid-write.
const WRITING: u64 = u64::MAX;

/// Most distinct reason names one ring interns.
const MAX_NAMES: usize = 64;

/// One ring slot: an [`Event`] encoded into atomic words, guarded by a
/// sequence stamp (a seqlock), so recording takes no lock.
#[derive(Default)]
struct Slot {
    /// 0 = empty, [`WRITING`] = mid-write, else the held event's
    /// `seq + 1`.
    stamp: AtomicU64,
    tick: AtomicU64,
    /// The event's widest field (see [`EventRing::encode`]).
    a: AtomicU64,
    /// Variant tag in the low byte, up to three byte fields, and a
    /// 32-bit field in the high half.
    b: AtomicU64,
}

/// A fixed-capacity, overwrite-oldest ring of [`Event`]s.
///
/// Recording takes no lock: a producer takes the next sequence number
/// with one atomic add and writes the event into slot `seq & mask` of a
/// power-of-two array, under that slot's stamp. Producers of one slot
/// write in sequence order (a producer that laps the ring waits for the
/// slot's previous write to finish), so a stamp names exactly the event
/// its slot holds. Readers copy slots out and keep the newest
/// `capacity` events.
pub struct EventRing {
    /// Events retained (what [`EventRing::new`] was asked for).
    capacity: usize,
    /// `slots.len() - 1`; the slot count is `capacity` rounded up to a
    /// power of two.
    mask: u64,
    slots: Box<[Slot]>,
    /// Next sequence number == total events ever recorded.
    next_seq: AtomicU64,
    /// Events below this sequence number were cleared.
    cleared_below: AtomicU64,
    /// Reason names (`&'static str` payloads), interned so an event
    /// fits in atomic words: an event stores the index.
    names: Box<[OnceLock<&'static str>]>,
}

impl EventRing {
    /// A ring holding at most `capacity` events (0 = record nothing).
    /// Every slot (32 bytes, `capacity` rounded up to a power of two) is
    /// allocated here, so recording never allocates.
    pub fn new(capacity: usize) -> EventRing {
        let slots = if capacity == 0 {
            0
        } else {
            capacity.next_power_of_two()
        };
        EventRing {
            capacity,
            mask: (slots as u64).wrapping_sub(1),
            slots: (0..slots).map(|_| Slot::default()).collect(),
            next_seq: AtomicU64::new(0),
            cleared_below: AtomicU64::new(0),
            names: (0..MAX_NAMES).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        let next = self.next_seq.load(Ordering::Acquire);
        (next - self.floor(next)) as usize
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (retained + overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire)
    }

    /// Record an event; the oldest retained event is overwritten once
    /// the ring is full.
    pub fn record(&self, tick: u64, kind: EventKind) {
        if self.capacity == 0 {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let (a, b) = self.encode(kind);
        let slot = &self.slots[(seq & self.mask) as usize];
        // The slot's previous event is this one's predecessor a lap
        // back: wait until its producer has finished writing it, so one
        // slot's writes are serialized in sequence order. This only ever
        // waits when producers lap the whole ring.
        let lap = self.mask + 1;
        let previous = if seq >= lap { seq - lap + 1 } else { 0 };
        // Acquire pairs with the previous writer's final Release store,
        // so its field stores are ordered before ours.
        while slot.stamp.load(Ordering::Acquire) != previous {
            std::hint::spin_loop();
        }
        // Seqlock write: the WRITING mark is ordered before the field
        // stores by the Release fence (paired with the reader's Acquire
        // fence), and the final Release store publishes the fields.
        slot.stamp.store(WRITING, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.tick.store(tick, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Copy out the retained events in sequence order (oldest first).
    pub fn snapshot(&self) -> Vec<Event> {
        let next = self.next_seq.load(Ordering::Acquire);
        let floor = self.floor(next);
        let mut events: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == 0 || stamp == WRITING {
                    return None;
                }
                let tick = slot.tick.load(Ordering::Relaxed);
                let a = slot.a.load(Ordering::Relaxed);
                let b = slot.b.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                // A changed stamp means the slot was overwritten while
                // being read: the event it held is gone.
                if slot.stamp.load(Ordering::Relaxed) != stamp {
                    return None;
                }
                let seq = stamp - 1;
                (floor..next).contains(&seq).then(|| Event {
                    seq,
                    tick,
                    kind: self.decode(a, b),
                })
            })
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Retained events whose kind name equals `name`, oldest first.
    pub fn events_named(&self, name: &str) -> Vec<Event> {
        self.snapshot()
            .into_iter()
            .filter(|e| e.kind.name() == name)
            .collect()
    }

    /// Drop all retained events (sequence numbers keep advancing).
    pub fn clear(&self) {
        let next = self.next_seq.load(Ordering::Acquire);
        self.cleared_below.fetch_max(next, Ordering::AcqRel);
    }

    /// The oldest sequence number still retained, given `next`.
    fn floor(&self, next: u64) -> u64 {
        next.saturating_sub(self.capacity as u64)
            .max(self.cleared_below.load(Ordering::Acquire))
            .min(next)
    }

    /// The index of `name` in the intern table (the last index, never
    /// filled, when the table is full: it reads back as `"?"`).
    fn intern(&self, name: &'static str) -> u64 {
        for (i, cell) in self.names[..MAX_NAMES - 1].iter().enumerate() {
            let held = match cell.get() {
                Some(held) => held,
                None => cell.get_or_init(|| name),
            };
            if core::ptr::eq(*held, name) || *held == name {
                return i as u64;
            }
        }
        (MAX_NAMES - 1) as u64
    }

    fn name(&self, index: u64) -> &'static str {
        self.names
            .get(index as usize)
            .and_then(OnceLock::get)
            .copied()
            .unwrap_or("?")
    }

    /// Pack `kind` into two words: `a` carries its widest field, `b` the
    /// variant tag (bits 0–7), up to three byte fields (bits 8–31) and a
    /// 32-bit field (bits 32–63).
    fn encode(&self, kind: EventKind) -> (u64, u64) {
        let b = |tag: u64, f1: u8, f2: u8, f3: u8, wide: u32| {
            tag | u64::from(f1) << 8
                | u64::from(f2) << 16
                | u64::from(f3) << 24
                | u64::from(wide) << 32
        };
        let pair = |lo: u32, hi: u32| u64::from(lo) | u64::from(hi) << 32;
        match kind {
            EventKind::ReportCrafted {
                switch,
                collector,
                copy,
                psn,
            } => (pair(switch, psn), b(0, collector, copy, 0, 0)),
            EventKind::FailoverRemap {
                switch,
                primary,
                target,
            } => (u64::from(switch), b(1, primary, target, 0, 0)),
            EventKind::NoLiveCollector { switch } => (u64::from(switch), b(2, 0, 0, 0, 0)),
            EventKind::LinkFrame { delivered } => (0, b(3, u8::from(delivered), 0, 0, 0)),
            EventKind::SlotWrite {
                collector,
                va,
                len,
                fresh,
            } => (va, b(4, collector, u8::from(fresh), 0, len)),
            EventKind::NicDrop { collector, reason } => {
                (self.intern(reason), b(5, collector, 0, 0, 0))
            }
            EventKind::QueryProbe {
                collector,
                copy,
                slot,
                occupied,
                matched,
            } => (
                slot,
                b(
                    6,
                    collector,
                    copy,
                    u8::from(occupied) | u8::from(matched) << 1,
                    0,
                ),
            ),
            EventKind::QueryDecision {
                collector,
                reason,
                answered,
            } => (
                self.intern(reason),
                b(7, collector, u8::from(answered), 0, 0),
            ),
            EventKind::ProbeMiss { collector, misses } => (0, b(8, collector, 0, 0, misses)),
            EventKind::ProbeBackoff {
                collector,
                interval,
            } => (interval, b(9, collector, 0, 0, 0)),
            EventKind::LivenessFlip { collector, live } => {
                (0, b(10, collector, u8::from(live), 0, 0))
            }
            EventKind::Recovery { collector, wiped } => {
                (0, b(11, collector, u8::from(wiped), 0, 0))
            }
            EventKind::CounterCommit {
                collector,
                original,
            } => (original, b(12, collector, 0, 0, 0)),
            EventKind::SweepScheduled { collector, keys } => (0, b(13, collector, 0, 0, keys)),
            EventKind::SweepBatch {
                collector,
                copied,
                aborted,
            } => (pair(copied, aborted), b(14, collector, 0, 0, 0)),
            EventKind::SweepCompleted {
                collector,
                restored,
                abandoned,
            } => (pair(restored, abandoned), b(15, collector, 0, 0, 0)),
        }
    }

    /// The inverse of [`EventRing::encode`].
    fn decode(&self, a: u64, b: u64) -> EventKind {
        let [tag, f1, f2, f3, ..] = b.to_le_bytes();
        let wide = (b >> 32) as u32;
        let (lo, hi) = (a as u32, (a >> 32) as u32);
        match tag {
            0 => EventKind::ReportCrafted {
                switch: lo,
                collector: f1,
                copy: f2,
                psn: hi,
            },
            1 => EventKind::FailoverRemap {
                switch: lo,
                primary: f1,
                target: f2,
            },
            2 => EventKind::NoLiveCollector { switch: lo },
            3 => EventKind::LinkFrame { delivered: f1 != 0 },
            4 => EventKind::SlotWrite {
                collector: f1,
                va: a,
                len: wide,
                fresh: f2 != 0,
            },
            5 => EventKind::NicDrop {
                collector: f1,
                reason: self.name(a),
            },
            6 => EventKind::QueryProbe {
                collector: f1,
                copy: f2,
                slot: a,
                occupied: f3 & 1 != 0,
                matched: f3 & 2 != 0,
            },
            7 => EventKind::QueryDecision {
                collector: f1,
                reason: self.name(a),
                answered: f2 != 0,
            },
            8 => EventKind::ProbeMiss {
                collector: f1,
                misses: wide,
            },
            9 => EventKind::ProbeBackoff {
                collector: f1,
                interval: a,
            },
            10 => EventKind::LivenessFlip {
                collector: f1,
                live: f2 != 0,
            },
            11 => EventKind::Recovery {
                collector: f1,
                wiped: f2 != 0,
            },
            12 => EventKind::CounterCommit {
                collector: f1,
                original: a,
            },
            13 => EventKind::SweepScheduled {
                collector: f1,
                keys: wide,
            },
            14 => EventKind::SweepBatch {
                collector: f1,
                copied: lo,
                aborted: hi,
            },
            _ => EventKind::SweepCompleted {
                collector: f1,
                restored: lo,
                abandoned: hi,
            },
        }
    }
}

impl core::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity)
            .field("recorded", &self.total_recorded())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip(collector: u8) -> EventKind {
        EventKind::LivenessFlip {
            collector,
            live: false,
        }
    }

    #[test]
    fn retains_most_recent_in_order() {
        let ring = EventRing::new(3);
        for i in 0..5u8 {
            ring.record(i as u64 * 10, flip(i));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(events[0].tick, 20);
        assert_eq!(ring.total_recorded(), 5);
    }

    /// Every variant survives the atomic-word packing unchanged.
    #[test]
    fn every_event_kind_round_trips() {
        let kinds = [
            EventKind::ReportCrafted {
                switch: u32::MAX,
                collector: 7,
                copy: 255,
                psn: 0xFF_FFFF,
            },
            EventKind::FailoverRemap {
                switch: 3,
                primary: 1,
                target: 2,
            },
            EventKind::NoLiveCollector { switch: 9 },
            EventKind::LinkFrame { delivered: true },
            EventKind::LinkFrame { delivered: false },
            EventKind::SlotWrite {
                collector: 3,
                va: u64::MAX - 5,
                len: u32::MAX,
                fresh: true,
            },
            EventKind::NicDrop {
                collector: 2,
                reason: "psn",
            },
            EventKind::QueryProbe {
                collector: 1,
                copy: 4,
                slot: 1 << 40,
                occupied: true,
                matched: false,
            },
            EventKind::QueryProbe {
                collector: 1,
                copy: 4,
                slot: 0,
                occupied: false,
                matched: true,
            },
            EventKind::QueryDecision {
                collector: 0,
                reason: "plurality",
                answered: true,
            },
            EventKind::ProbeMiss {
                collector: 5,
                misses: 77,
            },
            EventKind::ProbeBackoff {
                collector: 5,
                interval: 1 << 50,
            },
            EventKind::LivenessFlip {
                collector: 6,
                live: true,
            },
            EventKind::Recovery {
                collector: 6,
                wiped: true,
            },
            EventKind::CounterCommit {
                collector: 1,
                original: u64::MAX,
            },
            EventKind::SweepScheduled {
                collector: 2,
                keys: 12,
            },
            EventKind::SweepBatch {
                collector: 2,
                copied: 5,
                aborted: u32::MAX,
            },
            EventKind::SweepCompleted {
                collector: 2,
                restored: u32::MAX,
                abandoned: 1,
            },
        ];
        let ring = EventRing::new(kinds.len());
        for (i, &kind) in kinds.iter().enumerate() {
            ring.record(i as u64, kind);
        }
        let events = ring.snapshot();
        assert_eq!(events.iter().map(|e| e.kind).collect::<Vec<_>>(), kinds);
        assert_eq!(events.last().unwrap().tick, kinds.len() as u64 - 1);
    }

    #[test]
    fn clear_hides_retained_events_and_keeps_counting() {
        let ring = EventRing::new(4);
        for i in 0..3u8 {
            ring.record(0, flip(i));
        }
        ring.clear();
        assert!(ring.is_empty());
        ring.record(0, flip(9));
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 3);
        assert_eq!(ring.total_recorded(), 4);
    }

    #[test]
    fn concurrent_producers_keep_the_newest_events() {
        let ring = std::sync::Arc::new(EventRing::new(64));
        let threads: Vec<_> = (0..2u8)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ring.record(i, flip(t));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.total_recorded(), 2000);
        let events = ring.snapshot();
        assert_eq!(events.len(), 64);
        assert_eq!(events[0].seq, 2000 - 64);
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let ring = EventRing::new(0);
        ring.record(1, flip(0));
        assert!(ring.is_empty());
        assert_eq!(ring.total_recorded(), 0);
    }

    #[test]
    fn filter_by_name() {
        let ring = EventRing::new(8);
        ring.record(1, flip(0));
        ring.record(
            2,
            EventKind::SlotWrite {
                collector: 1,
                va: 0x4000_0000,
                len: 16,
                fresh: true,
            },
        );
        ring.record(3, flip(1));
        let flips = ring.events_named("liveness_flip");
        assert_eq!(flips.len(), 2);
        assert_eq!(ring.events_named("slot_write").len(), 1);
        assert_eq!(ring.events_named("nope").len(), 0);
    }
}
