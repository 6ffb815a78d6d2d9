//! A lossy, reordering link between switches and collector NICs.
//!
//! DART explicitly tolerates telemetry report loss: a dropped RDMA WRITE
//! just leaves one of a key's `N` slots stale, and the probabilistic
//! query path absorbs it (§3). This module injects exactly those faults
//! so the robustness claims can be exercised: Bernoulli loss, bounded
//! random reordering, and deterministic "drop every n-th frame" patterns
//! for reproducible tests.
//!
//! The fault models have one implementation, which decides each frame's
//! fate in offer order and is generic over how a frame is held. The
//! report hot path uses it over a [`FrameArena`]: a batch of frames
//! crafted into one reusable byte buffer, which
//! [`LinkTx::transmit`] rewrites in place into the frames the link
//! delivered, in wire order, without copying or allocating. The
//! one-frame [`LinkTx::send`] / [`LinkRx::try_recv`] pair moves owned
//! frames over a crossbeam channel instead, so switch and collector can
//! run on separate threads; both paths draw the same RNG values in the
//! same order and deliver the same bytes.

use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault model applied to each frame in transit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// Deliver everything, in order.
    Perfect,
    /// Drop each frame independently with this probability.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Drop every `n`-th frame (1-indexed; `n = 3` drops frames 3, 6, …).
    DropNth {
        /// The period of the drop pattern.
        n: u64,
    },
    /// Deliver everything but swap each pair of consecutive frames with
    /// this probability (adjacent reordering).
    Reorder {
        /// Swap probability in `[0, 1]`.
        prob: f64,
    },
    /// Gilbert–Elliott bursty loss: a two-state Markov chain alternating
    /// between a good and a bad state, each with its own loss rate. The
    /// classic model for congestion bursts and flapping optics, which
    /// Bernoulli loss cannot reproduce (DART's per-key slot redundancy is
    /// far more stressed by correlated than by independent loss).
    GilbertElliott {
        /// Per-frame probability of moving good → bad.
        to_bad: f64,
        /// Per-frame probability of moving bad → good.
        to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
    /// Deliver every frame, and with this probability deliver it twice —
    /// the duplication a routing flap or retransmitting middlebox causes.
    /// Receivers must de-duplicate via PSN ordering (UC drops stale PSNs)
    /// or the duplicate WRITE would be applied twice.
    Duplicate {
        /// Duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// Bernoulli loss composed with adjacent reordering — the combined
    /// stress the chaos soak runs under.
    LossyReorder {
        /// Loss probability in `[0, 1]`, applied first.
        loss: f64,
        /// Swap probability in `[0, 1]` for surviving adjacent pairs.
        prob: f64,
    },
}

/// Link delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames offered to the link.
    pub sent: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Frames dropped by the fault model.
    pub dropped: u64,
    /// Frame pairs swapped.
    pub reordered: u64,
    /// Frames delivered twice (each counted once here, twice in
    /// `delivered`).
    pub duplicated: u64,
    /// Subset of `dropped` lost while a Gilbert–Elliott link was in its
    /// bad state — distinguishes burst loss from background loss.
    pub burst_drops: u64,
}

/// Where one frame's bytes sit in a [`FrameArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameRange {
    start: usize,
    end: usize,
}

/// A batch of frames in one byte buffer: each frame is a range of it.
///
/// Switch egress crafts a report's frames straight into the arena, the
/// link rewrites the range list into the frames it delivered, and the
/// collector fabric reads them in place. [`FrameArena::clear`] keeps
/// both buffers' capacity, so a warm arena is reused without
/// allocating. Ranges may repeat (a duplicated frame) and need not
/// follow byte order (a reordered pair).
#[derive(Debug, Clone, Default)]
pub struct FrameArena {
    bytes: Vec<u8>,
    frames: Vec<FrameRange>,
}

impl FrameArena {
    /// An empty arena.
    pub fn new() -> FrameArena {
        FrameArena::default()
    }

    /// An empty arena with room for `frames` frames of `bytes` bytes in
    /// total before it first grows.
    pub fn with_capacity(frames: usize, bytes: usize) -> FrameArena {
        FrameArena {
            bytes: Vec::with_capacity(bytes),
            frames: Vec::with_capacity(frames),
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the arena holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The frames in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.frames.iter().map(|r| &self.bytes[r.start..r.end])
    }

    /// Append a copy of `frame`.
    pub fn push(&mut self, frame: &[u8]) {
        let range = self.append_bytes(frame);
        self.frames.push(range);
    }

    /// Append a `len`-byte frame that `fill` writes in place, into a
    /// zeroed buffer.
    pub fn push_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        let start = self.bytes.len();
        self.bytes.resize(start + len, 0);
        fill(&mut self.bytes[start..]);
        self.frames.push(FrameRange {
            start,
            end: start + len,
        });
    }

    /// Keep only the first `frames` frames (their bytes stay until
    /// [`FrameArena::clear`]).
    pub fn truncate(&mut self, frames: usize) {
        self.frames.truncate(frames);
    }

    /// Remove every frame, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.frames.clear();
    }

    fn append_bytes(&mut self, frame: &[u8]) -> FrameRange {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(frame);
        FrameRange {
            start,
            end: self.bytes.len(),
        }
    }

    fn bytes_of(&self, range: FrameRange) -> &[u8] {
        &self.bytes[range.start..range.end]
    }
}

/// The fault models' state: which frames to drop, swap or duplicate.
struct Faults {
    model: FaultModel,
    rng: StdRng,
    count: u64,
    stats: LinkStats,
    ge_bad: bool,
}

impl Faults {
    /// Decide the fate of one offered frame. `held` is the frame the
    /// reorder models keep back for pairing; `deliver` receives the
    /// delivered frames in wire order. `F` is however the caller holds a
    /// frame: an arena range or an owned buffer.
    fn offer<F: Clone>(&mut self, frame: F, held: &mut Option<F>, deliver: &mut impl FnMut(F)) {
        self.count += 1;
        self.stats.sent += 1;
        match self.model {
            FaultModel::Perfect => self.deliver(frame, deliver),
            FaultModel::Bernoulli { loss } => {
                if self.rng.gen::<f64>() < loss {
                    self.stats.dropped += 1;
                } else {
                    self.deliver(frame, deliver);
                }
            }
            FaultModel::DropNth { n } => {
                if n != 0 && self.count % n == 0 {
                    self.stats.dropped += 1;
                } else {
                    self.deliver(frame, deliver);
                }
            }
            FaultModel::Reorder { prob } => self.reorder(frame, prob, held, deliver),
            FaultModel::GilbertElliott {
                to_bad,
                to_good,
                loss_good,
                loss_bad,
            } => {
                // State transition first, then the state's loss draw, so a
                // burst can begin on the very frame that enters the bad
                // state.
                let flip = if self.ge_bad { to_good } else { to_bad };
                if self.rng.gen::<f64>() < flip {
                    self.ge_bad = !self.ge_bad;
                }
                let loss = if self.ge_bad { loss_bad } else { loss_good };
                if self.rng.gen::<f64>() < loss {
                    self.stats.dropped += 1;
                    if self.ge_bad {
                        self.stats.burst_drops += 1;
                    }
                } else {
                    self.deliver(frame, deliver);
                }
            }
            FaultModel::Duplicate { prob } => {
                if self.rng.gen::<f64>() < prob {
                    self.stats.duplicated += 1;
                    self.deliver(frame.clone(), deliver);
                }
                self.deliver(frame, deliver);
            }
            FaultModel::LossyReorder { loss, prob } => {
                if self.rng.gen::<f64>() < loss {
                    self.stats.dropped += 1;
                } else {
                    self.reorder(frame, prob, held, deliver);
                }
            }
        }
    }

    /// Pair `frame` with the held one and emit the pair in random order
    /// (adjacent reordering), or hold `frame` if nothing is held.
    fn reorder<F>(
        &mut self,
        frame: F,
        prob: f64,
        held: &mut Option<F>,
        deliver: &mut impl FnMut(F),
    ) {
        match held.take() {
            Some(first) => {
                if self.rng.gen::<f64>() < prob {
                    self.stats.reordered += 1;
                    self.deliver(frame, deliver);
                    self.deliver(first, deliver);
                } else {
                    self.deliver(first, deliver);
                    self.deliver(frame, deliver);
                }
            }
            None => *held = Some(frame),
        }
    }

    fn deliver<F>(&mut self, frame: F, deliver: &mut impl FnMut(F)) {
        self.stats.delivered += 1;
        deliver(frame);
    }
}

/// The transmitting end of a link.
pub struct LinkTx {
    tx: Sender<Vec<u8>>,
    faults: Faults,
    /// The frame a reorder model holds back between calls.
    held: Option<Vec<u8>>,
    /// Scratch for [`LinkTx::transmit`]: the offered batch's ranges.
    offered: Vec<FrameRange>,
}

/// The receiving end of a link.
pub struct LinkRx {
    rx: Receiver<Vec<u8>>,
}

/// Create a link with the given fault model and RNG seed.
pub fn link(model: FaultModel, seed: u64) -> (LinkTx, LinkRx) {
    let (tx, rx) = unbounded();
    (
        LinkTx {
            tx,
            faults: Faults {
                model,
                rng: StdRng::seed_from_u64(seed),
                count: 0,
                stats: LinkStats::default(),
                ge_bad: false,
            },
            held: None,
            offered: Vec::new(),
        },
        LinkRx { rx },
    )
}

impl LinkTx {
    /// Offer every frame of `frames` to the link, in order. On return
    /// `frames` lists exactly the frames the link delivered, in wire
    /// order: the fault model rewrites the range list and the bytes stay
    /// where they are. A frame a reorder model holds back leaves the
    /// arena until a later batch or [`LinkTx::flush_into`] releases it.
    pub fn transmit(&mut self, frames: &mut FrameArena) {
        let mut offered = std::mem::take(&mut self.offered);
        offered.clear();
        std::mem::swap(&mut offered, &mut frames.frames);
        // A frame held back from an earlier call re-enters as bytes.
        let mut held = self.held.take().map(|bytes| frames.append_bytes(&bytes));
        let delivered = &mut frames.frames;
        for &range in &offered {
            self.faults
                .offer(range, &mut held, &mut |r| delivered.push(r));
        }
        if let Some(range) = held {
            self.held = Some(frames.bytes_of(range).to_vec());
        }
        self.offered = offered;
    }

    /// Append any frame held back by the reorder model to `frames`.
    pub fn flush_into(&mut self, frames: &mut FrameArena) {
        if let Some(frame) = self.held.take() {
            self.faults
                .deliver(frame, &mut |f: Vec<u8>| frames.push(&f));
        }
    }

    /// Offer one owned frame to the link; delivered frames go to the
    /// channel [`LinkRx`] reads.
    pub fn send(&mut self, frame: Vec<u8>) {
        let tx = &self.tx;
        // The receiver may be gone in teardown; frames on a dead link
        // vanish, just like on a real wire.
        self.faults.offer(frame, &mut self.held, &mut |f| {
            let _ = tx.send(f);
        });
    }

    /// Flush any frame held back by the reorder model to the channel.
    pub fn flush(&mut self) {
        if let Some(frame) = self.held.take() {
            let tx = &self.tx;
            self.faults.deliver(frame, &mut |f| {
                let _ = tx.send(f);
            });
        }
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> LinkStats {
        self.faults.stats
    }
}

impl LinkRx {
    /// Receive the next frame, if one is waiting.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.rx.try_recv().ok()
    }

    /// Drain all waiting frames.
    pub fn drain(&self) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        while let Some(f) = self.try_recv() {
            frames.push(f);
        }
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| i.to_le_bytes().to_vec()).collect()
    }

    #[test]
    fn perfect_link_delivers_in_order() {
        let (mut tx, rx) = link(FaultModel::Perfect, 1);
        for f in frames(10) {
            tx.send(f);
        }
        let got = rx.drain();
        assert_eq!(got, frames(10));
        assert_eq!(tx.stats().delivered, 10);
        assert_eq!(tx.stats().dropped, 0);
    }

    #[test]
    fn drop_nth_is_deterministic() {
        let (mut tx, rx) = link(FaultModel::DropNth { n: 3 }, 1);
        for f in frames(9) {
            tx.send(f);
        }
        let got = rx.drain();
        assert_eq!(got.len(), 6);
        assert_eq!(tx.stats().dropped, 3);
        // Frames 3, 6, 9 (1-indexed) = indices 2, 5, 8 are missing.
        assert!(!got.contains(&2u64.to_le_bytes().to_vec()));
        assert!(!got.contains(&5u64.to_le_bytes().to_vec()));
    }

    #[test]
    fn bernoulli_loss_rate_close_to_nominal() {
        let (mut tx, rx) = link(FaultModel::Bernoulli { loss: 0.2 }, 42);
        for f in frames(10_000) {
            tx.send(f);
        }
        let got = rx.drain().len() as f64;
        let rate = 1.0 - got / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn bernoulli_is_seed_deterministic() {
        let run = |seed| {
            let (mut tx, rx) = link(FaultModel::Bernoulli { loss: 0.5 }, seed);
            for f in frames(100) {
                tx.send(f);
            }
            rx.drain()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn reorder_swaps_some_pairs() {
        let (mut tx, rx) = link(FaultModel::Reorder { prob: 1.0 }, 1);
        for f in frames(4) {
            tx.send(f);
        }
        tx.flush();
        let got = rx.drain();
        // With prob 1.0 every pair is swapped: 1,0,3,2.
        assert_eq!(
            got,
            vec![
                1u64.to_le_bytes().to_vec(),
                0u64.to_le_bytes().to_vec(),
                3u64.to_le_bytes().to_vec(),
                2u64.to_le_bytes().to_vec(),
            ]
        );
        assert_eq!(tx.stats().reordered, 2);
    }

    #[test]
    fn flush_releases_held_frame() {
        let (mut tx, rx) = link(FaultModel::Reorder { prob: 0.0 }, 1);
        tx.send(vec![9]);
        assert!(rx.try_recv().is_none(), "frame held for pairing");
        tx.flush();
        assert_eq!(rx.try_recv().unwrap(), vec![9]);
    }

    #[test]
    fn try_recv_empty() {
        let (_tx, rx) = link(FaultModel::Perfect, 1);
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Mean loss matches the chain's stationary rate, and drops
        // cluster: the conditional loss probability after a drop must be
        // much higher than the marginal one.
        let model = FaultModel::GilbertElliott {
            to_bad: 0.02,
            to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 0.8,
        };
        let (mut tx, rx) = link(model, 42);
        let n = 50_000u64;
        let mut lost = vec![false; n as usize];
        for (i, f) in frames(n).into_iter().enumerate() {
            let before = tx.stats().dropped;
            tx.send(f);
            lost[i] = tx.stats().dropped > before;
        }
        drop(rx);
        // Stationary bad-state share = to_bad / (to_bad + to_good) ≈ 0.0909,
        // so the marginal loss rate ≈ 0.0909 * 0.8 ≈ 0.073.
        let marginal = lost.iter().filter(|&&l| l).count() as f64 / n as f64;
        assert!((0.05..0.10).contains(&marginal), "marginal loss {marginal}");
        let after_loss = lost.windows(2).filter(|w| w[0]).count();
        let both = lost.windows(2).filter(|w| w[0] && w[1]).count();
        let conditional = both as f64 / after_loss as f64;
        assert!(
            conditional > 3.0 * marginal,
            "loss not bursty: P(loss|loss) = {conditional:.3} vs marginal {marginal:.3}"
        );
        assert_eq!(
            tx.stats().dropped,
            lost.iter().filter(|&&l| l).count() as u64
        );
        assert!(tx.stats().burst_drops > 0);
        assert!(tx.stats().burst_drops <= tx.stats().dropped);
    }

    #[test]
    fn gilbert_elliott_good_state_loss_not_counted_as_burst() {
        // A chain pinned to the good state drops at loss_good and records
        // zero burst drops.
        let model = FaultModel::GilbertElliott {
            to_bad: 0.0,
            to_good: 1.0,
            loss_good: 0.3,
            loss_bad: 1.0,
        };
        let (mut tx, _rx) = link(model, 7);
        for f in frames(10_000) {
            tx.send(f);
        }
        let rate = tx.stats().dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
        assert_eq!(tx.stats().burst_drops, 0);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let (mut tx, rx) = link(FaultModel::Duplicate { prob: 1.0 }, 1);
        for f in frames(3) {
            tx.send(f);
        }
        let got = rx.drain();
        // Every frame arrives back-to-back with its duplicate.
        assert_eq!(
            got,
            vec![
                0u64.to_le_bytes().to_vec(),
                0u64.to_le_bytes().to_vec(),
                1u64.to_le_bytes().to_vec(),
                1u64.to_le_bytes().to_vec(),
                2u64.to_le_bytes().to_vec(),
                2u64.to_le_bytes().to_vec(),
            ]
        );
        assert_eq!(tx.stats().duplicated, 3);
        assert_eq!(tx.stats().delivered, 6);
        assert_eq!(tx.stats().dropped, 0);
    }

    #[test]
    fn duplicate_rate_close_to_nominal() {
        let (mut tx, rx) = link(FaultModel::Duplicate { prob: 0.25 }, 42);
        for f in frames(10_000) {
            tx.send(f);
        }
        let rate = tx.stats().duplicated as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed duplication {rate}");
        assert_eq!(
            rx.drain().len() as u64,
            tx.stats().sent + tx.stats().duplicated
        );
    }

    #[test]
    fn lossy_reorder_combines_both_faults() {
        let (mut tx, rx) = link(
            FaultModel::LossyReorder {
                loss: 0.2,
                prob: 0.5,
            },
            42,
        );
        for f in frames(10_000) {
            tx.send(f);
        }
        tx.flush();
        let stats = tx.stats();
        let loss_rate = stats.dropped as f64 / 10_000.0;
        assert!((loss_rate - 0.2).abs() < 0.02, "observed loss {loss_rate}");
        assert!(stats.reordered > 1_000, "reordering inactive");
        assert_eq!(stats.delivered, 10_000 - stats.dropped);
        assert_eq!(rx.drain().len() as u64, stats.delivered);
    }
}
