//! Property-based tests for the RDMA substrate: memory safety of the
//! DMA path and robustness of the NIC parser against arbitrary input.

use proptest::prelude::*;

use dta_rdma::link::{link, FaultModel, FrameArena};
use dta_rdma::mr::{AccessFlags, AccessKind, MemoryRegion};
use dta_rdma::nic::{RNic, RxAction};
use dta_rdma::qp::{QueuePair, Transport};
use dta_wire::roce::Psn;
use dta_wire::{ethernet, ipv4};

/// Every fault model, with its probabilities drawn from `p` and `q`.
fn fault_models(p: f64, q: f64, n: u64) -> [FaultModel; 7] {
    [
        FaultModel::Perfect,
        FaultModel::Bernoulli { loss: p },
        FaultModel::DropNth { n },
        FaultModel::Reorder { prob: p },
        FaultModel::GilbertElliott {
            to_bad: p,
            to_good: q,
            loss_good: q * p,
            loss_bad: q,
        },
        FaultModel::Duplicate { prob: p },
        FaultModel::LossyReorder {
            loss: q * p,
            prob: p,
        },
    ]
}

proptest! {
    /// The arena path (batches through `transmit`/`flush_into`) and the
    /// owned-frame path (`send`/`try_recv`) are one fault
    /// implementation: same frames, same order, same stats, for every
    /// model, whatever the batching and flush points.
    #[test]
    fn arena_and_channel_paths_deliver_identically(
        seed in any::<u64>(),
        p in 0.0f64..1.0,
        q in 0.0f64..1.0,
        n in 0u64..6,
        lens in proptest::collection::vec(1usize..120, 1..60),
        batches in proptest::collection::vec(1usize..8, 1..60),
        flushes in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        for model in fault_models(p, q, n) {
            let (mut tx, rx) = link(model, seed);
            let (mut arena_tx, _arena_rx) = link(model, seed);
            let mut arena = FrameArena::new();
            let mut via_channel = Vec::new();
            let mut via_arena = Vec::new();
            let mut next = 0;
            for (b, &size) in batches.iter().cycle().enumerate() {
                if next == frames.len() {
                    break;
                }
                let batch = &frames[next..(next + size).min(frames.len())];
                next += batch.len();
                let flush = flushes[b % flushes.len()];
                for frame in batch {
                    tx.send(frame.clone());
                    arena.push(frame);
                }
                arena_tx.transmit(&mut arena);
                if flush {
                    tx.flush();
                    arena_tx.flush_into(&mut arena);
                }
                via_channel.extend(rx.drain());
                via_arena.extend(arena.iter().map(<[u8]>::to_vec));
                arena.clear();
            }
            tx.flush();
            arena_tx.flush_into(&mut arena);
            via_channel.extend(rx.drain());
            via_arena.extend(arena.iter().map(<[u8]>::to_vec));
            prop_assert_eq!(&via_arena, &via_channel, "{:?}", model);
            prop_assert_eq!(arena_tx.stats(), tx.stats(), "{:?}", model);
            prop_assert_eq!(tx.stats().delivered, via_channel.len() as u64);
        }
    }

    /// check_access answering Ok ⇔ write succeeding, for arbitrary
    /// (va, len) against an arbitrary region.
    #[test]
    fn access_check_is_consistent_with_write(
        base in 0u64..1_000_000,
        region_len in 1usize..4096,
        va in 0u64..1_010_000,
        write_len in 0usize..256,
    ) {
        let mr = MemoryRegion::new(base, region_len, 1, AccessFlags::ALL);
        let allowed = mr.check_access(va, write_len, AccessKind::Write).is_ok();
        let data = vec![0xAB; write_len];
        prop_assert_eq!(mr.write(va, &data).is_ok(), allowed);
        if allowed {
            prop_assert_eq!(mr.read(va, write_len).unwrap(), data);
        }
    }

    /// Atomics require 8-byte alignment and in-bounds targets; fetch_add
    /// is numerically exact for arbitrary addends.
    #[test]
    fn fetch_add_exactness(addends in proptest::collection::vec(any::<u64>(), 1..16)) {
        let mr = MemoryRegion::new(0x1000, 64, 1, AccessFlags::ALL);
        let mut expected = 0u64;
        for &a in &addends {
            let old = mr.fetch_add(0x1008, a).unwrap();
            prop_assert_eq!(old, expected);
            expected = expected.wrapping_add(a);
        }
        prop_assert_eq!(mr.read(0x1008, 8).unwrap(), expected.to_be_bytes());
    }

    /// The NIC never panics on arbitrary bytes, and garbage never lands
    /// in memory.
    #[test]
    fn nic_is_total_on_garbage(frame in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut nic = RNic::new(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ipv4::Address([10, 0, 0, 2]),
        );
        nic.register_mr(MemoryRegion::new(0, 4096, 0x1000, AccessFlags::DART_COLLECTOR)).unwrap();
        let mut qp = QueuePair::new(0x100, Transport::Uc);
        qp.ready(Psn::new(0));
        nic.create_qp(qp).unwrap();

        let outcome = nic.handle_frame(&frame);
        // Random bytes cannot produce a valid iCRC'd RoCEv2 frame.
        prop_assert!(matches!(outcome.action, RxAction::Dropped(_)));
        nic.mr(0x1000).unwrap().handle().with(|mem| {
            prop_assert!(mem.iter().all(|&b| b == 0), "garbage reached memory");
            Ok(())
        })?;
    }

    /// Bit-flipping any byte of a valid frame never lands corrupted data:
    /// either the frame is dropped, or (for flips confined to variant
    /// fields) the original payload lands intact.
    #[test]
    fn corrupted_frames_never_corrupt_memory(corrupt_at in 0usize..110, corrupt_with in 1u8..=255) {
        use dta_wire::roce::{BthRepr, Opcode, RethRepr, RoceRepr};
        let nic_mac = ethernet::Address([2, 0, 0, 0, 0, 1]);
        let nic_ip = ipv4::Address([10, 0, 0, 2]);
        let mut nic = RNic::new(nic_mac, nic_ip);
        nic.register_mr(MemoryRegion::new(0, 4096, 0x1000, AccessFlags::DART_COLLECTOR)).unwrap();
        let mut qp = QueuePair::new(0x100, Transport::Uc);
        qp.ready(Psn::new(0));
        nic.create_qp(qp).unwrap();

        let payload = vec![0x77u8; 24];
        let packet = RoceRepr::Write {
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
            reth: RethRepr { virtual_addr: 0x100, rkey: 0x1000, dma_len: 24 },
            payload: payload.clone(),
        };
        let mut frame = dta_rdma::nic::build_roce_frame(
            ethernet::Address([2, 0, 0, 0, 0, 9]),
            nic_mac,
            ipv4::Address([10, 0, 0, 9]),
            nic_ip,
            49152,
            &packet,
        );
        let idx = corrupt_at.min(frame.len() - 1);
        frame[idx] ^= corrupt_with;

        let outcome = nic.handle_frame(&frame);
        nic.mr(0x1000).unwrap().handle().with(|mem| {
            match outcome.action {
                RxAction::WriteExecuted { .. } => {
                    // Only variant-field flips can be accepted; the
                    // payload must then be exactly the original.
                    prop_assert_eq!(&mem[0x100..0x100 + 24], &payload[..]);
                }
                _ => {
                    prop_assert!(mem.iter().all(|&b| b == 0), "dropped frame wrote memory");
                }
            }
            Ok(())
        })?;
    }

    /// UC PSN processing: sequences with arbitrary gaps are all accepted
    /// and gap accounting sums correctly.
    #[test]
    fn uc_gap_accounting(gaps in proptest::collection::vec(0u32..50, 1..20)) {
        let mut qp = QueuePair::new(1, Transport::Uc);
        qp.ready(Psn::new(0));
        let mut psn = Psn::new(0);
        let mut expected_gaps = 0u64;
        for &g in &gaps {
            psn = psn.add(g);
            let verdict = qp.receive_psn(psn);
            expected_gaps += u64::from(g);
            prop_assert!(!matches!(verdict, dta_rdma::qp::PsnVerdict::Duplicate));
            psn = psn.next();
        }
        prop_assert_eq!(qp.counters().psn_gaps, expected_gaps);
    }
}
