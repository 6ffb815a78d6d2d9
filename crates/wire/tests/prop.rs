//! Property-based tests for wire formats: every emit must parse back,
//! checksums must verify and must catch corruption.

use proptest::prelude::*;

use dta_wire::crc::{self, Crc16, Crc32};
use dta_wire::dart::{ChecksumWidth, MultiWriteRepr, SlotLayout};
use dta_wire::int::{HopMetadata, IntStack, MAX_HOPS};
use dta_wire::roce::{
    AethRepr, AtomicEthRepr, Bth, BthRepr, Opcode, Psn, RethRepr, RoceRepr, RoceView, Syndrome,
};
use dta_wire::{ethernet, ipv4, udp, FiveTuple};

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::RcRdmaWriteOnly),
        Just(Opcode::RcCompareSwap),
        Just(Opcode::RcFetchAdd),
        Just(Opcode::RcAcknowledge),
        Just(Opcode::RcAtomicAcknowledge),
        Just(Opcode::UcRdmaWriteOnly),
        Just(Opcode::UcSendOnly),
    ]
}

fn arb_bth() -> impl Strategy<Value = BthRepr> {
    (
        arb_opcode(),
        any::<bool>(),
        any::<bool>(),
        0u8..4,
        any::<u16>(),
        0u32..(1 << 24),
        any::<bool>(),
        0u32..(1 << 24),
    )
        .prop_map(
            |(
                opcode,
                solicited,
                migration,
                pad_count,
                partition_key,
                dest_qp,
                ack_request,
                psn,
            )| {
                BthRepr {
                    opcode,
                    solicited,
                    migration,
                    pad_count,
                    partition_key,
                    dest_qp,
                    ack_request,
                    psn,
                }
            },
        )
}

proptest! {
    #[test]
    fn bth_roundtrip(repr in arb_bth()) {
        let mut buf = [0u8; 12];
        repr.emit(&mut Bth::new_unchecked(&mut buf[..]));
        let parsed = BthRepr::parse(&Bth::new_checked(&buf[..]).unwrap()).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn reth_roundtrip(va in any::<u64>(), rkey in any::<u32>(), len in any::<u32>()) {
        let repr = RethRepr { virtual_addr: va, rkey, dma_len: len };
        let mut buf = [0u8; 16];
        repr.emit(&mut buf);
        prop_assert_eq!(RethRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn atomic_eth_roundtrip(va in any::<u64>(), rkey in any::<u32>(),
                            swap in any::<u64>(), cmp in any::<u64>()) {
        let repr = AtomicEthRepr { virtual_addr: va, rkey, swap_or_add: swap, compare: cmp };
        let mut buf = [0u8; 28];
        repr.emit(&mut buf);
        prop_assert_eq!(AtomicEthRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn aeth_roundtrip(msn in 0u32..(1 << 24), syndrome_idx in 0usize..3) {
        let syndrome = [Syndrome::Ack, Syndrome::NakSequenceError, Syndrome::NakRemoteAccessError][syndrome_idx];
        let repr = AethRepr { syndrome, msn };
        let mut buf = [0u8; 4];
        repr.emit(&mut buf);
        prop_assert_eq!(AethRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn write_packet_roundtrip(bth in arb_bth(), va in any::<u64>(), rkey in any::<u32>(),
                              payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut bth = bth;
        bth.opcode = Opcode::UcRdmaWriteOnly;
        bth.pad_count = ((4 - payload.len() % 4) % 4) as u8;
        let repr = RoceRepr::Write {
            bth,
            reth: RethRepr { virtual_addr: va, rkey, dma_len: payload.len() as u32 },
            payload,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        prop_assert_eq!(RoceRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn ipv4_checksum_detects_any_single_byte_corruption(
        src in any::<[u8; 4]>(), dst in any::<[u8; 4]>(), ttl in any::<u8>(),
        tos in any::<u8>(), payload_len in 0usize..64, corrupt_at in 0usize..20,
        corrupt_with in 1u8..=255,
    ) {
        let repr = ipv4::Repr {
            src_addr: ipv4::Address(src),
            dst_addr: ipv4::Address(dst),
            protocol: ipv4::Protocol::Udp,
            payload_len,
            ttl,
            tos,
        };
        let mut bytes = vec![0u8; 20 + payload_len];
        repr.emit(&mut ipv4::Packet::new_unchecked(&mut bytes[..]));
        let packet = ipv4::Packet::new_checked(&bytes[..]).unwrap();
        prop_assert!(packet.verify_checksum());
        prop_assert_eq!(ipv4::Repr::parse(&packet).unwrap(), repr);

        // A single corrupted header byte must break the checksum (unless
        // it breaks parsing outright).
        bytes[corrupt_at] ^= corrupt_with;
        if let Ok(packet) = ipv4::Packet::new_checked(&bytes[..]) {
            prop_assert!(!packet.verify_checksum());
        }
    }

    #[test]
    fn udp_checksum_roundtrip(src_port in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let src = ipv4::Address([10, 0, 0, 1]);
        let dst = ipv4::Address([10, 0, 0, 2]);
        let repr = udp::Repr { src_port, dst_port: udp::ROCEV2_PORT, payload_len: payload.len() };
        let mut bytes = vec![0u8; 8 + payload.len()];
        let mut dgram = udp::Datagram::new_unchecked(&mut bytes[..]);
        repr.emit(&mut dgram);
        dgram.payload_mut().copy_from_slice(&payload);
        dgram.fill_checksum(src, dst);
        let dgram = udp::Datagram::new_checked(&bytes[..]).unwrap();
        prop_assert!(dgram.verify_checksum(src, dst));
        prop_assert_eq!(dgram.payload(), &payload[..]);
    }

    #[test]
    fn five_tuple_roundtrip(src in any::<[u8; 4]>(), dst in any::<[u8; 4]>(),
                            sp in any::<u16>(), dp in any::<u16>(), proto in any::<u8>()) {
        let t = FiveTuple {
            src_ip: ipv4::Address(src),
            dst_ip: ipv4::Address(dst),
            src_port: sp,
            dst_port: dp,
            protocol: proto,
        };
        prop_assert_eq!(FiveTuple::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn slot_layout_roundtrip(checksum in any::<u32>(), value in proptest::collection::vec(any::<u8>(), 1..64),
                             width_idx in 0usize..4) {
        let width = [ChecksumWidth::None, ChecksumWidth::B8, ChecksumWidth::B16, ChecksumWidth::B32][width_idx];
        let layout = SlotLayout { checksum: width, value_len: value.len() };
        let mut slot = vec![0u8; layout.slot_len()];
        layout.encode(checksum, &value, &mut slot).unwrap();
        let (stored, decoded) = layout.decode(&slot).unwrap();
        prop_assert_eq!(stored, width.truncate(checksum));
        prop_assert_eq!(decoded, &value[..]);
    }

    #[test]
    fn multiwrite_roundtrip(addresses in proptest::collection::vec(any::<u64>(), 1..=255),
                            payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let repr = MultiWriteRepr { addresses, payload };
        let bytes = repr.to_bytes().unwrap();
        prop_assert_eq!(MultiWriteRepr::parse(&bytes).unwrap(), repr);
    }

    #[test]
    fn int_stack_roundtrip(ids in proptest::collection::vec(any::<u32>(), 0..=MAX_HOPS)) {
        let mut stack = IntStack::new();
        for &id in &ids {
            stack.push(HopMetadata { switch_id: id }).unwrap();
        }
        let bytes = stack.to_value_bytes();
        prop_assert_eq!(IntStack::from_value_bytes(&bytes).unwrap(), stack);
    }

    #[test]
    fn icrc_invariant_under_variant_field_mutation(
        payload in proptest::collection::vec(any::<u8>(), 4..64),
        new_ttl in any::<u8>(), new_tos in any::<u8>(),
    ) {
        let payload_len = payload.len() - payload.len() % 4;
        let payload = payload[..payload_len].to_vec();
        let ip_repr = ipv4::Repr {
            src_addr: ipv4::Address([10, 0, 0, 1]),
            dst_addr: ipv4::Address([10, 0, 0, 2]),
            protocol: ipv4::Protocol::Udp,
            payload_len: 8 + 28 + payload.len() + 4,
            ttl: 64,
            tos: 0,
        };
        let mut ip_bytes = vec![0u8; 20 + ip_repr.payload_len];
        ip_repr.emit(&mut ipv4::Packet::new_unchecked(&mut ip_bytes[..]));
        let udp_repr = udp::Repr { src_port: 7, dst_port: udp::ROCEV2_PORT, payload_len: 28 + payload.len() + 4 };
        let mut udp_bytes = [0u8; 8];
        udp_repr.emit(&mut udp::Datagram::new_unchecked(&mut udp_bytes[..]));

        let packet = RoceRepr::Write {
            bth: BthRepr {
                opcode: Opcode::UcRdmaWriteOnly,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: 5,
                ack_request: false,
                psn: 9,
            },
            reth: RethRepr { virtual_addr: 0, rkey: 1, dma_len: payload.len() as u32 },
            payload,
        };
        let udp_payload = packet.to_udp_payload(&ip_bytes[..20], &udp_bytes);
        prop_assert!(dta_wire::roce::icrc::verify(&ip_bytes[..20], &udp_bytes, &udp_payload).is_ok());

        // Mutate every variant field: iCRC must still verify.
        let mut mutated_ip = ip_bytes[..20].to_vec();
        mutated_ip[1] = new_tos;
        mutated_ip[8] = new_ttl;
        mutated_ip[10] = 0xAA;
        mutated_ip[11] = 0xBB;
        let mut mutated_udp = udp_bytes;
        mutated_udp[6] = 0xCC;
        mutated_udp[7] = 0xDD;
        prop_assert!(dta_wire::roce::icrc::verify(&mutated_ip, &mutated_udp, &udp_payload).is_ok());
    }

    #[test]
    fn icrc_detects_invariant_field_corruption(
        corrupt_at_back in 5usize..24, corrupt_with in 1u8..=255,
    ) {
        let ip_repr = ipv4::Repr {
            src_addr: ipv4::Address([10, 0, 0, 1]),
            dst_addr: ipv4::Address([10, 0, 0, 2]),
            protocol: ipv4::Protocol::Udp,
            payload_len: 64,
            ttl: 64,
            tos: 0,
        };
        let mut ip_bytes = [0u8; 20 + 64];
        ip_repr.emit(&mut ipv4::Packet::new_unchecked(&mut ip_bytes[..]));
        let udp_repr = udp::Repr { src_port: 7, dst_port: udp::ROCEV2_PORT, payload_len: 56 };
        let mut udp_bytes = [0u8; 8];
        udp_repr.emit(&mut udp::Datagram::new_unchecked(&mut udp_bytes[..]));
        let packet = RoceRepr::Write {
            bth: BthRepr {
                opcode: Opcode::UcRdmaWriteOnly,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: 5,
                ack_request: false,
                psn: 9,
            },
            reth: RethRepr { virtual_addr: 0x1000, rkey: 1, dma_len: 20 },
            payload: vec![0x5A; 20],
        };
        let mut udp_payload = packet.to_udp_payload(&ip_bytes[..20], &udp_bytes);
        // Corrupt a byte of the transport packet (skipping resv8a at
        // index 4, which is variant), not the trailer.
        let idx = udp_payload.len() - 4 - corrupt_at_back;
        udp_payload[idx] ^= corrupt_with;
        prop_assert!(dta_wire::roce::icrc::verify(&ip_bytes[..20], &udp_bytes, &udp_payload).is_err());
    }

    #[test]
    fn psn_distance_is_inverse_of_add(base in 0u32..(1 << 24), delta in 0u32..(1 << 23)) {
        let a = Psn::new(base);
        let b = a.add(delta);
        prop_assert_eq!(b.distance(a), delta as i32);
        prop_assert_eq!(a.distance(b), -(delta as i32));
    }

    #[test]
    fn ethernet_roundtrip(src in any::<[u8; 6]>(), dst in any::<[u8; 6]>(), et in any::<u16>()) {
        let repr = ethernet::Repr {
            src_addr: ethernet::Address(src),
            dst_addr: ethernet::Address(dst),
            ethertype: ethernet::EtherType::from(et),
        };
        let mut bytes = [0u8; 14];
        repr.emit(&mut ethernet::Frame::new_unchecked(&mut bytes[..]));
        let parsed = ethernet::Repr::parse(&ethernet::Frame::new_checked(&bytes[..]).unwrap()).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn crc32_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..256),
                                        split in 0usize..256) {
        let engine = dta_wire::crc::Crc32::ieee();
        let split = split.min(data.len());
        let mut digest = engine.digest();
        digest.update(&data[..split]);
        digest.update(&data[split..]);
        prop_assert_eq!(digest.finalize(), engine.checksum(&data));
    }
}

proptest! {
    /// Every parser is total: arbitrary bytes must yield Ok or Err,
    /// never a panic (the NIC feeds parsers straight off the wire).
    #[test]
    fn parsers_are_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ethernet::Frame::new_checked(&bytes[..]).map(|f| (f.src_addr(), f.ethertype()));
        let _ = ipv4::Packet::new_checked(&bytes[..]).map(|p| (p.src_addr(), p.verify_checksum()));
        let _ = udp::Datagram::new_checked(&bytes[..]).map(|d| (d.src_port(), d.len()));
        let _ = RoceRepr::parse(&bytes);
        let _ = RethRepr::parse(&bytes);
        let _ = AtomicEthRepr::parse(&bytes);
        let _ = AethRepr::parse(&bytes);
        let _ = MultiWriteRepr::parse(&bytes);
        let _ = IntStack::from_value_bytes(&bytes);
        let _ = FiveTuple::from_bytes(&bytes);
        let _ = dta_wire::int::ReportHeader::parse(&bytes);
        let _ = dta_wire::dissect::dissect(&bytes);
    }

    /// Rich-INT parsing is total for every instruction profile.
    #[test]
    fn rich_int_parse_total(bytes in proptest::collection::vec(any::<u8>(), 0..128),
                            bits in any::<u16>()) {
        let instructions = dta_wire::int::Instructions::from_bits(bits);
        let _ = dta_wire::int::RichIntStack::from_value_bytes(instructions, &bytes);
        let _ = dta_wire::int::RichHopMetadata::parse(instructions, &bytes);
    }
}

/// Bit-at-a-time reflected CRC-32 (`init = xorout = 0xFFFFFFFF`): the
/// definition the table-driven engines must reproduce.
fn crc32_bitwise(poly_reflected: u32, data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly_reflected
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Bit-at-a-time reflected CRC-16 (`init = xorout = 0`).
fn crc16_bitwise(poly_reflected: u16, data: &[u8]) -> u16 {
    let mut crc = 0u16;
    for &byte in data {
        crc ^= u16::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly_reflected
            } else {
                crc >> 1
            };
        }
    }
    crc
}

/// A transport packet of `bth.opcode`'s shape, payload-carrying or not.
fn packet_for(bth: BthRepr, va: u64, rkey: u32, word: u64, payload: Vec<u8>) -> RoceRepr {
    let atomic = AtomicEthRepr {
        virtual_addr: va,
        rkey,
        swap_or_add: word,
        compare: !word,
    };
    match bth.opcode {
        op if op.has_reth() => RoceRepr::Write {
            bth,
            reth: RethRepr {
                virtual_addr: va,
                rkey,
                dma_len: payload.len() as u32,
            },
            payload,
        },
        Opcode::RcFetchAdd => RoceRepr::FetchAdd { bth, atomic },
        Opcode::RcCompareSwap => RoceRepr::CompareSwap { bth, atomic },
        op if op.has_aeth() => RoceRepr::Ack {
            bth,
            aeth: AethRepr {
                syndrome: Syndrome::NakSequenceError,
                msn: (word as u32) & 0x00FF_FFFF,
            },
        },
        _ => RoceRepr::Send { bth, payload },
    }
}

proptest! {
    /// Every `static` table-driven engine equals the bit-at-a-time
    /// definition of its polynomial.
    #[test]
    fn static_crc_engines_equal_bitwise_reference(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        for (engine, poly) in [
            (Crc32::ieee(), crc::CRC32_IEEE),
            (Crc32::castagnoli(), crc::CRC32_CASTAGNOLI),
            (Crc32::koopman(), crc::CRC32_KOOPMAN),
            (Crc32::q(), crc::CRC32_Q),
        ] {
            prop_assert_eq!(engine.checksum(&data), crc32_bitwise(poly, &data));
        }
        prop_assert_eq!(Crc16::arc().checksum(&data), crc16_bitwise(crc::CRC16_ARC, &data));
        prop_assert_eq!(Crc16::kermit().checksum(&data), crc16_bitwise(crc::CRC16_CCITT, &data));
    }

    /// The borrowed view parses every opcode exactly as the owned
    /// representation was emitted, with its payload pointing into the
    /// receive buffer rather than copied.
    #[test]
    fn roce_view_parses_every_opcode_like_roce_repr(
        bth in arb_bth(), va in any::<u64>(), rkey in any::<u32>(), word in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let repr = packet_for(bth, va, rkey, word, payload);
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        let view = RoceView::parse(&buf).unwrap();
        prop_assert_eq!(view.bth(), repr.bth());
        prop_assert_eq!(&view.to_repr(), &repr);
        prop_assert_eq!(RoceRepr::parse(&buf).unwrap(), repr);
        if let RoceView::Write { payload, .. } | RoceView::Send { payload, .. } = view {
            let range = buf.as_ptr_range();
            prop_assert!(payload.is_empty() || range.contains(&payload.as_ptr()), "payload was copied");
        }
    }

    /// On arbitrary bytes the view and the owned parse agree, errors
    /// included.
    #[test]
    fn roce_view_agrees_with_roce_repr_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        prop_assert_eq!(RoceView::parse(&bytes).map(|v| v.to_repr()), RoceRepr::parse(&bytes));
    }
}
