//! The switch deparser: the single P4-style header-stack emitter.
//!
//! Every RoCEv2 stream a switch originates — Key-Write report WRITEs,
//! Append ring WRITEs, Key-Increment FETCH_ADDs, native
//! multi-write SENDs — leaves through [`deparse_into`], which emits
//! Ethernet ‖ IPv4 ‖ UDP(4791) ‖ transport packet ‖ iCRC exactly the way
//! the egress deparser stage of the P4 program does. It must stay
//! byte-identical to the NIC-side reference builder
//! ([`dta_rdma::nic::build_roce_frame`]); the golden test below pins
//! that equivalence along with the iCRC it produces.

use dta_wire::roce::{self, RoceRepr};
use dta_wire::{ethernet, ipv4, udp};

/// Emit the full frame for one transport packet from `src` to `dst`.
pub fn deparse_roce_frame(
    src_mac: ethernet::Address,
    dst_mac: ethernet::Address,
    src_ip: ipv4::Address,
    dst_ip: ipv4::Address,
    src_port: u16,
    packet: &RoceRepr,
) -> Vec<u8> {
    let mut frame = vec![0u8; frame_len(packet.buffer_len())];
    deparse_into(
        &mut frame,
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        |transport| packet.emit(transport),
    );
    frame
}

/// Bytes of a complete frame around a `transport_len`-byte transport
/// packet: Ethernet ‖ IPv4 ‖ UDP ‖ transport ‖ iCRC.
pub const fn frame_len(transport_len: usize) -> usize {
    ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN + transport_len + roce::ICRC_LEN
}

/// Emit the header stack and iCRC into `frame`, a zeroed buffer of
/// [`frame_len`]`(transport_len)` bytes, around the transport packet
/// `emit_transport` writes in place — so a report is encoded straight
/// into whatever buffer carries it (a frame arena on the hot path).
pub fn deparse_into(
    frame: &mut [u8],
    src_mac: ethernet::Address,
    dst_mac: ethernet::Address,
    src_ip: ipv4::Address,
    dst_ip: ipv4::Address,
    src_port: u16,
    emit_transport: impl FnOnce(&mut [u8]),
) {
    let ip_start = ethernet::HEADER_LEN;
    let udp_start = ip_start + ipv4::HEADER_LEN;
    let roce_start = udp_start + udp::HEADER_LEN;
    let udp_payload_len = frame.len() - roce_start;
    let transport_len = udp_payload_len - roce::ICRC_LEN;

    let eth_repr = ethernet::Repr {
        src_addr: src_mac,
        dst_addr: dst_mac,
        ethertype: ethernet::EtherType::Ipv4,
    };
    let ip_repr = ipv4::Repr {
        src_addr: src_ip,
        dst_addr: dst_ip,
        protocol: ipv4::Protocol::Udp,
        payload_len: udp::HEADER_LEN + udp_payload_len,
        ttl: 64,
        tos: 0,
    };
    let udp_repr = udp::Repr {
        src_port,
        dst_port: udp::ROCEV2_PORT,
        payload_len: udp_payload_len,
    };

    let mut eth = ethernet::Frame::new_unchecked(&mut frame[..]);
    eth_repr.emit(&mut eth);
    let mut ip = ipv4::Packet::new_unchecked(eth.payload_mut());
    ip_repr.emit(&mut ip);
    let mut dgram = udp::Datagram::new_unchecked(ip.payload_mut());
    udp_repr.emit(&mut dgram);

    emit_transport(&mut frame[roce_start..roce_start + transport_len]);

    // iCRC via the CRC-32 extern.
    let (head, tail) = frame.split_at_mut(roce_start);
    let crc = roce::icrc::compute(
        &head[ip_start..ip_start + ipv4::HEADER_LEN],
        &head[udp_start..udp_start + udp::HEADER_LEN],
        &tail[..transport_len],
    );
    tail[transport_len..transport_len + roce::ICRC_LEN].copy_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_wire::roce::{BthRepr, Opcode, RethRepr};

    fn sample_packet() -> RoceRepr {
        RoceRepr::Write {
            bth: BthRepr {
                opcode: Opcode::UcRdmaWriteOnly,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: 0x123,
                ack_request: false,
                psn: 42,
            },
            reth: RethRepr {
                virtual_addr: 0x1000,
                rkey: 0x2000,
                dma_len: 8,
            },
            payload: b"deadbeef".to_vec(),
        }
    }

    #[test]
    fn matches_nic_reference_builder() {
        let src_mac = ethernet::Address([0x02, 0, 0, 0, 0, 1]);
        let dst_mac = ethernet::Address([0x02, 0, 0, 0, 0, 2]);
        let src_ip = ipv4::Address([10, 0, 0, 1]);
        let dst_ip = ipv4::Address([10, 0, 0, 2]);
        let packet = sample_packet();
        let ours = deparse_roce_frame(src_mac, dst_mac, src_ip, dst_ip, 49152, &packet);
        let reference =
            dta_rdma::nic::build_roce_frame(src_mac, dst_mac, src_ip, dst_ip, 49152, &packet);
        assert_eq!(ours, reference);
    }

    #[test]
    fn icrc_is_pinned() {
        // Golden value: any change to the header stack or the CRC extern
        // configuration (polynomial, masking, byte order) shows up here.
        let frame = deparse_roce_frame(
            ethernet::Address([0x02, 0, 0, 0, 0, 1]),
            ethernet::Address([0x02, 0, 0, 0, 0, 2]),
            ipv4::Address([10, 0, 0, 1]),
            ipv4::Address([10, 0, 0, 2]),
            49152,
            &sample_packet(),
        );
        let icrc = u32::from_le_bytes(frame[frame.len() - 4..].try_into().unwrap());
        assert_eq!(icrc, 0xA4C6_276A, "iCRC drifted: {icrc:#010X}");
    }
}
