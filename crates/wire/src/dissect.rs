//! Human-readable frame dissection (a tcpdump for DART traffic).
//!
//! [`dissect`] walks a frame layer by layer — Ethernet, IPv4, UDP,
//! RoCEv2 transport, DART payload — and renders one line per layer,
//! stopping gracefully at the first undecodable layer. A debugging aid:
//! call it when a golden test fails and you need to see *which* byte
//! diverged.

use crate::{dart, ethernet, ipv4, roce, udp};

/// Render a one-line-per-layer description of `frame`.
pub fn dissect(frame: &[u8]) -> String {
    let mut out = String::new();
    let eth = match ethernet::Frame::new_checked(frame) {
        Ok(eth) => eth,
        Err(e) => return format!("  [not ethernet: {e}] {} bytes\n", frame.len()),
    };
    out.push_str(&format!(
        "  eth  {} -> {} type {:?}\n",
        eth.src_addr(),
        eth.dst_addr(),
        eth.ethertype()
    ));
    if eth.ethertype() != ethernet::EtherType::Ipv4 {
        return out;
    }
    let ip = match ipv4::Packet::new_checked(eth.payload()) {
        Ok(ip) => ip,
        Err(e) => {
            out.push_str(&format!("  [not ipv4: {e}]\n"));
            return out;
        }
    };
    out.push_str(&format!(
        "  ip   {} -> {} ttl {} len {} csum {}\n",
        ip.src_addr(),
        ip.dst_addr(),
        ip.ttl(),
        ip.total_len(),
        if ip.verify_checksum() { "ok" } else { "BAD" }
    ));
    if ip.protocol() != ipv4::Protocol::Udp {
        return out;
    }
    let dgram = match udp::Datagram::new_checked(ip.payload()) {
        Ok(d) => d,
        Err(e) => {
            out.push_str(&format!("  [not udp: {e}]\n"));
            return out;
        }
    };
    out.push_str(&format!(
        "  udp  {} -> {} len {}\n",
        dgram.src_port(),
        dgram.dst_port(),
        dgram.len()
    ));
    if dgram.dst_port() != udp::ROCEV2_PORT {
        return out;
    }

    // RoCEv2: verify iCRC, then decode the transport packet.
    let udp_bytes = ip.payload();
    let icrc_status = match roce::icrc::verify(
        ip.header_bytes(),
        &udp_bytes[..udp::HEADER_LEN],
        dgram.payload(),
    ) {
        Ok(()) => "ok",
        Err(crate::Error::Checksum) => "BAD",
        Err(_) => "short",
    };
    let payload = dgram.payload();
    if payload.len() < roce::BTH_LEN + roce::ICRC_LEN {
        out.push_str("  [roce: truncated]\n");
        return out;
    }
    let body = &payload[..payload.len() - roce::ICRC_LEN];
    match roce::RoceRepr::parse(body) {
        Ok(roce::RoceRepr::Write { bth, reth, payload }) => {
            out.push_str(&format!(
                "  roce WRITE qp {:#x} psn {} icrc {}\n  reth va {:#x} rkey {:#x} len {}\n",
                bth.dest_qp, bth.psn, icrc_status, reth.virtual_addr, reth.rkey, reth.dma_len
            ));
            // A DART report payload: checksum ‖ value (assume the
            // Figure 4 layout when sizes match).
            if payload.len() == 24 {
                if let Ok((checksum, value)) = dart::SlotLayout::INT_PATH_TRACING.decode(&payload) {
                    out.push_str(&format!(
                        "  dart checksum {checksum:#010x} value {}\n",
                        hex(&value[..8.min(value.len())])
                    ));
                }
            }
        }
        Ok(roce::RoceRepr::FetchAdd { bth, atomic }) => out.push_str(&format!(
            "  roce FETCH_ADD qp {:#x} psn {} icrc {} va {:#x} add {}\n",
            bth.dest_qp, bth.psn, icrc_status, atomic.virtual_addr, atomic.swap_or_add
        )),
        Ok(roce::RoceRepr::CompareSwap { bth, atomic }) => out.push_str(&format!(
            "  roce CMP_SWAP qp {:#x} psn {} icrc {} va {:#x} cmp {} swap {}\n",
            bth.dest_qp,
            bth.psn,
            icrc_status,
            atomic.virtual_addr,
            atomic.compare,
            atomic.swap_or_add
        )),
        Ok(roce::RoceRepr::Ack { bth, aeth }) => out.push_str(&format!(
            "  roce ACK qp {:#x} psn {} icrc {} syndrome {:?}\n",
            bth.dest_qp, bth.psn, icrc_status, aeth.syndrome
        )),
        Ok(roce::RoceRepr::Send { bth, payload }) => out.push_str(&format!(
            "  roce SEND qp {:#x} psn {} icrc {} payload {} B\n",
            bth.dest_qp,
            bth.psn,
            icrc_status,
            payload.len()
        )),
        Err(e) => out.push_str(&format!("  [roce: {e}]\n")),
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + 1);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s.push('…');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roce::{BthRepr, Opcode, RethRepr, RoceRepr};

    fn write_frame() -> Vec<u8> {
        // Build via the same layered emission used everywhere else.
        let packet = RoceRepr::Write {
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
                virtual_addr: 0x4000_0000,
                rkey: 0x1000,
                dma_len: 24,
            },
            payload: vec![0xAB; 24],
        };
        let transport_len = packet.buffer_len() + roce::ICRC_LEN;
        let total = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN + transport_len;
        let mut frame = vec![0u8; total];
        ethernet::Repr {
            src_addr: ethernet::Address([2, 0, 0, 0, 0, 9]),
            dst_addr: ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethertype: ethernet::EtherType::Ipv4,
        }
        .emit(&mut ethernet::Frame::new_unchecked(&mut frame[..]));
        let mut eth = ethernet::Frame::new_unchecked(&mut frame[..]);
        ipv4::Repr {
            src_addr: ipv4::Address([10, 0, 0, 9]),
            dst_addr: ipv4::Address([10, 0, 0, 1]),
            protocol: ipv4::Protocol::Udp,
            payload_len: udp::HEADER_LEN + transport_len,
            ttl: 64,
            tos: 0,
        }
        .emit(&mut ipv4::Packet::new_unchecked(eth.payload_mut()));
        let mut ip = ipv4::Packet::new_unchecked(eth.payload_mut());
        udp::Repr {
            src_port: 49152,
            dst_port: udp::ROCEV2_PORT,
            payload_len: transport_len,
        }
        .emit(&mut udp::Datagram::new_unchecked(ip.payload_mut()));
        let roce_start = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;
        packet.emit(&mut frame[roce_start..roce_start + packet.buffer_len()]);
        let (head, tail) = frame.split_at_mut(roce_start);
        let crc = roce::icrc::compute(
            &head[ethernet::HEADER_LEN..ethernet::HEADER_LEN + ipv4::HEADER_LEN],
            &head[ethernet::HEADER_LEN + ipv4::HEADER_LEN..],
            &tail[..packet.buffer_len()],
        );
        tail[packet.buffer_len()..].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    #[test]
    fn dissects_a_full_dart_report() {
        let text = dissect(&write_frame());
        assert!(text.contains("eth  02:00:00:00:00:09 -> 02:00:00:00:00:01"));
        assert!(text.contains("ip   10.0.0.9 -> 10.0.0.1 ttl 64"));
        assert!(text.contains("csum ok"));
        assert!(text.contains("udp  49152 -> 4791"));
        assert!(text.contains("roce WRITE qp 0x123 psn 42 icrc ok"));
        assert!(text.contains("reth va 0x40000000 rkey 0x1000 len 24"));
        assert!(text.contains("dart checksum"));
    }

    #[test]
    fn flags_corruption() {
        let mut frame = write_frame();
        let n = frame.len();
        frame[n - 10] ^= 0x01; // payload bit, stale iCRC
        let text = dissect(&frame);
        assert!(text.contains("icrc BAD"), "{text}");
    }

    #[test]
    fn degrades_gracefully_on_garbage() {
        assert!(dissect(&[0u8; 3]).contains("not ethernet"));
        let text = dissect(&[0u8; 64]);
        // Zeroed frame: parses as ethernet with unknown ethertype.
        assert!(text.contains("eth"));
    }
}
