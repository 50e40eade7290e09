//! tcpdump-style rendering of captured packets (the `capture-dump` CLI's
//! engine, kept in the library so tests can cover the formatting).

use core::fmt::Write as _;

use mpw_tcp::wire::{parse_any, tcp_flags, MptcpOption, Packet, TcpOption};

use crate::pcapng::PcapFile;

/// Render one packet as a tcpdump-like one-liner.
///
/// `18.123456789 path0:down@client 192.168.1.1:8080 > 10.0.1.2:40000:
/// Flags [P.], seq 7001, ack 101, win 512, length 1400
/// [dss dack 9000 map 5600:7001 len 1400]`
pub fn format_packet(iface: &str, at_nanos: u64, data: &[u8], comment: Option<&str>) -> String {
    let mut out = String::new();
    let secs = at_nanos / 1_000_000_000;
    let frac = at_nanos % 1_000_000_000;
    let _ = write!(out, "{secs}.{frac:09} {iface} ");
    match parse_any(data) {
        Ok(Packet::Tcp(ip, seg)) => {
            let _ = write!(
                out,
                "{}:{} > {}:{}: Flags {}, seq {}, ack {}, win {}, length {}",
                ip.src,
                seg.src_port,
                ip.dst,
                seg.dst_port,
                tcp_flags::tcpdump_str(seg.flags),
                seg.seq.0,
                seg.ack.0,
                seg.window,
                seg.payload.len(),
            );
            for opt in &seg.options {
                if let TcpOption::Mptcp(m) = opt {
                    let _ = write!(out, " {}", format_mptcp(m));
                }
            }
        }
        Ok(Packet::Ping(ip, ping)) => {
            let _ = write!(
                out,
                "{} > {}: PING {} token {:#x}",
                ip.src,
                ip.dst,
                if ping.reply { "reply" } else { "request" },
                ping.token,
            );
        }
        Err(e) => {
            let _ = write!(out, "unparsable ({e}), {} bytes", data.len());
        }
    }
    if let Some(c) = comment {
        let _ = write!(out, " -- {c}");
    }
    out
}

fn format_mptcp(m: &MptcpOption) -> String {
    match m {
        MptcpOption::Capable { key_local, key_remote } => match key_remote {
            Some(kr) => format!("[mp_capable key {key_local:#x} peer {kr:#x}]"),
            None => format!("[mp_capable key {key_local:#x}]"),
        },
        MptcpOption::Join { token, nonce, backup } => {
            let b = if *backup { " backup" } else { "" };
            format!("[mp_join token {token:#x} nonce {nonce:#x}{b}]")
        }
        MptcpOption::Dss { data_ack, mapping, data_fin } => {
            let mut s = String::from("[dss");
            if let Some(a) = data_ack {
                let _ = write!(s, " dack {a}");
            }
            if let Some(m) = mapping {
                let _ = write!(s, " map {}:{} len {}", m.dseq, m.subflow_seq.0, m.len);
            }
            if *data_fin {
                s.push_str(" fin");
            }
            s.push(']');
            s
        }
        MptcpOption::AddAddr { addr_id, addr, port } => {
            format!("[add_addr id {addr_id} {addr}:{port}]")
        }
        MptcpOption::Prio { backup } => {
            format!("[mp_prio {}]", if *backup { "backup" } else { "regular" })
        }
    }
}

/// Render a whole capture file, one line per packet, in file order.
pub fn dump(file: &PcapFile) -> String {
    let mut out = String::new();
    for p in &file.packets {
        let iface = file
            .interfaces
            .get(p.iface as usize)
            .map(|i| i.name.as_str())
            .unwrap_or("?");
        out.push_str(&format_packet(iface, p.at.as_nanos(), &p.data, p.comment.as_deref()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mpw_tcp::wire::{encode_packet, tcp_flags, DssMapping, IpHeader, TcpSegment, PROTO_TCP};
    use mpw_tcp::{Addr, SeqNum};

    #[test]
    fn tcp_line_contains_endpoints_flags_and_mptcp_options() {
        let ip = IpHeader {
            src: Addr::new(192, 168, 1, 1),
            dst: Addr::new(10, 0, 1, 2),
            protocol: PROTO_TCP,
            ttl: 64,
        };
        let mut seg = TcpSegment::bare(
            8080,
            40_000,
            SeqNum(7001),
            SeqNum(101),
            tcp_flags::ACK | tcp_flags::PSH,
        );
        seg.window = 512;
        seg.payload = Bytes::from(vec![0u8; 1400]);
        seg.options = [mpw_tcp::wire::TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: Some(9000),
            mapping: Some(DssMapping { dseq: 5600, subflow_seq: SeqNum(7001), len: 1400 }),
            data_fin: false,
        })]
        .into();
        let bytes = encode_packet(&ip, &seg);
        let line = format_packet("path0:down@client", 18_123_456_789, &bytes, None);
        assert_eq!(
            line,
            "18.123456789 path0:down@client 192.168.1.1:8080 > 10.0.1.2:40000: \
             Flags [P.], seq 7001, ack 101, win 512, length 1400 \
             [dss dack 9000 map 5600:7001 len 1400]"
        );
    }

    #[test]
    fn handshake_options_render() {
        assert_eq!(
            format_mptcp(&MptcpOption::Capable { key_local: 0xab, key_remote: None }),
            "[mp_capable key 0xab]"
        );
        assert_eq!(
            format_mptcp(&MptcpOption::Join { token: 0x10, nonce: 0x20, backup: true }),
            "[mp_join token 0x10 nonce 0x20 backup]"
        );
        assert_eq!(
            format_mptcp(&MptcpOption::AddAddr {
                addr_id: 2,
                addr: Addr::new(192, 168, 2, 1),
                port: 8080
            }),
            "[add_addr id 2 192.168.2.1:8080]"
        );
    }

    #[test]
    fn unparsable_and_commented_packets_degrade_gracefully() {
        let line = format_packet("drops", 1_000_000_000, b"junk", Some("dropped: ChannelLoss"));
        assert!(line.starts_with("1.000000000 drops unparsable"));
        assert!(line.ends_with("-- dropped: ChannelLoss"));
    }
}
