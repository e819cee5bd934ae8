//! The frame encoding that the in-place writers replaced, kept unchanged
//! as the reference the equivalence tests below compare against: the
//! checksum folds one byte pair at a time through an iterator, and every
//! layer (TCP/UDP segment, IPv4 header, Ethernet frame) is encoded into a
//! fresh `Vec`. The in-place writers must produce the same bytes for every
//! frame, and a frame written in place as a capture record must equal the
//! same frame appended with [`Capture::push_record`].

use crate::ethernet::{EtherType, EthernetFrame};
use crate::ipv4::{protocol, Ipv4Header, MIN_HEADER_LEN};
use crate::mac::MacAddr;
use crate::packet::Packet;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::{UdpHeader, HEADER_LEN};
use std::net::Ipv4Addr;

/// The byte-pair one's-complement accumulator.
#[derive(Default)]
struct PairChecksum {
    sum: u32,
    pending: Option<u8>,
}

impl PairChecksum {
    fn push(&mut self, data: &[u8]) {
        let mut iter = data.iter().copied();
        if let Some(hi) = self.pending.take() {
            if let Some(lo) = iter.next() {
                self.add_word(u16::from_be_bytes([hi, lo]));
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let mut bytes = iter;
        loop {
            match (bytes.next(), bytes.next()) {
                (Some(hi), Some(lo)) => self.add_word(u16::from_be_bytes([hi, lo])),
                (Some(hi), None) => {
                    self.pending = Some(hi);
                    break;
                }
                _ => break,
            }
        }
    }

    fn push_u16(&mut self, word: u16) {
        self.add_word(word);
    }

    fn push_pseudo_header(&mut self, src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) {
        self.push(&src.octets());
        self.push(&dst.octets());
        self.push_u16(u16::from(proto));
        self.push_u16(len);
    }

    fn add_word(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.add_word(u16::from_be_bytes([hi, 0]));
        }
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

fn pair_checksum(data: &[u8]) -> u16 {
    let mut c = PairChecksum::default();
    c.push(data);
    c.finish()
}

fn tcp_encode(h: &TcpHeader, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + payload.len());
    out.extend_from_slice(&h.src_port.to_be_bytes());
    out.extend_from_slice(&h.dst_port.to_be_bytes());
    out.extend_from_slice(&h.seq.to_be_bytes());
    out.extend_from_slice(&h.ack.to_be_bytes());
    out.push(0x50);
    out.push(h.flags.0);
    out.extend_from_slice(&h.window.to_be_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(payload);
    let mut ck = PairChecksum::default();
    ck.push_pseudo_header(src, dst, protocol::TCP, out.len() as u16);
    ck.push(&out);
    let sum = ck.finish();
    out[16..18].copy_from_slice(&sum.to_be_bytes());
    out
}

fn udp_encode(h: &UdpHeader, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
    let length = (HEADER_LEN + payload.len()) as u16;
    let mut out = Vec::with_capacity(usize::from(length));
    out.extend_from_slice(&h.src_port.to_be_bytes());
    out.extend_from_slice(&h.dst_port.to_be_bytes());
    out.extend_from_slice(&length.to_be_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(payload);
    let mut ck = PairChecksum::default();
    ck.push_pseudo_header(src, dst, protocol::UDP, length);
    ck.push(&out);
    let mut sum = ck.finish();
    if sum == 0 {
        sum = 0xffff;
    }
    out[6..8].copy_from_slice(&sum.to_be_bytes());
    out
}

fn ipv4_encode(h: &Ipv4Header) -> [u8; MIN_HEADER_LEN] {
    let mut out = [0u8; MIN_HEADER_LEN];
    out[0] = 0x45;
    out[1] = h.dscp_ecn;
    out[2..4].copy_from_slice(&h.total_len.to_be_bytes());
    out[4..6].copy_from_slice(&h.identification.to_be_bytes());
    out[6..8].copy_from_slice(&h.flags_fragment.to_be_bytes());
    out[8] = h.ttl;
    out[9] = h.protocol;
    out[12..16].copy_from_slice(&h.src.octets());
    out[16..20].copy_from_slice(&h.dst.octets());
    let ck = pair_checksum(&out);
    out[10..12].copy_from_slice(&ck.to_be_bytes());
    out
}

/// The `Vec`-per-layer frame builder.
struct VecBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    identification: u16,
    ttl: u8,
}

impl VecBuilder {
    fn tcp(&mut self, ts_micros: u64, h: &TcpHeader, payload: &[u8]) -> Packet {
        let segment = tcp_encode(h, payload, self.src_ip, self.dst_ip);
        self.frame(ts_micros, protocol::TCP, &segment)
    }

    fn udp(&mut self, ts_micros: u64, h: &UdpHeader, payload: &[u8]) -> Packet {
        let datagram = udp_encode(h, payload, self.src_ip, self.dst_ip);
        self.frame(ts_micros, protocol::UDP, &datagram)
    }

    fn frame(&mut self, ts_micros: u64, proto: u8, ip_payload: &[u8]) -> Packet {
        let mut ip = Ipv4Header::for_payload(self.src_ip, self.dst_ip, proto, ip_payload.len());
        ip.identification = self.identification;
        ip.ttl = self.ttl;
        self.identification = self.identification.wrapping_add(1);
        let ip_bytes = ipv4_encode(&ip);
        let mut frame = Vec::with_capacity(14 + ip_bytes.len() + ip_payload.len());
        let eth = EthernetFrame {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EtherType::Ipv4,
            payload: &[],
        };
        frame.extend_from_slice(&eth.encode());
        frame.extend_from_slice(&ip_bytes);
        frame.extend_from_slice(ip_payload);
        Packet::new(ts_micros, frame)
    }
}

mod tests {
    use super::*;
    use crate::checksum::Checksum;
    use crate::packet::PacketBuilder;
    use crate::pcap::Capture;
    use crate::Error;
    use iot_core::rng::StdRng;

    const CASES: usize = 256;

    fn bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        rng.fill(&mut out);
        out
    }

    fn addr(rng: &mut StdRng) -> Ipv4Addr {
        Ipv4Addr::from(rng.gen::<u32>())
    }

    fn mac(rng: &mut StdRng) -> MacAddr {
        let b = bytes(rng, 6);
        MacAddr::new(b[0], b[1], b[2], b[3], b[4], b[5])
    }

    /// A random builder pair: the in-place one and the reference.
    fn builders(rng: &mut StdRng) -> (PacketBuilder, VecBuilder) {
        let (src_mac, dst_mac, src_ip, dst_ip) = (mac(rng), mac(rng), addr(rng), addr(rng));
        let ttl = rng.gen::<u8>();
        let reference = VecBuilder {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            identification: 1,
            ttl,
        };
        (
            PacketBuilder::new(src_mac, dst_mac, src_ip, dst_ip).ttl(ttl),
            reference,
        )
    }

    /// A payload of 0–1,460 bytes, odd lengths included.
    fn payload(rng: &mut StdRng) -> Vec<u8> {
        let len = rng.gen_range(0..=1460usize);
        bytes(rng, len)
    }

    #[test]
    fn checksum_matches_byte_pair_reference() {
        let mut rng = StdRng::seed_from_u64(0xC5_01);
        for case in 0..CASES * 4 {
            let len = rng.gen_range(0..=1600usize);
            let data = bytes(&mut rng, len);
            // 1–4 pushes split at arbitrary (odd included) offsets.
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..=3usize))
                .map(|_| rng.gen_range(0..=data.len()))
                .collect();
            cuts.sort_unstable();
            let (mut ours, mut reference) = (Checksum::new(), PairChecksum::default());
            let mut from = 0;
            for to in cuts.into_iter().chain([data.len()]) {
                ours.push(&data[from..to]);
                reference.push(&data[from..to]);
                from = to;
            }
            assert_eq!(
                ours.finish(),
                reference.finish(),
                "case {case}: {} bytes",
                data.len()
            );
        }
    }

    #[test]
    fn frames_match_vec_reference() {
        let mut rng = StdRng::seed_from_u64(0xC5_02);
        for case in 0..CASES {
            let (mut ours, mut reference) = builders(&mut rng);
            let (mut in_place, mut pushed) = (Capture::new(), Capture::new());
            // A run of frames through one builder: identification counts up.
            for _ in 0..rng.gen_range(1..=6usize) {
                let ts = rng.gen_range(0..=crate::pcap::MAX_TS_MICROS);
                let body = payload(&mut rng);
                let want = if rng.gen_bool(0.5) {
                    let h = TcpHeader {
                        src_port: rng.gen(),
                        dst_port: rng.gen(),
                        seq: rng.gen(),
                        ack: rng.gen(),
                        flags: TcpFlags(rng.gen()),
                        window: 65535,
                    };
                    let got = ours.clone().tcp(ts, &h, &body);
                    ours.write_tcp(&mut in_place, ts, &h, &body).unwrap();
                    let want = reference.tcp(ts, &h, &body);
                    assert_eq!(got, want, "case {case}: tcp packet");
                    want
                } else {
                    let h = UdpHeader {
                        src_port: rng.gen(),
                        dst_port: rng.gen(),
                    };
                    let got = ours.clone().udp(ts, h.src_port, h.dst_port, &body);
                    ours.write_udp(&mut in_place, ts, &h, &body).unwrap();
                    let want = reference.udp(ts, &h, &body);
                    assert_eq!(got, want, "case {case}: udp packet");
                    want
                };
                pushed
                    .push_record(want.ts_micros, want.data.len() as u32, &want.data)
                    .unwrap();
            }
            assert_eq!(in_place, pushed, "case {case}: in-place records differ");
        }
    }

    /// RFC 768: a UDP checksum that computes to 0 goes out as `0xffff`.
    #[test]
    fn udp_zero_checksum_goes_out_as_all_ones() {
        let mut rng = StdRng::seed_from_u64(0xC5_03);
        for case in 0..CASES {
            let (mut ours, mut reference) = builders(&mut rng);
            let h = UdpHeader {
                src_port: rng.gen(),
                dst_port: rng.gen(),
            };
            // Pick the last payload word so the datagram sums to 0xffff.
            let len = 2 * rng.gen_range(1..=700usize);
            let mut body = bytes(&mut rng, len);
            let n = body.len();
            body[n - 2..].fill(0);
            let mut ck = PairChecksum::default();
            ck.push_pseudo_header(
                reference.src_ip,
                reference.dst_ip,
                protocol::UDP,
                (8 + n) as u16,
            );
            ck.push(&udp_encode(&h, &body, reference.src_ip, reference.dst_ip)[..6]);
            ck.push(&body);
            body[n - 2..].copy_from_slice(&ck.finish().to_be_bytes());
            let want = reference.udp(0, &h, &body);
            let mut cap = Capture::new();
            ours.write_udp(&mut cap, 0, &h, &body).unwrap();
            let view = cap.views().next().unwrap().unwrap();
            assert_eq!(view.data, &want.data[..], "case {case}");
            assert_eq!(
                &view.data[40..42],
                &[0xff, 0xff],
                "case {case}: checksum field"
            );
        }
    }

    /// A frame writer that appends the wrong number of bytes, or a
    /// timestamp the format cannot hold, leaves the capture untouched.
    #[test]
    fn write_record_rejects_without_writing() {
        let mut cap = Capture::new();
        cap.push(1, &[0xAB; 20]).unwrap();
        let before = cap.clone();
        for (declared, written) in [(20usize, 19usize), (20, 21), (0, 1)] {
            let res = cap.write_record(2, declared as u32, declared, |out| {
                out.extend(std::iter::repeat_n(0xCD, written))
            });
            assert!(
                matches!(res, Err(Error::LengthMismatch { claimed, actual, .. })
                    if claimed == declared && actual == written),
                "{declared} declared, {written} written: {res:?}"
            );
            assert_eq!(cap, before);
        }
        let mut called = false;
        let res = cap.write_record(crate::pcap::MAX_TS_MICROS + 1, 20, 20, |_| called = true);
        assert!(matches!(res, Err(Error::TimestampOutOfRange { .. })));
        assert!(!called, "the frame writer must not run");
        assert_eq!(cap, before);
    }
}
