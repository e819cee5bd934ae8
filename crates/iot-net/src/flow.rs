//! Flow reconstruction: grouping captured packets into bidirectional
//! 5-tuple flows, the unit of the paper's destination and encryption
//! analyses.
//!
//! A flow is keyed from the *device's* perspective (local endpoint = the IoT
//! device, remote endpoint = the Internet destination). Each flow tracks
//! byte/packet counts per direction plus a bounded prefix of the application
//! payload in each direction, which downstream analyses use for protocol
//! identification, entropy measurement, and PII scanning.
//!
//! A [`FlowTable`] can serve capture after capture: [`FlowTable::reset`]
//! empties it but keeps its slot and key arrays and every flow in its
//! arena, payload buffers included, and [`FlowTable::take_sorted`] with
//! [`FlowTable::recycle`] lends the flows out and takes them back. Once
//! a table has seen its largest capture, the next ones allocate nothing.

use crate::packet::{ParsedPacket, TransportHeader};
use std::net::Ipv4Addr;

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowProto {
    /// TCP flow.
    Tcp,
    /// UDP flow.
    Udp,
}

/// Direction of a packet relative to the IoT device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Device → Internet.
    Outbound,
    /// Internet → device.
    Inbound,
}

/// Bidirectional flow key from the device's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Device-side address.
    pub local_ip: Ipv4Addr,
    /// Device-side port.
    pub local_port: u16,
    /// Remote (destination) address.
    pub remote_ip: Ipv4Addr,
    /// Remote port — the service port, e.g. 443.
    pub remote_port: u16,
    /// Transport protocol.
    pub proto: FlowProto,
}

/// Number of payload prefix bytes every flow retains per direction.
pub const DEFAULT_PAYLOAD_CAP: usize = 8192;

/// Accumulated state for one flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// The flow's key.
    pub key: FlowKey,
    /// Timestamp of the first packet (µs).
    pub first_ts: u64,
    /// Timestamp of the last packet (µs).
    pub last_ts: u64,
    /// Packets sent by the device.
    pub packets_out: u64,
    /// Packets received by the device.
    pub packets_in: u64,
    /// Application payload bytes sent by the device.
    pub bytes_out: u64,
    /// Application payload bytes received by the device.
    pub bytes_in: u64,
    /// Prefix of the outbound payload stream (capped).
    pub payload_out: Vec<u8>,
    /// Prefix of the inbound payload stream (capped).
    pub payload_in: Vec<u8>,
}

impl Flow {
    fn new(key: FlowKey, ts: u64) -> Self {
        Flow {
            key,
            first_ts: ts,
            last_ts: ts,
            packets_out: 0,
            packets_in: 0,
            bytes_out: 0,
            bytes_in: 0,
            payload_out: Vec::new(),
            payload_in: Vec::new(),
        }
    }

    /// Total application payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_out + self.bytes_in
    }

    /// Flow duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        (self.last_ts.saturating_sub(self.first_ts)) as f64 / 1e6
    }

    /// Starts the flow over as `key`'s, first seen at `ts`, keeping the
    /// payload buffers' capacity.
    fn restart(&mut self, key: FlowKey, ts: u64) {
        let mut payload_out = std::mem::take(&mut self.payload_out);
        let mut payload_in = std::mem::take(&mut self.payload_in);
        payload_out.clear();
        payload_in.clear();
        *self = Flow {
            payload_out,
            payload_in,
            ..Flow::new(key, ts)
        };
    }

    fn observe(&mut self, dir: Direction, ts: u64, payload: &[u8], cap: usize) {
        self.last_ts = self.last_ts.max(ts);
        self.first_ts = self.first_ts.min(ts);
        let (pkts, bytes, buf) = match dir {
            Direction::Outbound => (&mut self.packets_out, &mut self.bytes_out, &mut self.payload_out),
            Direction::Inbound => (&mut self.packets_in, &mut self.bytes_in, &mut self.payload_in),
        };
        *pkts += 1;
        *bytes += payload.len() as u64;
        let take = payload.len().min(cap.saturating_sub(buf.len()));
        if take > buf.capacity() - buf.len() {
            // Double as `Vec` would, but never past the cap: a buffer
            // kept for the next flow holds at most `cap` bytes.
            let grown = (2 * buf.capacity()).max(buf.len() + take).min(cap);
            buf.reserve_exact(grown - buf.len());
        }
        buf.extend_from_slice(&payload[..take]);
    }
}

impl FlowKey {
    /// Packs the 5-tuple into one `u128`, field-ordered so that comparing
    /// packed keys is exactly [`FlowKey`]'s derived lexicographic `Ord`
    /// (local ip, local port, remote ip, remote port, proto) — the sort
    /// in [`FlowTable::take_sorted`] depends on this equivalence.
    pub fn packed(&self) -> u128 {
        (u128::from(u32::from(self.local_ip)) << 72)
            | (u128::from(self.local_port) << 56)
            | (u128::from(u32::from(self.remote_ip)) << 24)
            | (u128::from(self.remote_port) << 8)
            | (self.proto as u128)
    }
}

/// Fibonacci hash of a packed key: the two halves are folded, multiplied
/// by 2^64/φ, and the *top* bits index the slot array (the low bits of a
/// Fibonacci product are poorly mixed).
fn hash_packed(key: u128) -> u64 {
    let folded = (key as u64) ^ ((key >> 64) as u64).rotate_left(31);
    folded.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Groups parsed packets into flows.
///
/// Internally an arena of [`Flow`]s plus an open-addressing index of
/// packed 5-tuple keys: lookups are one multiply, a masked probe over a
/// `u32` slot array (`flow index + 1`, `0` = empty), and a single `u128`
/// compare — no per-lookup hashing of a multi-field struct and no
/// per-entry heap box like `HashMap<FlowKey, Flow>` had. Iteration order
/// over the arena is insertion order (first-packet order), which is
/// deterministic; [`FlowTable::into_flows`] still sorts explicitly.
///
/// The arena outlives the flows in it: after [`FlowTable::reset`], the
/// flow first observed `k`-th lands in the arena entry the previous
/// capture's `k`-th flow used, and fills that entry's payload buffers, so
/// a table replaying captures it has seen never grows a buffer.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// `flow index + 1` per slot; 0 marks an empty slot. Power-of-two
    /// sized, linear probing, grown at ¾ load; the size survives a reset.
    slots: Vec<u32>,
    /// Packed key per live flow, parallel to the front of `flows`.
    keys: Vec<u128>,
    /// Flow arena, in first-observation order: the first `keys.len()`
    /// entries are live, the rest are spares from earlier captures.
    flows: Vec<Flow>,
    /// Live arena indices in [`FlowTable::take_sorted`] order.
    order: Vec<u32>,
    local_net: (Ipv4Addr, u8),
}

const INITIAL_SLOTS: usize = 64;

impl FlowTable {
    /// Creates a table for devices living inside `local_net` (address,
    /// prefix length) — the testbed's private IoT subnet.
    pub fn new(local_net: Ipv4Addr, prefix_len: u8) -> Self {
        FlowTable {
            slots: vec![0; INITIAL_SLOTS],
            keys: Vec::new(),
            flows: Vec::new(),
            order: Vec::new(),
            local_net: (local_net, prefix_len),
        }
    }

    /// Slot index of `packed`'s probe start.
    fn probe_start(&self, packed: u128) -> usize {
        // Top bits of the Fibonacci product, reduced to the table size.
        let shift = 64 - self.slots.len().trailing_zeros();
        (hash_packed(packed) >> shift) as usize
    }

    /// Finds the arena index for `key`, starting a flow first seen at
    /// `ts` in the next arena entry on first sight. Grows the slot array
    /// at ¾ load.
    fn index_of(&mut self, key: FlowKey, ts: u64) -> usize {
        if (self.keys.len() + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let packed = key.packed();
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(packed);
        loop {
            match self.slots[i] {
                0 => {
                    let idx = self.keys.len();
                    self.slots[i] = idx as u32 + 1;
                    self.keys.push(packed);
                    match self.flows.get_mut(idx) {
                        Some(spare) => spare.restart(key, ts),
                        None => self.flows.push(Flow::new(key, ts)),
                    }
                    return idx;
                }
                s => {
                    let idx = (s - 1) as usize;
                    if self.keys[idx] == packed {
                        return idx;
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(new_len, 0);
        let shift = 64 - new_len.trailing_zeros();
        let mask = new_len - 1;
        for (idx, &key) in self.keys.iter().enumerate() {
            let mut i = (hash_packed(key) >> shift) as usize;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32 + 1;
        }
    }

    /// The live arena index of `packed`, if the table holds it.
    fn find(&self, packed: u128) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(packed);
        loop {
            let idx = (self.slots[i] as usize).checked_sub(1)?;
            if self.keys[idx] == packed {
                return Some(idx);
            }
            i = (i + 1) & mask;
        }
    }

    /// Empties the table for a capture of devices inside `local_net`,
    /// keeping its allocations: the slot and key arrays, and every flow
    /// of the arena, whose payload buffers serve the next capture's
    /// flows. Give flows lent by [`FlowTable::take_sorted`] back with
    /// [`FlowTable::recycle`] first.
    pub fn reset(&mut self, local_net: Ipv4Addr, prefix_len: u8) {
        self.slots.fill(0);
        self.keys.clear();
        self.local_net = (local_net, prefix_len);
    }

    /// Lends the live flows out, sorted by first-packet time, then by
    /// key. Each leaves an empty flow in its arena entry until
    /// [`FlowTable::recycle`] returns it; the table still knows the keys
    /// until [`FlowTable::reset`].
    pub fn take_sorted(&mut self) -> impl Iterator<Item = Flow> + '_ {
        let FlowTable { keys, flows, order, .. } = self;
        order.clear();
        order.extend(0..keys.len() as u32);
        // Keys are unique, so the unstable sort is a total order.
        order.sort_unstable_by_key(|&i| (flows[i as usize].first_ts, flows[i as usize].key));
        order.iter().map(|&i| {
            let flow = &mut flows[i as usize];
            let spare = Flow::new(flow.key, 0);
            std::mem::replace(flow, spare)
        })
    }

    /// Returns a flow lent by [`FlowTable::take_sorted`] to its arena
    /// entry, so its payload buffers serve the flow that next lands
    /// there. A flow whose key the table does not hold is dropped.
    pub fn recycle(&mut self, flow: Flow) {
        if let Some(idx) = self.find(flow.key.packed()) {
            self.flows[idx] = flow;
        }
    }

    fn is_local(&self, ip: Ipv4Addr) -> bool {
        let (net, len) = self.local_net;
        if len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(len));
        (u32::from(ip) & mask) == (u32::from(net) & mask)
    }

    /// Feeds one parsed packet into the table. Returns the direction, or
    /// `None` for LAN-internal / non-TCP-UDP traffic, which the paper's
    /// analyses exclude (footnote 1 in §4.1).
    pub fn observe(&mut self, pkt: &ParsedPacket<'_>, ts_micros: u64) -> Option<Direction> {
        let (proto, src_port, dst_port) = match &pkt.transport {
            TransportHeader::Tcp(t) => (FlowProto::Tcp, t.src_port, t.dst_port),
            TransportHeader::Udp(u) => (FlowProto::Udp, u.src_port, u.dst_port),
            TransportHeader::Other(_) => return None,
        };
        let src_local = self.is_local(pkt.ip.src);
        let dst_local = self.is_local(pkt.ip.dst);
        let (dir, key) = match (src_local, dst_local) {
            (true, false) => (
                Direction::Outbound,
                FlowKey {
                    local_ip: pkt.ip.src,
                    local_port: src_port,
                    remote_ip: pkt.ip.dst,
                    remote_port: dst_port,
                    proto,
                },
            ),
            (false, true) => (
                Direction::Inbound,
                FlowKey {
                    local_ip: pkt.ip.dst,
                    local_port: dst_port,
                    remote_ip: pkt.ip.src,
                    remote_port: src_port,
                    proto,
                },
            ),
            // LAN-internal or transit traffic: outside the privacy analysis.
            _ => return None,
        };
        let idx = self.index_of(key, ts_micros);
        self.flows[idx].observe(dir, ts_micros, pkt.payload, DEFAULT_PAYLOAD_CAP);
        Some(dir)
    }

    /// Number of flows seen so far.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no flows have been observed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over flows in first-observation order.
    pub fn iter(&self) -> impl Iterator<Item = &Flow> {
        self.flows[..self.keys.len()].iter()
    }

    /// Consumes the table, returning flows sorted by first-packet time.
    pub fn into_flows(mut self) -> Vec<Flow> {
        self.take_sorted().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use crate::packet::PacketBuilder;
    use crate::tcp::{TcpFlags, TcpHeader};

    const DEV_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 31);
    const CLOUD_IP: Ipv4Addr = Ipv4Addr::new(52, 84, 3, 3);
    const DEV_MAC: MacAddr = MacAddr::new(0xa4, 0xcf, 0x12, 0, 0, 9);
    const GW_MAC: MacAddr = MacAddr::new(0, 0x16, 0x3e, 0, 0, 1);

    fn table() -> FlowTable {
        FlowTable::new(Ipv4Addr::new(192, 168, 10, 0), 24)
    }

    #[test]
    fn bidirectional_packets_join_one_flow() {
        let mut t = table();
        let mut out_b = PacketBuilder::new(DEV_MAC, GW_MAC, DEV_IP, CLOUD_IP);
        let mut in_b = PacketBuilder::new(GW_MAC, DEV_MAC, CLOUD_IP, DEV_IP);
        let req = TcpHeader {
            src_port: 40000,
            dst_port: 443,
            seq: 0,
            ack: 0,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
        };
        let resp = TcpHeader {
            src_port: 443,
            dst_port: 40000,
            ack: 3,
            ..req.clone()
        };
        let p1 = out_b.tcp(0, &req, b"req");
        let p2 = in_b.tcp(5_000, &resp, b"resp!");
        assert_eq!(t.observe(&p1.parse().unwrap(), p1.ts_micros), Some(Direction::Outbound));
        assert_eq!(t.observe(&p2.parse().unwrap(), p2.ts_micros), Some(Direction::Inbound));
        assert_eq!(t.len(), 1);
        let flow = t.iter().next().unwrap();
        assert_eq!(flow.bytes_out, 3);
        assert_eq!(flow.bytes_in, 5);
        assert_eq!(flow.payload_out, b"req");
        assert_eq!(flow.payload_in, b"resp!");
        assert_eq!(flow.key.remote_port, 443);
        assert!((flow.duration_secs() - 0.005).abs() < 1e-9);
    }

    #[test]
    fn lan_internal_traffic_excluded() {
        let mut t = table();
        let mut b = PacketBuilder::new(
            DEV_MAC,
            GW_MAC,
            DEV_IP,
            Ipv4Addr::new(192, 168, 10, 99),
        );
        let p = b.udp(0, 5000, 5000, b"lan");
        assert_eq!(t.observe(&p.parse().unwrap(), 0), None);
        assert!(t.is_empty());
    }

    #[test]
    fn distinct_ports_distinct_flows() {
        let mut t = table();
        let mut b = PacketBuilder::new(DEV_MAC, GW_MAC, DEV_IP, CLOUD_IP);
        let p1 = b.udp(0, 50000, 53, b"q1");
        let p2 = b.udp(1, 50001, 53, b"q2");
        t.observe(&p1.parse().unwrap(), 0);
        t.observe(&p2.parse().unwrap(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn payload_cap_respected() {
        let mut t = table();
        let mut b = PacketBuilder::new(DEV_MAC, GW_MAC, DEV_IP, CLOUD_IP);
        let payload: Vec<u8> = (0..DEFAULT_PAYLOAD_CAP + 6).map(|i| i as u8).collect();
        let p1 = b.udp(0, 50000, 9999, &payload);
        t.observe(&p1.parse().unwrap(), 0);
        let flow = t.iter().next().unwrap();
        assert_eq!(flow.payload_out, payload[..DEFAULT_PAYLOAD_CAP]);
        assert_eq!(
            flow.bytes_out,
            payload.len() as u64,
            "byte counter must not be capped"
        );
    }

    #[test]
    fn into_flows_sorted_by_time() {
        let mut t = table();
        let mut b = PacketBuilder::new(DEV_MAC, GW_MAC, DEV_IP, CLOUD_IP);
        let late = b.udp(9_000_000, 50001, 53, b"late");
        let early = b.udp(1_000_000, 50002, 53, b"early");
        t.observe(&late.parse().unwrap(), late.ts_micros);
        t.observe(&early.parse().unwrap(), early.ts_micros);
        let flows = t.into_flows();
        assert_eq!(flows[0].payload_out, b"early");
        assert_eq!(flows[1].payload_out, b"late");
    }

    #[test]
    fn tcp_and_udp_same_ports_are_distinct() {
        let mut t = table();
        let mut b = PacketBuilder::new(DEV_MAC, GW_MAC, DEV_IP, CLOUD_IP);
        let p1 = b.udp(0, 40000, 443, b"quic-ish");
        let syn = TcpHeader {
            src_port: 40000,
            dst_port: 443,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
        };
        let p2 = b.tcp(1, &syn, &[]);
        t.observe(&p1.parse().unwrap(), 0);
        t.observe(&p2.parse().unwrap(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn packed_key_order_matches_flowkey_ord() {
        // into_flows ties on first_ts break by FlowKey's derived Ord; the
        // packed u128 must induce the identical total order.
        let mut rng = iot_core::rng::StdRng::seed_from_u64(0xF10F_F10F);
        let mut keys = Vec::new();
        for _ in 0..512 {
            keys.push(FlowKey {
                local_ip: Ipv4Addr::from(rng.gen::<u32>() & 0xffff00ff),
                local_port: rng.gen::<u16>() & 0x0fff,
                remote_ip: Ipv4Addr::from(rng.gen::<u32>() & 0x00ffffff),
                remote_port: rng.gen::<u16>(),
                proto: if rng.gen_bool(0.5) { FlowProto::Tcp } else { FlowProto::Udp },
            });
        }
        for a in &keys {
            for b in &keys {
                assert_eq!(a.cmp(b), a.packed().cmp(&b.packed()), "{a:?} vs {b:?}");
            }
        }
    }

    fn assert_same_flow(a: &Flow, e: &Flow, case: u64) {
        assert_eq!(a.key, e.key, "case {case}");
        assert_eq!(a.first_ts, e.first_ts, "case {case}");
        assert_eq!(a.last_ts, e.last_ts, "case {case}");
        assert_eq!((a.packets_out, a.packets_in), (e.packets_out, e.packets_in), "case {case}");
        assert_eq!((a.bytes_out, a.bytes_in), (e.bytes_out, e.bytes_in), "case {case}");
        assert_eq!(a.payload_out, e.payload_out, "case {case}");
        assert_eq!(a.payload_in, e.payload_in, "case {case}");
    }

    /// Property test (tentpole contract): the packed-key open-addressing
    /// table is observationally identical to a naive `HashMap<FlowKey,
    /// Flow>` across ≥64 seeded packet streams, including streams whose
    /// 5-tuples are crafted to collide heavily in the probe space (tiny
    /// IP/port ranges → many keys landing in the same buckets). Every
    /// case also runs through one table reused across all 64: reset
    /// before the case, its flows lent out and recycled after it, so a
    /// stale slot, count or payload byte from an earlier case shows.
    #[test]
    fn packed_table_matches_hashmap_reference_seeded() {
        use std::collections::HashMap;
        let mut reused = table();
        for case in 0..64u64 {
            let mut rng = iot_core::rng::StdRng::seed_from_u64(0xAB1E ^ (case << 8));
            // Collision-heavy on even cases: 2 remote IPs × 8 ports etc.
            let tight = case % 2 == 0;
            let mut t = table();
            reused.reset(Ipv4Addr::new(192, 168, 10, 0), 24);
            let mut reference: HashMap<FlowKey, Flow> = HashMap::new();
            for _ in 0..rng.gen_range(1usize..400) {
                let (src, dst, sport, dport, out) = if rng.gen_bool(0.5) {
                    // Outbound.
                    let remote = if tight {
                        Ipv4Addr::new(52, 84, 3, rng.gen_range(3u8..5))
                    } else {
                        Ipv4Addr::from(rng.gen::<u32>() | 0x0100_0000)
                    };
                    let sport = if tight { 40000 + rng.gen::<u16>() % 8 } else { rng.gen() };
                    (DEV_IP, remote, sport, 443, true)
                } else {
                    let remote = Ipv4Addr::new(52, 84, 3, rng.gen_range(3u8..5));
                    (remote, DEV_IP, 443, 40000 + rng.gen::<u16>() % 8, false)
                };
                let mut payload = vec![0u8; rng.gen_range(0usize..64)];
                rng.fill(&mut payload);
                let ts = u64::from(rng.gen::<u32>());
                let (a_mac, b_mac) = if out { (DEV_MAC, GW_MAC) } else { (GW_MAC, DEV_MAC) };
                let mut b = PacketBuilder::new(a_mac, b_mac, src, dst);
                let raw = b.udp(ts, sport, dport, &payload);
                let parsed = raw.parse().unwrap();
                let dir = t.observe(&parsed, ts);
                assert_eq!(reused.observe(&parsed, ts), dir, "case {case}");
                // Reference: the pre-optimization HashMap logic, verbatim.
                let (key, rdir) = if src == DEV_IP {
                    (
                        FlowKey {
                            local_ip: src,
                            local_port: sport,
                            remote_ip: dst,
                            remote_port: dport,
                            proto: FlowProto::Udp,
                        },
                        Direction::Outbound,
                    )
                } else {
                    (
                        FlowKey {
                            local_ip: dst,
                            local_port: dport,
                            remote_ip: src,
                            remote_port: sport,
                            proto: FlowProto::Udp,
                        },
                        Direction::Inbound,
                    )
                };
                assert_eq!(dir, Some(rdir));
                reference
                    .entry(key)
                    .or_insert_with(|| Flow::new(key, ts))
                    .observe(rdir, ts, &payload, DEFAULT_PAYLOAD_CAP);
            }
            assert_eq!(t.len(), reference.len(), "case {case}");
            assert_eq!(reused.len(), reference.len(), "case {case}");
            let mut expected: Vec<Flow> = reference.into_values().collect();
            expected.sort_by_key(|f| (f.first_ts, f.key));
            let actual = t.into_flows();
            let lent: Vec<Flow> = reused.take_sorted().collect();
            assert_eq!((actual.len(), lent.len()), (expected.len(), expected.len()));
            for ((a, r), e) in actual.iter().zip(&lent).zip(&expected) {
                assert_same_flow(a, e, case);
                assert_same_flow(r, e, case);
            }
            for flow in lent {
                reused.recycle(flow);
            }
        }
    }

    /// A reused table serves the next capture from the same payload
    /// buffers, and grows none past the cap.
    #[test]
    fn reset_keeps_buffers_within_the_cap() {
        let mut t = table();
        let mut b = PacketBuilder::new(DEV_MAC, GW_MAC, DEV_IP, CLOUD_IP);
        let packets: Vec<_> = (0..12u64).map(|i| b.udp(i, 50000, 9999, &[7; 1000])).collect();
        let mut buffers = Vec::new();
        for _ in 0..2 {
            t.reset(Ipv4Addr::new(192, 168, 10, 0), 24);
            for p in &packets {
                t.observe(&p.parse().unwrap(), p.ts_micros);
            }
            let flows: Vec<Flow> = t.take_sorted().collect();
            assert_eq!(flows.len(), 1);
            assert_eq!(flows[0].payload_out, [7; DEFAULT_PAYLOAD_CAP]);
            assert_eq!(flows[0].packets_out, 12);
            buffers.push((flows[0].payload_out.as_ptr(), flows[0].payload_out.capacity()));
            for flow in flows {
                t.recycle(flow);
            }
        }
        assert_eq!(buffers[0], buffers[1], "the second capture reuses the buffer");
        assert_eq!(buffers[0].1, DEFAULT_PAYLOAD_CAP, "growth stops at the cap");
    }
}
