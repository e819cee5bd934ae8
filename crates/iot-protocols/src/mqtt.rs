//! MQTT 3.1.1 control packets (OASIS standard).
//!
//! Many consumer IoT devices publish telemetry over MQTT. The paper's
//! manual investigation (§5.2) found that appliances, home-automation
//! devices, and smart hubs run "proprietary protocols not known to
//! Wireshark, which are often partly encrypted" — in the simulator those
//! devices speak MQTT (recognizable) and vendor-proprietary framing
//! (unrecognizable), reproducing the mixed classification outcome.
//! [`write_connect`] and [`write_publish_head`] append to the caller's
//! buffer, and [`CONNACK`] and [`PINGRESP`] are fixed bytes;
//! [`PacketView`] parses, borrowing from the stream.

use crate::error::ProtoError;
use crate::Result;

/// Standard MQTT port.
pub const PORT: u16 = 1883;

/// A server CONNACK accepting the session, whole.
pub const CONNACK: [u8; 4] = [0x20, 0x02, 0x00, 0x00];

/// A PINGRESP keepalive reply, whole.
pub const PINGRESP: [u8; 2] = [0xd0, 0x00];

/// Appends a client CONNECT for `client_id`: MQTT 3.1.1, clean session,
/// 60 s keepalive.
pub fn write_connect(out: &mut Vec<u8>, client_id: &str) {
    out.push(0x10);
    write_remaining_len(out, 10 + 2 + client_id.len());
    write_utf8(out, "MQTT"); // protocol name
    out.push(4); // protocol level 3.1.1
    out.push(0x02); // clean session
    out.extend_from_slice(&60u16.to_be_bytes()); // keepalive
    write_utf8(out, client_id);
}

/// Appends the head of a QoS 0 PUBLISH to `topic`; the caller appends
/// the `payload_len`-byte payload next.
pub fn write_publish_head(out: &mut Vec<u8>, topic: &str, payload_len: usize) {
    out.push(0x30);
    write_remaining_len(out, 2 + topic.len() + payload_len);
    write_utf8(out, topic);
}

/// Appends the MQTT variable-length "remaining length" field.
fn write_remaining_len(out: &mut Vec<u8>, mut len: usize) {
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if len == 0 {
            break;
        }
    }
}

/// Decodes a remaining-length field; returns (value, bytes consumed).
fn decode_remaining_len(data: &[u8]) -> Result<(usize, usize)> {
    let mut value = 0usize;
    let mut shift = 0u32;
    for (i, byte) in data.iter().enumerate().take(4) {
        value |= usize::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(ProtoError::malformed("mqtt", "remaining length"))
}

fn write_utf8(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn decode_utf8(data: &[u8]) -> Result<(&str, &[u8])> {
    if data.len() < 2 {
        return Err(ProtoError::truncated("mqtt", "string length"));
    }
    let len = usize::from(u16::from_be_bytes([data[0], data[1]]));
    let bytes = data
        .get(2..2 + len)
        .ok_or_else(|| ProtoError::truncated("mqtt", "string body"))?;
    let s = std::str::from_utf8(bytes)
        .map_err(|_| ProtoError::malformed("mqtt", "non-utf8 string"))?;
    Ok((s, &data[2 + len..]))
}

/// An MQTT control packet borrowed from the front of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketView<'a> {
    /// Client CONNECT.
    Connect {
        /// Client identifier.
        client_id: &'a str,
    },
    /// Server CONNACK.
    ConnAck,
    /// PUBLISH (QoS 0).
    Publish {
        /// Topic name.
        topic: &'a str,
        /// Application payload.
        payload: &'a [u8],
    },
    /// PINGREQ keepalive.
    PingReq,
    /// PINGRESP keepalive reply.
    PingResp,
}

impl<'a> PacketView<'a> {
    /// Parses one whole packet from the front of a stream; returns it and
    /// the rest.
    pub fn parse(data: &'a [u8]) -> Result<(Self, &'a [u8])> {
        if data.is_empty() {
            return Err(ProtoError::truncated("mqtt", "fixed header"));
        }
        let ptype = data[0] >> 4;
        let (len, len_bytes) = decode_remaining_len(&data[1..])?;
        let body_start = 1 + len_bytes;
        let body = data
            .get(body_start..body_start + len)
            .ok_or_else(|| ProtoError::truncated("mqtt", "body"))?;
        let rest = &data[body_start + len..];
        let packet = match ptype {
            1 => {
                let (proto, after) = decode_utf8(body)?;
                if proto != "MQTT" {
                    return Err(ProtoError::malformed("mqtt", "protocol name"));
                }
                if after.len() < 4 {
                    return Err(ProtoError::truncated("mqtt", "connect flags"));
                }
                let (client_id, _) = decode_utf8(&after[4..])?;
                PacketView::Connect { client_id }
            }
            2 => PacketView::ConnAck,
            3 => {
                let (topic, payload) = decode_utf8(body)?;
                PacketView::Publish { topic, payload }
            }
            12 => PacketView::PingReq,
            13 => PacketView::PingResp,
            _ => {
                return Err(ProtoError::Unsupported {
                    proto: "mqtt",
                    what: "packet type",
                })
            }
        };
        Ok((packet, rest))
    }
}

/// Heuristic: does this byte stream begin with a plausible MQTT CONNECT?
pub fn looks_like_mqtt(stream: &[u8]) -> bool {
    matches!(PacketView::parse(stream), Ok((PacketView::Connect { .. }, _)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A PINGREQ keepalive, whole.
    const PINGREQ: [u8; 2] = [0xc0, 0x00];

    #[test]
    fn connect_roundtrip() {
        let mut bytes = Vec::new();
        write_connect(&mut bytes, "xiaomi-cleaner-01ab");
        let (parsed, rest) = PacketView::parse(&bytes).unwrap();
        assert_eq!(
            parsed,
            PacketView::Connect {
                client_id: "xiaomi-cleaner-01ab"
            }
        );
        assert!(rest.is_empty());
    }

    #[test]
    fn publish_roundtrip() {
        let mut bytes = Vec::new();
        write_publish_head(&mut bytes, "device/telemetry", 4);
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let (parsed, _) = PacketView::parse(&bytes).unwrap();
        assert_eq!(
            parsed,
            PacketView::Publish {
                topic: "device/telemetry",
                payload: &[1, 2, 3, 4]
            }
        );
    }

    #[test]
    fn stream_of_packets() {
        let mut stream = Vec::new();
        write_connect(&mut stream, "c");
        stream.extend_from_slice(&PINGREQ);
        stream.extend_from_slice(&CONNACK);
        stream.extend_from_slice(&PINGRESP);
        let (first, rest) = PacketView::parse(&stream).unwrap();
        assert!(matches!(first, PacketView::Connect { .. }));
        let (second, rest) = PacketView::parse(rest).unwrap();
        assert_eq!(second, PacketView::PingReq);
        let (third, rest) = PacketView::parse(rest).unwrap();
        assert_eq!(third, PacketView::ConnAck);
        let (fourth, rest) = PacketView::parse(rest).unwrap();
        assert_eq!(fourth, PacketView::PingResp);
        assert!(rest.is_empty());
    }

    #[test]
    fn large_publish_uses_multibyte_length() {
        let mut bytes = Vec::new();
        write_publish_head(&mut bytes, "t", 300);
        bytes.resize(bytes.len() + 300, 0xAA);
        assert!(bytes[1] & 0x80 != 0, "length must be multi-byte");
        let (parsed, _) = PacketView::parse(&bytes).unwrap();
        assert_eq!(
            parsed,
            PacketView::Publish {
                topic: "t",
                payload: &[0xAA; 300]
            }
        );
    }

    #[test]
    fn looks_like_mqtt_detects_connect_only() {
        let mut connect = Vec::new();
        write_connect(&mut connect, "dev");
        assert!(looks_like_mqtt(&connect));
        assert!(!looks_like_mqtt(&PINGREQ));
        assert!(!looks_like_mqtt(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!looks_like_mqtt(&[0x10, 0x05, 0x00, 0x03, b'X', b'Y', b'Z']));
    }

    #[test]
    fn truncated_rejected() {
        let mut bytes = Vec::new();
        write_connect(&mut bytes, "abc");
        assert!(PacketView::parse(&bytes[..bytes.len() - 2]).is_err());
        assert!(PacketView::parse(&[]).is_err());
    }
}
