//! MQTT 3.1.1 control packets (OASIS standard).
//!
//! Many consumer IoT devices publish telemetry over MQTT. The paper's
//! manual investigation (§5.2) found that appliances, home-automation
//! devices, and smart hubs run "proprietary protocols not known to
//! Wireshark, which are often partly encrypted" — in the simulator those
//! devices speak MQTT (recognizable) and vendor-proprietary framing
//! (unrecognizable), reproducing the mixed classification outcome.
//! [`MqttPacket`] encodes; [`PacketView`] parses, borrowing from the
//! stream.

use crate::error::ProtoError;
use crate::Result;

/// Standard MQTT port.
pub const PORT: u16 = 1883;

/// MQTT control packets understood by this codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MqttPacket {
    /// Client CONNECT with a client identifier.
    Connect {
        /// Client identifier (often contains the device id).
        client_id: String,
    },
    /// Server CONNACK.
    ConnAck,
    /// PUBLISH with topic and payload (QoS 0).
    Publish {
        /// Topic name.
        topic: String,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// PINGREQ keepalive.
    PingReq,
    /// PINGRESP keepalive reply.
    PingResp,
}

/// Encodes the MQTT variable-length "remaining length" field.
fn encode_remaining_len(out: &mut Vec<u8>, mut len: usize) {
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

fn encode_utf8(out: &mut Vec<u8>, s: &str) {
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

impl MqttPacket {
    /// Serializes the packet.
    pub fn encode(&self) -> Vec<u8> {
        let (first_byte, body): (u8, Vec<u8>) = match self {
            MqttPacket::Connect { client_id } => {
                let mut body = Vec::new();
                encode_utf8(&mut body, "MQTT"); // protocol name
                body.push(4); // protocol level 3.1.1
                body.push(0x02); // clean session
                body.extend_from_slice(&60u16.to_be_bytes()); // keepalive
                encode_utf8(&mut body, client_id);
                (0x10, body)
            }
            MqttPacket::ConnAck => (0x20, vec![0, 0]),
            MqttPacket::Publish { topic, payload } => {
                let mut body = Vec::new();
                encode_utf8(&mut body, topic);
                body.extend_from_slice(payload);
                (0x30, body)
            }
            MqttPacket::PingReq => (0xc0, Vec::new()),
            MqttPacket::PingResp => (0xd0, Vec::new()),
        };
        let mut out = vec![first_byte];
        encode_remaining_len(&mut out, body.len());
        out.extend_from_slice(&body);
        out
    }
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

    #[test]
    fn connect_roundtrip() {
        let bytes = MqttPacket::Connect {
            client_id: "xiaomi-cleaner-01ab".into(),
        }
        .encode();
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
        let bytes = MqttPacket::Publish {
            topic: "device/telemetry".into(),
            payload: vec![1, 2, 3, 4],
        }
        .encode();
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
        let mut stream = MqttPacket::Connect {
            client_id: "c".into(),
        }
        .encode();
        stream.extend_from_slice(&MqttPacket::PingReq.encode());
        let (first, rest) = PacketView::parse(&stream).unwrap();
        assert!(matches!(first, PacketView::Connect { .. }));
        let (second, rest2) = PacketView::parse(rest).unwrap();
        assert_eq!(second, PacketView::PingReq);
        assert!(rest2.is_empty());
    }

    #[test]
    fn large_publish_uses_multibyte_length() {
        let bytes = MqttPacket::Publish {
            topic: "t".into(),
            payload: vec![0xAA; 300],
        }
        .encode();
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
        let connect = MqttPacket::Connect {
            client_id: "dev".into(),
        }
        .encode();
        assert!(looks_like_mqtt(&connect));
        assert!(!looks_like_mqtt(&MqttPacket::PingReq.encode()));
        assert!(!looks_like_mqtt(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!looks_like_mqtt(&[0x10, 0x05, 0x00, 0x03, b'X', b'Y', b'Z']));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = MqttPacket::Connect {
            client_id: "abc".into(),
        }
        .encode();
        assert!(PacketView::parse(&bytes[..bytes.len() - 2]).is_err());
        assert!(PacketView::parse(&[]).is_err());
    }
}
