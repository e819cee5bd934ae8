//! NTPv4 packets (RFC 5905, basic 48-byte mode).
//!
//! Almost every device in the paper's testbeds emits periodic NTP traffic;
//! §6.1 calls it out as the canonical "noise" unrelated to the experiment
//! interaction that the activity classifier must tolerate. The simulator
//! emits genuine NTP packets so the protocol analyzer can recognize and the
//! feature extractor must cope with them.

use crate::error::ProtoError;
use crate::Result;

/// Standard NTP port.
pub const PORT: u16 = 123;

/// Packet length without extensions.
pub const PACKET_LEN: usize = 48;

/// Association modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Client request (3).
    Client,
    /// Server response (4).
    Server,
}

/// A minimal NTPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtpPacket {
    /// Association mode.
    pub mode: Mode,
    /// Stratum (0 for client requests, >0 for servers).
    pub stratum: u8,
    /// Transmit timestamp in NTP 32.32 fixed-point format.
    pub transmit_timestamp: u64,
}

impl NtpPacket {
    /// Builds a client request stamped with `unix_micros`.
    pub fn client(unix_micros: u64) -> Self {
        NtpPacket {
            mode: Mode::Client,
            stratum: 0,
            transmit_timestamp: unix_micros_to_ntp(unix_micros),
        }
    }

    /// Builds a server reply stamped with `unix_micros`.
    pub fn server(unix_micros: u64) -> Self {
        NtpPacket {
            mode: Mode::Server,
            stratum: 2,
            transmit_timestamp: unix_micros_to_ntp(unix_micros),
        }
    }

    /// Serializes to the 48-byte wire format.
    pub fn encode(&self) -> [u8; PACKET_LEN] {
        let mut out = [0u8; PACKET_LEN];
        let mode_bits = match self.mode {
            Mode::Client => 3,
            Mode::Server => 4,
        };
        out[0] = (4 << 3) | mode_bits; // LI=0, VN=4, mode
        out[1] = self.stratum;
        out[2] = 6; // poll interval 2^6 s
        out[3] = 0xec; // precision ~1 µs, two's complement
        out[40..48].copy_from_slice(&self.transmit_timestamp.to_be_bytes());
        out
    }

    /// Parses a 48-byte NTP packet.
    pub fn parse(data: &[u8]) -> Result<Self> {
        if data.len() < PACKET_LEN {
            return Err(ProtoError::truncated("ntp", "packet"));
        }
        let version = (data[0] >> 3) & 0x07;
        if !(3..=4).contains(&version) {
            return Err(ProtoError::malformed("ntp", "version"));
        }
        let mode = match data[0] & 0x07 {
            3 => Mode::Client,
            4 => Mode::Server,
            _ => return Err(ProtoError::malformed("ntp", "mode")),
        };
        Ok(NtpPacket {
            mode,
            stratum: data[1],
            transmit_timestamp: u64::from_be_bytes(data[40..48].try_into().expect("len checked")),
        })
    }
}

/// Seconds between the NTP era (1900) and the Unix epoch (1970).
const NTP_UNIX_OFFSET: u64 = 2_208_988_800;

/// Converts Unix microseconds to NTP 32.32 fixed point.
pub fn unix_micros_to_ntp(micros: u64) -> u64 {
    let secs = micros / 1_000_000 + NTP_UNIX_OFFSET;
    let frac = ((micros % 1_000_000) << 32) / 1_000_000;
    (secs << 32) | frac
}

/// Converts NTP 32.32 fixed point back to Unix microseconds.
pub fn ntp_to_unix_micros(ts: u64) -> u64 {
    let secs = (ts >> 32).saturating_sub(NTP_UNIX_OFFSET);
    let frac = ts & 0xffff_ffff;
    secs * 1_000_000 + ((frac * 1_000_000) >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_client() {
        let pkt = NtpPacket::client(1_555_555_555_123_456);
        let parsed = NtpPacket::parse(&pkt.encode()).unwrap();
        assert_eq!(parsed, pkt);
        assert_eq!(parsed.mode, Mode::Client);
    }

    #[test]
    fn roundtrip_server() {
        let pkt = NtpPacket::server(1_555_555_555_000_000);
        let parsed = NtpPacket::parse(&pkt.encode()).unwrap();
        assert_eq!(parsed.mode, Mode::Server);
        assert_eq!(parsed.stratum, 2);
    }

    #[test]
    fn timestamp_conversion_roundtrips_within_microsecond() {
        for micros in [0u64, 1, 999_999, 1_000_000, 1_556_000_000_654_321] {
            let back = ntp_to_unix_micros(unix_micros_to_ntp(micros));
            assert!(micros.abs_diff(back) <= 1, "{micros} -> {back}");
        }
    }

    #[test]
    fn short_packet_rejected() {
        assert!(NtpPacket::parse(&[0u8; 47]).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = NtpPacket::client(0).encode();
        bytes[0] = (7 << 3) | 3;
        assert!(NtpPacket::parse(&bytes).is_err());
    }
}
