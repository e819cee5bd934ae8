//! The Internet checksum (RFC 1071) used by IPv4, TCP, and UDP.

use std::net::Ipv4Addr;

/// Incremental one's-complement sum accumulator.
///
/// Feed it header/payload slices (and, for TCP/UDP, the pseudo-header) and
/// call [`Checksum::finish`] to obtain the 16-bit checksum value.
///
/// The sum is kept in 64 bits and fed eight bytes at a time: a big-endian
/// `u64` is four big-endian 16-bit words, and because 2^16 ≡ 1 modulo
/// 2^16 − 1, adding it with end-around carry and folding at the end
/// yields the same checksum as adding the words one by one (RFC 1071 §2).
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum {
    sum: u64,
    /// Carries a dangling odd byte between `push` calls.
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a slice of bytes to the running sum.
    pub fn push(&mut self, mut data: &[u8]) {
        if let Some(hi) = self.pending.take() {
            let Some((&lo, rest)) = data.split_first() else {
                self.pending = Some(hi);
                return;
            };
            self.add(u64::from(u16::from_be_bytes([hi, lo])));
            data = rest;
        }
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_be_bytes(word.try_into().expect("8-byte chunk")));
        }
        let mut pairs = words.remainder().chunks_exact(2);
        for pair in &mut pairs {
            self.add(u64::from(u16::from_be_bytes([pair[0], pair[1]])));
        }
        if let [last] = pairs.remainder() {
            self.pending = Some(*last);
        }
    }

    /// Adds a single big-endian 16-bit word.
    pub fn push_u16(&mut self, word: u16) {
        debug_assert!(self.pending.is_none(), "push_u16 on odd boundary");
        self.add(u64::from(word));
    }

    /// Adds the TCP/UDP pseudo-header for the given addresses, protocol, and
    /// transport segment length.
    pub fn push_pseudo_header(&mut self, src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) {
        self.push(&src.octets());
        self.push(&dst.octets());
        self.push_u16(u16::from(proto));
        self.push_u16(len);
    }

    /// One's-complement addition: a carry out of bit 63 wraps into bit 0.
    fn add(&mut self, word: u64) {
        let (sum, carry) = self.sum.overflowing_add(word);
        self.sum = sum + u64::from(carry);
    }

    /// Folds carries and returns the one's-complement checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.add(u64::from(u16::from_be_bytes([hi, 0])));
        }
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// One-shot checksum over a single buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.push(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1071 §3 worked example.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold -> 0xddf2
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // Checksum of [0xab] == checksum of [0xab, 0x00].
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn split_push_equals_single_push() {
        let data: Vec<u8> = (0u8..=200).collect();
        for split in [0usize, 1, 3, 100, 199, 201] {
            let mut c = Checksum::new();
            c.push(&data[..split]);
            c.push(&data[split..]);
            assert_eq!(c.finish(), checksum(&data), "split at {split}");
        }
    }

    #[test]
    fn verifying_includes_checksum_yields_zero() {
        // A buffer whose checksum field is filled in sums to 0 when the
        // checksum is included — the standard verification procedure.
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00, 0x00, 0x40, 0x11, 0, 0];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(checksum(&data), 0);
    }

    #[test]
    fn pseudo_header_changes_sum() {
        let mut a = Checksum::new();
        a.push_pseudo_header(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 6, 20);
        let mut b = Checksum::new();
        b.push_pseudo_header(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 3), 6, 20);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }
}
