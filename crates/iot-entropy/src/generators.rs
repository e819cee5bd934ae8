//! Seeded payload generators calibrated to the paper's §5.1 entropy bands.
//!
//! The simulator never performs real cryptography or compression — the
//! analyses only observe byte *distributions*. Each generator reproduces
//! the distribution of one payload family the paper measured:
//!
//! | Family | Paper's measurement | Generator |
//! |---|---|---|
//! | TLS ciphertext | H≈0.85 (0.80–0.87) per packet | uniform random bytes |
//! | fernet ciphertext | H≈0.73 (0.67–0.75) | base64 of random bytes |
//! | textual plaintext (telemetry) | H≈0.25 (0.12–0.39) | digit-coded sensor readings |
//! | textual plaintext (web page) | H≈0.55 (0.35–0.62) | English-like markup |
//! | media (video/audio) | H≈0.873 | random bytes + container structure |

use iot_core::rng::StdRng;

/// Creates the crate's deterministic RNG from a seed.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// Each generator has an appending form, `*_into`, that writes into a
// caller's (typically reused) buffer and draws exactly the random stream
// of the `Vec`-returning form, which wraps it. Synthesized captures are
// byte-pinned, so both forms must stay draw-for-draw identical.

/// Uniform random bytes: stands in for TLS/AES ciphertext.
pub fn ciphertext(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    ciphertext_into(rng, len, &mut out);
    out
}

/// Appends [`ciphertext`]`(rng, len)` to `out`, filled as one slice.
pub fn ciphertext_into(rng: &mut StdRng, len: usize, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + len, 0);
    for b in &mut out[start..] {
        *b = rng.gen();
    }
}

pub(crate) const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Base64 text over random data: stands in for fernet-style tokens, whose
/// 64-symbol alphabet caps normalized entropy at 6/8 = 0.75.
pub fn fernet_like(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    fernet_like_into(rng, len, &mut out);
    out
}

/// Appends [`fernet_like`]`(rng, len)` to `out`.
pub fn fernet_like_into(rng: &mut StdRng, len: usize, out: &mut Vec<u8>) {
    out.extend((0..len).map(|_| BASE64_ALPHABET[rng.gen_range(0..64)]));
}

/// Style of textual plaintext to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextStyle {
    /// Machine telemetry: digit-coded readings, very low entropy
    /// (the paper's H≈0.25 "textual payload" HTTP flows).
    Telemetry,
    /// Web-page-like prose and markup (the paper's IMC-website test,
    /// H≈0.55).
    WebPage,
}

pub(crate) const WORDS: &[&str] = &[
    "the", "device", "status", "sensor", "reading", "update", "home", "network", "smart",
    "camera", "motion", "event", "temperature", "light", "power", "state", "control", "cloud",
    "service", "request", "response", "value", "level", "mode", "active", "ready", "online",
    "system", "signal", "report", "channel", "stream", "record", "image", "audio", "video",
];

/// Textual plaintext in the requested style.
pub fn text_like(rng: &mut StdRng, len: usize, style: TextStyle) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 16);
    text_like_into(rng, len, style, &mut out);
    out
}

/// Appends [`text_like`]`(rng, len, style)` to `out`.
pub fn text_like_into(rng: &mut StdRng, len: usize, style: TextStyle, out: &mut Vec<u8>) {
    let end = out.len() + len;
    match style {
        TextStyle::Telemetry => {
            // Hex-coded sensor registers, zero-dominated like mostly-idle
            // hardware, e.g. "0000,00a1,0300,".
            const REST: &[u8; 16] = b"123456789abcdef,";
            while out.len() < end {
                out.push(if rng.gen_bool(0.7) {
                    b'0'
                } else {
                    REST[rng.gen_range(0..REST.len())]
                });
            }
        }
        TextStyle::WebPage => {
            while out.len() < end {
                match rng.gen_range(0..10) {
                    0 => out.extend_from_slice(b"<div class=\"c\">"),
                    1 => out.extend_from_slice(b"</div> "),
                    _ => {
                        out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes());
                        out.push(b' ');
                    }
                }
            }
        }
    }
    out.truncate(end);
}

/// Compressed-media-like bytes: mostly random (compressed macroblocks)
/// interleaved with container structure (start codes, padding), matching
/// the paper's H≈0.873 measurement for unencrypted phone video.
pub fn media_like(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    media_like_into(rng, len, &mut out);
    out
}

/// Appends [`media_like`]`(rng, len)` to `out`. The whole random header
/// and the whole last burst are drawn even when `len` cuts them short,
/// so the generator leaves the random stream where [`media_like`] does.
pub fn media_like_into(rng: &mut StdRng, len: usize, out: &mut Vec<u8>) {
    let end = out.len() + len;
    // Streams open with a vendor-proprietary wrapper header (compressed,
    // random-looking), NOT a bare container signature: §5.1's magic-byte
    // filter intentionally misses these, leaving them to entropy analysis.
    let header = rng.gen_range(16..48);
    ciphertext_into(rng, header, out);
    while out.len() < end {
        // A NAL-unit-like start code followed by a burst of compressed data
        // and a short zero-padding run.
        out.extend_from_slice(&[0x00, 0x00, 0x00, 0x01]);
        let burst = rng.gen_range(48..160);
        ciphertext_into(rng, burst, out);
        let pad = rng.gen_range(8..24);
        out.resize(out.len() + pad, 0);
    }
    out.truncate(end);
}

/// Key-value plaintext carrying explicit fields (used for device check-ins
/// that leak identifiers); entropy falls in the telemetry band.
pub fn keyvalue_plaintext(rng: &mut StdRng, fields: &[(&str, &str)], pad_to: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(pad_to);
    for (k, v) in fields {
        out.extend_from_slice(k.as_bytes());
        out.push(b'=');
        out.extend_from_slice(v.as_bytes());
        out.push(b'&');
    }
    while out.len() < pad_to {
        out.push(if rng.gen_bool(0.3) { b'1' } else { b'0' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::{mean_packet_entropy, normalized_entropy};

    /// Mean per-packet entropy of a stream chunked into `chunk`-byte
    /// "packets", the measurement unit of §5.1.
    fn chunked_entropy(data: &[u8], chunk: usize) -> f64 {
        mean_packet_entropy(data.chunks(chunk))
    }

    #[test]
    fn ciphertext_in_tls_band() {
        let mut r = rng(1);
        // ~160-byte packets, the paper's typical encrypted payload size.
        for seed_run in 0..5 {
            let data = ciphertext(&mut r, 160 * 30);
            let h = chunked_entropy(&data, 160);
            assert!(
                (0.80..=0.88).contains(&h),
                "run {seed_run}: ciphertext entropy {h} outside TLS band"
            );
        }
    }

    #[test]
    fn fernet_in_band() {
        let mut r = rng(2);
        let data = fernet_like(&mut r, 200 * 30);
        let h = chunked_entropy(&data, 200);
        assert!((0.67..=0.76).contains(&h), "fernet entropy {h}");
    }

    #[test]
    fn telemetry_text_in_band() {
        let mut r = rng(3);
        let data = text_like(&mut r, 300 * 20, TextStyle::Telemetry);
        let h = chunked_entropy(&data, 300);
        assert!((0.10..=0.39).contains(&h), "telemetry entropy {h}");
    }

    #[test]
    fn webpage_text_in_band() {
        let mut r = rng(4);
        let data = text_like(&mut r, 400 * 20, TextStyle::WebPage);
        let h = chunked_entropy(&data, 400);
        assert!((0.35..=0.65).contains(&h), "webpage entropy {h}");
    }

    #[test]
    fn media_in_band() {
        let mut r = rng(5);
        let data = media_like(&mut r, 1000 * 20);
        let h = chunked_entropy(&data, 1000);
        assert!(
            (0.82..=0.93).contains(&h),
            "media entropy {h} must sit above the encrypted threshold, \
             reproducing the paper's caveat"
        );
    }

    #[test]
    fn generators_deterministic_for_seed() {
        let a = ciphertext(&mut rng(42), 256);
        let b = ciphertext(&mut rng(42), 256);
        assert_eq!(a, b);
        let c = text_like(&mut rng(7), 128, TextStyle::WebPage);
        let d = text_like(&mut rng(7), 128, TextStyle::WebPage);
        assert_eq!(c, d);
    }

    #[test]
    fn generators_differ_across_seeds() {
        assert_ne!(ciphertext(&mut rng(1), 64), ciphertext(&mut rng(2), 64));
    }

    #[test]
    fn requested_lengths_honored() {
        let mut r = rng(9);
        for len in [0usize, 1, 7, 100, 1500] {
            assert_eq!(ciphertext(&mut r, len).len(), len);
            assert_eq!(fernet_like(&mut r, len).len(), len);
            assert_eq!(text_like(&mut r, len, TextStyle::Telemetry).len(), len);
            assert_eq!(text_like(&mut r, len, TextStyle::WebPage).len(), len);
            assert_eq!(media_like(&mut r, len).len(), len);
        }
    }

    #[test]
    fn keyvalue_contains_fields_and_meets_length() {
        let mut r = rng(11);
        let data = keyvalue_plaintext(&mut r, &[("mac", "a4cf12000102"), ("fw", "1.2.3")], 200);
        let text = String::from_utf8_lossy(&data);
        assert!(text.contains("mac=a4cf12000102&"));
        assert!(text.contains("fw=1.2.3&"));
        assert!(data.len() >= 200);
        assert!(normalized_entropy(&data) < 0.4, "check-in payload must read as plaintext");
    }

    #[test]
    fn entropy_ordering_matches_paper() {
        // telemetry < webpage < fernet < ciphertext ≈ media
        let mut r = rng(20);
        let tele = chunked_entropy(&text_like(&mut r, 4000, TextStyle::Telemetry), 200);
        let web = chunked_entropy(&text_like(&mut r, 4000, TextStyle::WebPage), 200);
        let fern = chunked_entropy(&fernet_like(&mut r, 4000), 200);
        let ciph = chunked_entropy(&ciphertext(&mut r, 4000), 200);
        assert!(tele < web && web < fern && fern < ciph, "{tele} {web} {fern} {ciph}");
    }
}
