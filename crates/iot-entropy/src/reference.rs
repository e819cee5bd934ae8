//! The `Vec`-building payload generators that the appending forms
//! replaced, kept unchanged as the reference the equivalence tests below
//! compare against: `media_like` pushes every burst byte by byte. Each
//! appending form must write the same bytes after whatever `out` already
//! holds and leave the random stream at the same position, so that the
//! next draw agrees too.

use crate::generators::{TextStyle, BASE64_ALPHABET, WORDS};
use iot_core::rng::StdRng;

fn ciphertext(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

fn fernet_like(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| BASE64_ALPHABET[rng.gen_range(0..64)])
        .collect()
}

fn text_like(rng: &mut StdRng, len: usize, style: TextStyle) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 16);
    match style {
        TextStyle::Telemetry => {
            const REST: &[u8; 16] = b"123456789abcdef,";
            while out.len() < len {
                out.push(if rng.gen_bool(0.7) {
                    b'0'
                } else {
                    REST[rng.gen_range(0..REST.len())]
                });
            }
        }
        TextStyle::WebPage => {
            while out.len() < len {
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
    out.truncate(len);
    out
}

fn media_like(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let header = rng.gen_range(16..48);
    for _ in 0..header {
        out.push(rng.gen());
    }
    while out.len() < len {
        out.extend_from_slice(&[0x00, 0x00, 0x00, 0x01]);
        let burst = rng.gen_range(48..160);
        for _ in 0..burst {
            out.push(rng.gen());
        }
        let pad = rng.gen_range(8..24);
        out.extend(std::iter::repeat_n(0u8, pad));
    }
    out.truncate(len);
    out
}

mod tests {
    use super::*;
    use crate::generators;

    type Reference = fn(&mut StdRng, usize) -> Vec<u8>;
    type Appending = fn(&mut StdRng, usize, &mut Vec<u8>);

    /// Runs one generator pair over every length 0–1,500 (and one seed
    /// per length), appending after a non-empty prefix.
    fn check(name: &str, reference: Reference, appending: Appending) {
        for len in 0..=1500usize {
            let seed = 0x6E_0000 + len as u64;
            let (mut ours, mut theirs) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let want = reference(&mut theirs, len);
            let mut out = b"prefix".to_vec();
            appending(&mut ours, len, &mut out);
            assert_eq!(&out[..6], b"prefix", "{name}: prefix overwritten");
            assert_eq!(out[6..], want[..], "{name}: {len} bytes differ");
            assert_eq!(
                ours.next_u64(),
                theirs.next_u64(),
                "{name}: random stream moved differently at len {len}"
            );
        }
    }

    #[test]
    fn ciphertext_matches_reference() {
        check("ciphertext", ciphertext, generators::ciphertext_into);
    }

    #[test]
    fn fernet_like_matches_reference() {
        check("fernet_like", fernet_like, generators::fernet_like_into);
    }

    #[test]
    fn text_like_matches_reference() {
        check(
            "telemetry",
            |rng, len| text_like(rng, len, TextStyle::Telemetry),
            |rng, len, out| generators::text_like_into(rng, len, TextStyle::Telemetry, out),
        );
        check(
            "web page",
            |rng, len| text_like(rng, len, TextStyle::WebPage),
            |rng, len, out| generators::text_like_into(rng, len, TextStyle::WebPage, out),
        );
    }

    /// Covers lengths below the 16–47-byte random header (the header is
    /// drawn whole, then cut) and every overshoot of the last burst.
    #[test]
    fn media_like_matches_reference() {
        check("media_like", media_like, generators::media_like_into);
    }

    /// The `Vec`-returning forms the calibration and table code still
    /// call are the appending forms over an empty buffer.
    #[test]
    fn vec_forms_wrap_appending_forms() {
        let mut rng = StdRng::seed_from_u64(0x6E_FFFF);
        let mut twin = rng.clone();
        for len in [0usize, 1, 15, 47, 211, 1500] {
            assert_eq!(
                generators::ciphertext(&mut rng, len),
                ciphertext(&mut twin, len)
            );
            assert_eq!(
                generators::fernet_like(&mut rng, len),
                fernet_like(&mut twin, len)
            );
            assert_eq!(
                generators::media_like(&mut rng, len),
                media_like(&mut twin, len)
            );
            for style in [TextStyle::Telemetry, TextStyle::WebPage] {
                assert_eq!(
                    generators::text_like(&mut rng, len, style),
                    text_like(&mut twin, len, style)
                );
            }
        }
    }
}
