//! Adversarial inputs for the checkpoint-journal codec.
//!
//! The journal is the one file the supervised driver trusts across a
//! crash, so its reader must never panic, never loop, and never invent
//! records: any byte sequence either yields a typed [`JournalError`] or
//! a salvaged clean prefix of genuinely-written records. Three attack
//! surfaces are swept with seeded generators:
//!
//! * every truncated prefix of a well-formed journal (a SIGKILL can
//!   land on any byte),
//! * seeded single-bit flips across the whole file (disk corruption),
//! * seeded random blobs with no structure at all.
//!
//! Mirrors the PR-3 capture-salvage fuzz suite in shape: deterministic
//! seeds, exhaustive small cases, and invariants checked on every
//! outcome rather than golden outputs.

use iot_analysis::ingest::IngestStats;
use iot_analysis::pii::{PiiFinding, PiiFindingKind};
use iot_analysis::supervise::{
    read_journal_bytes, Coverage, CoverageOutcome, JournalError, JournalWriter, UnitDelta,
};
use iot_analysis::{DestinationAnalysis, EncryptionAnalysis};
use iot_core::rng::StdRng;
use iot_testbed::lab::LabSite;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const FINGERPRINT: u64 = 0xF1A9_0000_DEAD_BEEF;
const TOTAL_UNITS: u32 = 8;

/// Header size for this grid: magic + fingerprint + count + 8
/// identity digests.
const HEADER_LEN: usize = 8 + 8 + 4 + 8 * TOTAL_UNITS as usize;

/// Synthetic per-unit identity digests for the fuzz grid.
fn identities() -> Vec<u64> {
    (0..u64::from(TOTAL_UNITS)).map(|u| 0x1D_0000 + u).collect()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iot_fuzz_journal_{tag}_{}.jnl", std::process::id()))
}

/// A small but non-trivial delta: a real ledger, coverage cells, and a
/// PII finding, so every codec branch (maps, options, enums, strings)
/// is exercised by the fuzz corpus.
fn delta(unit: u32) -> UnitDelta {
    let mut ingest = IngestStats::default();
    ingest.packets_generated = 1000 + u64::from(unit);
    ingest.packets_ingested = 990 + u64::from(unit);
    ingest.packets_dropped = 6;
    ingest.packets_lost = 4;
    ingest.experiments_ingested = 40;
    ingest.add_stage_error("salvage");
    let mut coverage = Coverage::new();
    coverage.record(LabSite::Us, "Echo Dot", CoverageOutcome::Completed);
    coverage.record(LabSite::Uk, "Samsung TV", CoverageOutcome::Completed);
    if unit % 2 == 0 {
        coverage.record(LabSite::Us, "Echo Dot", CoverageOutcome::Quarantined);
    }
    UnitDelta {
        unit,
        experiments: 40,
        ingest,
        coverage,
        destinations: DestinationAnalysis::new(),
        encryption: EncryptionAnalysis::default(),
        pii: vec![PiiFinding {
            device_name: "Echo Dot".to_string(),
            site: LabSite::Us,
            vpn: unit % 2 == 1,
            kind: PiiFindingKind::MacAddress,
            encoding: "hex",
            domain: Some("example.com".to_string()),
            org: None,
            party: None,
            experiment_label: "local_voice".to_string(),
        }],
    }
}

/// Writes a well-formed journal with [`TOTAL_UNITS`]-many records and
/// returns its bytes. Each call writes its own file, since the tests
/// calling this run in parallel.
fn well_formed() -> Vec<u8> {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let path = temp_path(&format!("wf{}", CALLS.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_file(&path);
    let mut w = JournalWriter::create(&path, FINGERPRINT, &identities(), None).expect("create");
    for unit in 0..TOTAL_UNITS {
        w.append(&delta(unit)).expect("append");
    }
    drop(w);
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// The invariant every salvage outcome must satisfy: salvaged deltas
/// are a prefix-closed subset of the genuinely written units, in
/// order, each byte-faithful to what was written.
fn assert_salvage_sound(bytes: &[u8], original_units: u32) {
    match read_journal_bytes(bytes) {
        Ok(contents) => {
            // Header fields are attacker-controlled bytes the reader
            // reports but does not vouch for (the resuming pipeline
            // validates them); soundness claims cover only records.
            assert!(
                contents.deltas.len() <= original_units as usize,
                "salvaged more records than were written"
            );
            assert!(
                contents.clean_len as usize <= bytes.len(),
                "clean prefix longer than the input"
            );
            let mut seen = std::collections::HashSet::new();
            for d in &contents.deltas {
                assert!(d.unit < original_units, "invented unit {}", d.unit);
                assert!(seen.insert(d.unit), "duplicate unit {} kept", d.unit);
                // Byte-faithful: the salvaged delta re-encodes to the
                // exact payload the writer produced for this unit.
                assert_eq!(
                    d.encode(),
                    delta(d.unit).encode(),
                    "salvaged unit {} not byte-faithful",
                    d.unit
                );
            }
        }
        Err(
            JournalError::BadMagic
            | JournalError::TruncatedHeader
            | JournalError::Io(_)
            | JournalError::ConfigMismatch { .. }
            | JournalError::GridMismatch { .. },
        ) => {
            // A typed refusal is always an acceptable outcome.
        }
    }
}

#[test]
fn well_formed_journal_roundtrips_completely() {
    let bytes = well_formed();
    let contents = read_journal_bytes(&bytes).expect("well-formed journal must parse");
    assert_eq!(contents.deltas.len(), TOTAL_UNITS as usize);
    assert_eq!(contents.salvage.corrupt_dropped, 0);
    assert_eq!(contents.salvage.dropped_bytes, 0);
    assert_eq!(contents.clean_len as usize, bytes.len());
    for (i, d) in contents.deltas.iter().enumerate() {
        assert_eq!(d.unit, i as u32);
        assert_eq!(d.encode(), delta(d.unit).encode());
    }
}

#[test]
fn every_truncated_prefix_salvages_or_refuses() {
    let bytes = well_formed();
    let mut last_salvaged = 0usize;
    for len in 0..=bytes.len() {
        let prefix = &bytes[..len];
        assert_salvage_sound(prefix, TOTAL_UNITS);
        if let Ok(contents) = read_journal_bytes(prefix) {
            // Longer prefixes never salvage fewer records.
            assert!(
                contents.deltas.len() >= last_salvaged,
                "salvage shrank from {last_salvaged} at prefix {len}"
            );
            last_salvaged = contents.deltas.len();
            // The clean prefix must itself re-read to the same records:
            // resume truncates the file there and trusts the result.
            let reread = read_journal_bytes(&prefix[..contents.clean_len as usize])
                .expect("clean prefix must re-read");
            assert_eq!(reread.deltas.len(), contents.deltas.len());
        }
    }
    assert_eq!(
        last_salvaged, TOTAL_UNITS as usize,
        "the full journal must salvage everything"
    );
}

#[test]
fn seeded_single_bit_flips_never_panic_or_invent_records() {
    let bytes = well_formed();
    let mut rng = StdRng::seed_from_u64(0xB17F11B5);
    // 96 seeded flips, plus the first and last byte deterministically.
    let mut positions: Vec<usize> = (0..96)
        .map(|_| (rng.next_u64() as usize) % bytes.len())
        .collect();
    positions.push(0);
    positions.push(bytes.len() - 1);
    for pos in positions {
        let bit = 1u8 << ((pos * 7) % 8);
        let mut mutated = bytes.clone();
        mutated[pos] ^= bit;
        assert_salvage_sound(&mutated, TOTAL_UNITS);
        // Flips beyond the fixed header prefix may cost records (or
        // mutate the reported identity table) but never refuse the whole
        // journal: magic, fingerprint, and unit count are intact.
        if pos >= 20 {
            let contents = read_journal_bytes(&mutated)
                .expect("body corruption must salvage, not refuse");
            assert!(
                contents.deltas.len() < TOTAL_UNITS as usize
                    || contents.salvage.corrupt_dropped > 0
                    || contents.deltas.len() == TOTAL_UNITS as usize,
                "impossible salvage state"
            );
        }
    }
}

#[test]
fn seeded_random_blobs_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x5EEDB10B);
    for case in 0..64 {
        let len = (rng.next_u64() % 4096) as usize;
        let blob: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Random bytes almost surely fail the magic check; whatever
        // happens must be a typed error or an (empty-ish) salvage.
        match read_journal_bytes(&blob) {
            Ok(contents) => {
                // Only possible if the blob accidentally starts with
                // the magic — records must still be checksum-valid.
                assert_eq!(contents.salvage.records, contents.deltas.len() as u64);
            }
            Err(_) => {}
        }
        // And with a valid header grafted on, the random tail is pure
        // salvage input: typed errors are no longer acceptable.
        let mut grafted = well_formed()[..HEADER_LEN].to_vec();
        grafted.extend_from_slice(&blob);
        let contents = read_journal_bytes(&grafted)
            .unwrap_or_else(|e| panic!("case {case}: valid header + random tail refused: {e}"));
        assert!(
            contents.deltas.is_empty() || contents.salvage.corrupt_dropped > 0 || blob.is_empty(),
            "case {case}: random tail produced records without corruption accounting"
        );
    }
}

#[test]
fn foreign_headers_are_typed_errors() {
    let bytes = well_formed();
    // Wrong magic.
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    assert!(matches!(
        read_journal_bytes(&wrong_magic),
        Err(JournalError::BadMagic)
    ));
    // Header cut short — both inside the fixed prefix and inside the
    // identity table.
    assert!(matches!(
        read_journal_bytes(&bytes[..12]),
        Err(JournalError::TruncatedHeader)
    ));
    assert!(matches!(
        read_journal_bytes(&bytes[..HEADER_LEN - 7]),
        Err(JournalError::TruncatedHeader)
    ));
    assert!(matches!(
        read_journal_bytes(&[]),
        Err(JournalError::TruncatedHeader)
    ));
}
