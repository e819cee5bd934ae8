//! On-disk capture layout, mirroring the Mon(IoT)r testbed's data format:
//! one pcap per device MAC plus per-experiment label files describing
//! which packets belong to which labeled interaction (§3.2 "Data
//! collection": "different files for each MAC address … labels (stored in
//! additional pcap files) to isolate the traffic produced during specific
//! interactions").
//!
//! ```text
//! <root>/<lab>/<device-id>/
//!     capture.pcap            # everything the gateway saw from this MAC
//!     labels.tsv              # start_us \t end_us \t label \t rep
//! ```
//!
//! Captures written here round-trip through the byte-exact pcap layer, so
//! external tools (tcpdump, Wireshark, the authors' own analysis scripts)
//! can consume them directly.

use crate::experiment::LabeledExperiment;
use crate::lab::LabSite;
use iot_net::packet::Packet;
use iot_net::pcap::{from_bytes_lenient, Capture, SalvageStats};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// One label row: a time range of the device's capture tagged with the
/// experiment label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSpan {
    /// First packet timestamp (µs).
    pub start_micros: u64,
    /// Last packet timestamp (µs).
    pub end_micros: u64,
    /// Experiment label (e.g. `android_wan_on`).
    pub label: String,
    /// Repetition index.
    pub rep: u32,
}

/// Accumulates experiments for one deployment and writes the on-disk
/// layout.
#[derive(Debug, Default)]
pub struct CaptureStore {
    devices: BTreeMap<(LabSite, String), DeviceLog>,
}

/// Everything stored for one (lab, device-id).
#[derive(Debug, Default)]
struct DeviceLog {
    /// Time-ordered records, encoded as they are appended.
    capture: Capture,
    labels: Vec<LabelSpan>,
    /// Running clock so consecutive experiments do not overlap.
    clock: u64,
    /// The first record the pcap format could not hold (a shifted
    /// timestamp past 2106); `write_to` reports it.
    unwritable: Option<iot_net::Error>,
}

/// Gap inserted between appended experiments (µs).
const EXPERIMENT_GAP: u64 = 30_000_000;

impl CaptureStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one experiment's capture, shifting its timestamps onto the
    /// device's running clock (experiments are generated starting at t≈0).
    pub fn append(&mut self, exp: &LabeledExperiment) {
        let device_id = crate::catalog::by_name(exp.device_name)
            .map(|s| s.id())
            .unwrap_or_else(|| exp.device_name.to_ascii_lowercase());
        let log = self.devices.entry((exp.site, device_id)).or_default();
        let base = log.clock;
        let mut first = None;
        let mut end = base;
        for v in exp.capture.views() {
            let v = v.expect("generated captures are well formed");
            let ts = base + v.ts_micros;
            first.get_or_insert(ts);
            end = end.max(ts);
            if let Err(e) = log.capture.push(ts, v.data) {
                log.unwritable.get_or_insert(e);
            }
        }
        if let Some(start_micros) = first {
            log.labels.push(LabelSpan {
                start_micros,
                end_micros: end,
                label: exp.label.clone(),
                rep: exp.rep,
            });
        }
        log.clock = end + EXPERIMENT_GAP;
    }

    /// Devices stored, as (lab, device-id) pairs.
    pub fn devices(&self) -> impl Iterator<Item = &(LabSite, String)> {
        self.devices.keys()
    }

    /// Writes the Mon(IoT)r-style directory under `root`; returns the
    /// paths written. Fails on a device whose shifted timestamps ran past
    /// what the pcap format can hold.
    pub fn write_to(&self, root: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        for ((site, device_id), log) in &self.devices {
            if let Some(e) = &log.unwritable {
                return Err(std::io::Error::other(e.to_string()));
            }
            let dir = root.join(site.name().to_lowercase()).join(device_id);
            std::fs::create_dir_all(&dir)?;
            let pcap_path = dir.join("capture.pcap");
            std::fs::write(&pcap_path, log.capture.as_bytes())?;
            written.push(pcap_path);

            let labels_path = dir.join("labels.tsv");
            let mut f = BufWriter::new(File::create(&labels_path)?);
            writeln!(f, "# start_us\tend_us\tlabel\trep")?;
            for span in &log.labels {
                writeln!(
                    f,
                    "{}\t{}\t{}\t{}",
                    span.start_micros, span.end_micros, span.label, span.rep
                )?;
            }
            f.flush()?;
            written.push(labels_path);
        }
        Ok(written)
    }
}

/// Reads a device directory back into (packets, labels, salvage stats).
///
/// The pcap is loaded whole and read by the lenient cursor: a capture
/// with a torn tail or corrupt record headers — routine for a tcpdump
/// that ran unattended for months — yields every record that can still
/// be framed instead of discarding the whole device directory.
/// `stats.is_pristine()` tells callers whether anything was actually
/// lost.
pub fn read_device_dir(
    dir: &Path,
) -> std::io::Result<(Vec<Packet>, Vec<LabelSpan>, SalvageStats)> {
    let (packets, stats) = from_bytes_lenient(&std::fs::read(dir.join("capture.pcap"))?)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut labels = Vec::new();
    let f = BufReader::new(File::open(dir.join("labels.tsv"))?);
    for line in f.lines() {
        let line = line?;
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let mut cols = line.split('\t');
        let start_micros = label_column(cols.next(), &line)?;
        let end_micros = label_column(cols.next(), &line)?;
        let label = cols
            .next()
            .ok_or_else(|| std::io::Error::other("missing label"))?
            .to_string();
        let rep = label_column(cols.next(), &line)?;
        labels.push(LabelSpan {
            start_micros,
            end_micros,
            label,
            rep,
        });
    }
    Ok((packets, labels, stats))
}

/// Parses one numeric `labels.tsv` column; a missing, malformed or
/// out-of-range value is a bad row.
fn label_column<T: std::str::FromStr>(col: Option<&str>, line: &str) -> std::io::Result<T> {
    col.and_then(|v| v.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad label row: {line:?}")))
}

/// Slices a capture by a label span (inclusive bounds), the read-side
/// counterpart of the testbed's label isolation.
///
/// Returns the contiguous hull of in-span packets: everything from the
/// first to the last packet whose timestamp lies in the span. On a
/// monotonic capture this is exactly the binary-search window the old
/// implementation computed; on a degraded capture (fault-injected or
/// real clock skew leaving timestamps non-monotonic, where binary
/// search silently returns wrong — even inverted — bounds) the hull may
/// also include out-of-span packets trapped between in-span ones, which
/// is the right salvage semantics for a mildly skewed clock. Inverted or
/// fully out-of-range spans yield an empty slice — never a panic. The
/// scan is O(n): correctness on damaged inputs is worth more here than
/// a logarithm in a read-side inspection path.
pub fn slice_by_label<'a>(packets: &'a [Packet], span: &LabelSpan) -> &'a [Packet] {
    if span.end_micros < span.start_micros || packets.is_empty() {
        return &packets[..0];
    }
    let in_span =
        |p: &Packet| p.ts_micros >= span.start_micros && p.ts_micros <= span.end_micros;
    match packets.iter().position(in_span) {
        Some(first) => {
            let last = packets.iter().rposition(in_span).expect("position found one");
            &packets[first..=last]
        }
        None => &packets[..0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_interaction, run_power};
    use crate::lab::Lab;
    use iot_geodb::registry::GeoDb;

    fn store_with_experiments() -> (CaptureStore, Vec<LabeledExperiment>) {
        let db = GeoDb::new();
        let lab = Lab::deploy(LabSite::Us);
        let dev = lab.device("TP-Link Plug").unwrap();
        let mut store = CaptureStore::new();
        let mut exps = vec![run_power(&db, dev, false, 0, 0)];
        let spec = dev.spec();
        let act = spec.activity("on").unwrap();
        exps.push(run_interaction(&db, dev, act, act.methods[0], false, 0, 0));
        exps.push(run_interaction(&db, dev, act, act.methods[0], false, 1, 0));
        for e in &exps {
            store.append(e);
        }
        (store, exps)
    }

    #[test]
    fn append_shifts_clock_monotonically() {
        let (store, exps) = store_with_experiments();
        let key = (LabSite::Us, "tp-link-plug".to_string());
        let packets = store.devices[&key].capture.to_packets();
        for w in packets.windows(2) {
            assert!(w[0].ts_micros <= w[1].ts_micros);
        }
        assert_eq!(
            packets.len(),
            exps.iter().map(|e| e.packet_count() as usize).sum::<usize>()
        );
        let labels = &store.devices[&key].labels;
        assert_eq!(labels.len(), 3);
        assert_eq!(labels[0].label, "power");
        // Labels do not overlap.
        for w in labels.windows(2) {
            assert!(w[0].end_micros < w[1].start_micros);
        }
    }

    #[test]
    fn disk_roundtrip_and_label_slicing() {
        let (store, exps) = store_with_experiments();
        let dir = std::env::temp_dir().join(format!("intl-iot-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written = store.write_to(&dir).unwrap();
        assert_eq!(written.len(), 2, "pcap + labels for one device");

        let device_dir = dir.join("us").join("tp-link-plug");
        let (packets, labels, salvage) = read_device_dir(&device_dir).unwrap();
        assert!(salvage.is_pristine(), "{salvage:?}");
        assert_eq!(labels.len(), 3);
        // Each label slice contains exactly its experiment's packets.
        for (span, exp) in labels.iter().zip(&exps) {
            let slice = slice_by_label(&packets, span);
            assert_eq!(slice.len(), exp.packet_count() as usize, "{}", span.label);
            // Payload bytes survive the disk round-trip.
            assert_eq!(slice[0].data, exp.packets()[0].data);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slice_bounds() {
        let (store, _) = store_with_experiments();
        let key = (LabSite::Us, "tp-link-plug".to_string());
        let packets = store.devices[&key].capture.to_packets();
        let empty = LabelSpan {
            start_micros: u64::MAX - 1,
            end_micros: u64::MAX,
            label: "none".into(),
            rep: 0,
        };
        assert!(slice_by_label(&packets, &empty).is_empty());
    }

    #[test]
    fn label_rep_past_u32_is_a_bad_row() {
        let (store, _) = store_with_experiments();
        let dir = std::env::temp_dir().join(format!("intl-iot-rep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store.write_to(&dir).unwrap();
        let device_dir = dir.join("us").join("tp-link-plug");
        // 2^32 + 1 would wrap to rep 1 under a cast.
        std::fs::write(
            device_dir.join("labels.tsv"),
            "# start_us\tend_us\tlabel\trep\n0\t10\tpower\t4294967297\n",
        )
        .unwrap();
        let err = read_device_dir(&device_dir).unwrap_err();
        assert!(err.to_string().contains("bad label row"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_to_fails_past_the_pcap_timestamp_range() {
        let (_, exps) = store_with_experiments();
        // The power experiment moved to end exactly at the format's last
        // timestamp: appended once it fits, but the running clock shifts
        // a second copy past 2106.
        let last = exps[0]
            .capture
            .views()
            .map(|v| v.unwrap().ts_micros)
            .max()
            .unwrap();
        let mut late = exps[0].clone();
        late.capture = Capture::new();
        for v in exps[0].capture.views() {
            let v = v.unwrap();
            late.capture
                .push(iot_net::pcap::MAX_TS_MICROS - last + v.ts_micros, v.data)
                .unwrap();
        }
        let dir = std::env::temp_dir().join(format!("intl-iot-2106-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CaptureStore::new();
        store.append(&late);
        store.write_to(&dir).unwrap();
        store.append(&late);
        let err = store.write_to(&dir).unwrap_err();
        assert!(err.to_string().contains("u32 seconds"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn span(start: u64, end: u64) -> LabelSpan {
        LabelSpan {
            start_micros: start,
            end_micros: end,
            label: "t".into(),
            rep: 0,
        }
    }

    fn pkts(ts: &[u64]) -> Vec<Packet> {
        ts.iter().map(|&t| Packet::new(t, vec![0u8; 8])).collect()
    }

    #[test]
    fn slice_tolerates_inverted_span() {
        let packets = pkts(&[10, 20, 30]);
        assert!(slice_by_label(&packets, &span(30, 10)).is_empty());
    }

    #[test]
    fn slice_tolerates_skewed_timestamps() {
        // A clock-skewed capture: packet 25 regressed behind 40. Binary
        // search over this order is meaningless; the hull fallback must
        // still find the in-span packets without panicking.
        let packets = pkts(&[10, 40, 25, 50, 30, 90]);
        let slice = slice_by_label(&packets, &span(20, 45));
        assert!(!slice.is_empty());
        assert_eq!(slice[0].ts_micros, 40);
        assert_eq!(slice[slice.len() - 1].ts_micros, 30);
        // Hull semantics: from first to last in-span packet, inclusive
        // of the out-of-span 50 trapped between them.
        assert_eq!(
            slice.iter().map(|p| p.ts_micros).collect::<Vec<_>>(),
            [40, 25, 50, 30]
        );
    }

    #[test]
    fn slice_finds_packets_binary_search_misses() {
        // Sorted-looking prefix hides the in-span packet from binary
        // search: partition_point lands on an empty window here.
        let packets = pkts(&[100, 5, 200]);
        let slice = slice_by_label(&packets, &span(4, 6));
        assert_eq!(slice.len(), 1);
        assert_eq!(slice[0].ts_micros, 5);
    }

    #[test]
    fn slice_outside_range_is_empty_not_panic() {
        let packets = pkts(&[10, 20, 30]);
        assert!(slice_by_label(&packets, &span(0, 5)).is_empty());
        assert!(slice_by_label(&packets, &span(31, 99)).is_empty());
        assert!(slice_by_label(&[], &span(0, 5)).is_empty());
        // Straddling spans clamp to the packets that exist.
        assert_eq!(slice_by_label(&packets, &span(0, 15)).len(), 1);
        assert_eq!(slice_by_label(&packets, &span(25, 99)).len(), 1);
    }

    #[test]
    fn lenient_read_survives_torn_capture() {
        let (store, _) = store_with_experiments();
        let dir = std::env::temp_dir().join(format!("intl-iot-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store.write_to(&dir).unwrap();
        let device_dir = dir.join("us").join("tp-link-plug");
        // Tear the capture mid-record, as a killed tcpdump would.
        let pcap = device_dir.join("capture.pcap");
        let bytes = std::fs::read(&pcap).unwrap();
        std::fs::write(&pcap, &bytes[..bytes.len() - 7]).unwrap();
        let (packets, labels, salvage) = read_device_dir(&device_dir).unwrap();
        assert!(!salvage.is_pristine());
        assert!(salvage.torn_tail_bytes > 0);
        assert_eq!(labels.len(), 3, "labels are independent of the tear");
        assert!(!packets.is_empty(), "everything before the tear survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
