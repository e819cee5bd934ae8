//! Plaintext PII detection — RQ3 (§6.1, §6.2).
//!
//! "To identify PII exposed in plaintext, we simply search for any PII
//! known (in various encodings) in each device's network traffic."
//!
//! The scanner searches every flow's payload for the device's known
//! identifiers (MAC address in colon / hyphen / bare-hex forms, device id,
//! device name, coarse location) in plain, hex, and base64 encodings, and
//! reports each hit with the destination's party classification — the
//! privacy-relevant part being leaks to non-first parties (§2.1).

use crate::flows::ExperimentFlows;
use iot_geodb::party::{classify, PartyType};
use iot_geodb::registry::GeoDb;
use iot_protocols::http::find_subsequence;
use iot_testbed::catalog;
use iot_testbed::device::{PiiKind, PiiLeak};
use iot_testbed::experiment::LabeledExperiment;
use iot_testbed::lab::LabSite;
use iot_testbed::traffic::DeviceIdentity;
use iot_core::json::{Json, ToJson};
use iot_testbed::util::{base64_encode, hex_encode};

/// One PII exposure finding.
#[derive(Debug, Clone)]
pub struct PiiFinding {
    /// Device whose identifier leaked.
    pub device_name: String,
    /// Deployment site.
    pub site: LabSite,
    /// VPN in effect.
    pub vpn: bool,
    /// What kind of identifier was found.
    pub kind: PiiFindingKind,
    /// Encoding the identifier appeared in.
    pub encoding: &'static str,
    /// Destination domain, when labeled.
    pub domain: Option<String>,
    /// Destination organization, when known.
    pub org: Option<&'static str>,
    /// Destination party type relative to the device.
    pub party: Option<PartyType>,
    /// Experiment label the leak occurred in.
    pub experiment_label: String,
}

impl PiiFinding {
    /// Total ordering for report emission. Findings accumulate in
    /// fold order, which depends on how units land on workers; sorting
    /// by this key before emitting makes the report byte-identical at
    /// any worker count.
    pub fn sort_key(&self) -> impl Ord + '_ {
        (
            self.site,
            self.vpn,
            self.device_name.as_str(),
            self.experiment_label.as_str(),
            self.kind,
            self.encoding,
            self.domain.as_deref(),
            self.org,
        )
    }
}

impl ToJson for PiiFinding {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("device_name", self.device_name.to_json());
        j.set("site", self.site.name().to_json());
        j.set("vpn", self.vpn.to_json());
        j.set("kind", self.kind.name().to_json());
        j.set("encoding", self.encoding.to_json());
        j.set("domain", self.domain.to_json());
        j.set("org", self.org.to_json());
        j.set(
            "party",
            self.party
                .map(|p| match p {
                    PartyType::First => "First",
                    PartyType::Support => "Support",
                    PartyType::Third => "Third",
                })
                .to_json(),
        );
        j.set("experiment_label", self.experiment_label.to_json());
        j
    }
}

/// Identifier families the scanner knows (§6.2's findings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PiiFindingKind {
    /// Device MAC address.
    MacAddress,
    /// Stable device identifier.
    DeviceId,
    /// Coarse geolocation.
    Geolocation,
    /// User-assigned device name.
    DeviceName,
}

impl PiiFindingKind {
    /// Stable label used in report JSON.
    pub fn name(self) -> &'static str {
        match self {
            PiiFindingKind::MacAddress => "MacAddress",
            PiiFindingKind::DeviceId => "DeviceId",
            PiiFindingKind::Geolocation => "Geolocation",
            PiiFindingKind::DeviceName => "DeviceName",
        }
    }
}

impl From<PiiKind> for PiiFindingKind {
    fn from(k: PiiKind) -> Self {
        match k {
            PiiKind::MacAddress => PiiFindingKind::MacAddress,
            PiiKind::DeviceId => PiiFindingKind::DeviceId,
            PiiKind::Geolocation => PiiFindingKind::Geolocation,
            PiiKind::DeviceName => PiiFindingKind::DeviceName,
        }
    }
}

/// Base64 search patterns for `value` at each of the three alignment
/// phases of the encoder input. `base64_encode(value)` alone only
/// matches when the identifier starts at a 3-byte boundary of whatever
/// the device encoded; a leak like `base64(header + mac)` shifts every
/// subsequent character. For phase `p` the value is encoded behind `p`
/// placeholder bytes, then the sextets that mix placeholder or
/// trailing-payload bits (2 leading chars for phase 1, 3 for phase 2,
/// and the final char plus padding when the input length isn't a
/// multiple of 3) are trimmed, leaving only characters fully determined
/// by the value itself.
fn base64_phase_patterns(value: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for phase in 0..3usize {
        let mut padded = vec![0u8; phase];
        padded.extend_from_slice(value);
        let mut enc: Vec<u8> = base64_encode(&padded)
            .bytes()
            .filter(|&b| b != b'=')
            .collect();
        if padded.len() % 3 != 0 {
            enc.pop();
        }
        let skip = match phase {
            0 => 0,
            1 => 2,
            _ => 3,
        };
        let pattern: Vec<u8> = enc.into_iter().skip(skip).collect();
        // Too-short patterns would match unrelated payloads.
        if pattern.len() >= MIN_PATTERN_LEN {
            out.push(pattern);
        }
    }
    out
}

/// Shortest search pattern; [`PiiPatterns::search`] tries a match only
/// where at least this many payload bytes remain.
const MIN_PATTERN_LEN: usize = 4;

/// Word and mask of a two-byte pattern prefix's bit in [`PiiPatterns`]'s
/// 4,096-bit filter, keyed on `(b0 << 4) ^ b1`: distinct pairs may share
/// a bit, which only costs a bucket walk.
fn filter_bit(b0: u8, b1: u8) -> (usize, u64) {
    let key = (usize::from(b0) << 4) ^ usize::from(b1);
    (key >> 6, 1 << (key & 63))
}

/// The search patterns for one device: every identifier in every encoding.
///
/// Compiled for position-major scanning: patterns are bucketed by first
/// byte, so a search makes one pass over the payload and only attempts a
/// `starts_with` where a pattern could actually begin — instead of one
/// full [`find_subsequence`] pass per pattern (~21 passes per payload).
/// A filter over the patterns' first two bytes skips almost every
/// position before its bucket is looked up.
#[derive(Debug, Clone)]
pub struct PiiPatterns {
    patterns: Vec<(PiiFindingKind, &'static str, Vec<u8>)>,
    /// Pattern indices by first byte.
    buckets: Vec<Vec<u16>>,
    /// Bit [`filter_bit`]`(p[0], p[1])` is set for every pattern `p`.
    filter: [u64; 64],
}

impl PiiPatterns {
    /// Builds the pattern set from a device identity.
    ///
    /// # Panics
    /// Panics if an identifier yields a pattern shorter than four bytes
    /// (real identities never do), since `search` would miss it at the
    /// end of a payload.
    pub fn for_identity(identity: &DeviceIdentity) -> Self {
        let mut patterns: Vec<(PiiFindingKind, &'static str, Vec<u8>)> = Vec::new();
        // MAC in its textual wire forms…
        patterns.push((
            PiiFindingKind::MacAddress,
            "plain",
            identity.mac.to_string().into_bytes(),
        ));
        patterns.push((
            PiiFindingKind::MacAddress,
            "plain",
            identity.mac.to_hyphen_string().into_bytes(),
        ));
        patterns.push((
            PiiFindingKind::MacAddress,
            "hex",
            identity.mac.to_bare_string().into_bytes(),
        ));
        // …and base64 of the canonical form, at every alignment phase so
        // identifiers embedded mid-stream are still found.
        for pattern in base64_phase_patterns(identity.mac.to_string().as_bytes()) {
            patterns.push((PiiFindingKind::MacAddress, "base64", pattern));
        }
        for (kind, value) in [
            (PiiFindingKind::DeviceId, identity.device_id.as_str()),
            (PiiFindingKind::Geolocation, identity.location.as_str()),
            (PiiFindingKind::DeviceName, identity.device_name.as_str()),
        ] {
            patterns.push((kind, "plain", value.as_bytes().to_vec()));
            patterns.push((kind, "hex", hex_encode(value.as_bytes()).into_bytes()));
            for pattern in base64_phase_patterns(value.as_bytes()) {
                patterns.push((kind, "base64", pattern));
            }
        }
        // The bitmask in `search` holds one bit per pattern; identities
        // produce ~21, far under the limit.
        assert!(patterns.len() <= 64, "too many PII patterns for bitmask");
        let mut buckets = vec![Vec::new(); 256];
        let mut filter = [0u64; 64];
        for (i, (_, _, pattern)) in patterns.iter().enumerate() {
            assert!(
                pattern.len() >= MIN_PATTERN_LEN,
                "PII pattern {:?} is shorter than {MIN_PATTERN_LEN} bytes",
                String::from_utf8_lossy(pattern)
            );
            buckets[usize::from(pattern[0])].push(i as u16);
            let (word, mask) = filter_bit(pattern[0], pattern[1]);
            filter[word] |= mask;
        }
        PiiPatterns {
            patterns,
            buckets,
            filter,
        }
    }

    /// Searches a payload for any pattern; returns (kind, encoding) hits.
    /// Same hit set as [`PiiPatterns::search_naive`] — a property test
    /// pins the equivalence.
    pub fn search(&self, payload: &[u8]) -> Vec<(PiiFindingKind, &'static str)> {
        let total = self.patterns.len();
        let mut found = 0u64;
        let mut nfound = 0usize;
        'scan: for (i, w) in payload.windows(MIN_PATTERN_LEN).enumerate() {
            let (word, mask) = filter_bit(w[0], w[1]);
            if self.filter[word] & mask == 0 {
                continue;
            }
            for &pi in &self.buckets[usize::from(w[0])] {
                let bit = 1u64 << pi;
                if found & bit != 0 {
                    continue;
                }
                let pattern = &self.patterns[usize::from(pi)].2;
                if payload[i..].starts_with(pattern) {
                    found |= bit;
                    nfound += 1;
                    if nfound == total {
                        break 'scan;
                    }
                }
            }
        }
        let mut hits: Vec<(PiiFindingKind, &'static str)> = self
            .patterns
            .iter()
            .enumerate()
            .filter(|(i, _)| found & (1u64 << i) != 0)
            .map(|(_, (kind, encoding, _))| (*kind, *encoding))
            .collect();
        hits.sort();
        hits.dedup();
        hits
    }

    /// The pre-optimization pattern-major search, retained as the
    /// reference implementation for equivalence tests.
    pub fn search_naive(&self, payload: &[u8]) -> Vec<(PiiFindingKind, &'static str)> {
        let mut hits = Vec::new();
        for (kind, encoding, pattern) in &self.patterns {
            if find_subsequence(payload, pattern).is_some() {
                hits.push((*kind, *encoding));
            }
        }
        hits.sort();
        hits.dedup();
        hits
    }
}

/// Per-shard cache of compiled [`PiiPatterns`], keyed like the pipeline's
/// identity map. Building a pattern set base64-encodes every identifier
/// at three phases; doing that once per (device, site) instead of once
/// per experiment is pure win — the patterns are a function of the
/// identity alone.
#[derive(Default)]
pub struct PatternCache {
    map: std::collections::HashMap<(&'static str, LabSite), PiiPatterns>,
}

impl PatternCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The compiled patterns for `identity`, building them on first use.
    pub fn get(
        &mut self,
        device: &'static str,
        site: LabSite,
        identity: &DeviceIdentity,
    ) -> &PiiPatterns {
        self.map
            .entry((device, site))
            .or_insert_with(|| PiiPatterns::for_identity(identity))
    }
}

/// Scans one labeled flow's payloads; returns the deduplicated
/// (kind, encoding) hits in sorted order.
pub(crate) fn scan_flow(
    patterns: &PiiPatterns,
    lf: &crate::flows::LabeledFlow,
) -> Vec<(PiiFindingKind, &'static str)> {
    let mut hits = patterns.search(&lf.flow.payload_out);
    hits.extend(patterns.search(&lf.flow.payload_in));
    hits.sort();
    hits.dedup();
    hits
}

/// Builds and appends the findings for one flow's hits.
pub(crate) fn findings_for_flow(
    db: &GeoDb,
    exp: &LabeledExperiment,
    manufacturer_org: &'static str,
    lf: &crate::flows::LabeledFlow,
    hits: Vec<(PiiFindingKind, &'static str)>,
    findings: &mut Vec<PiiFinding>,
) {
    let (org, role) = match lf.domain.as_deref().and_then(|d| db.org_for_domain(d)) {
        Some((o, r)) => (Some(o), Some(r)),
        None => (db.whois_ip(lf.remote_ip()).map(|(o, _, _)| o), None),
    };
    let party = org.map(|o| classify(o, role, manufacturer_org));
    for (kind, encoding) in hits {
        findings.push(PiiFinding {
            device_name: exp.device_name.to_string(),
            site: exp.site,
            vpn: exp.vpn,
            kind,
            encoding,
            domain: lf.domain.as_deref().map(str::to_string),
            org: org.map(|o| o.name),
            party,
            experiment_label: exp.label.clone(),
        });
    }
}

/// Scans one experiment's flows for PII exposure.
pub fn scan_experiment(
    db: &GeoDb,
    exp: &LabeledExperiment,
    flows: &ExperimentFlows,
    identity: &DeviceIdentity,
) -> Vec<PiiFinding> {
    let patterns = PiiPatterns::for_identity(identity);
    let spec = match catalog::by_name(exp.device_name) {
        Some(s) => s,
        None => return Vec::new(),
    };
    let mut findings = Vec::new();
    for lf in flows.internet_flows() {
        let hits = scan_flow(&patterns, lf);
        if hits.is_empty() {
            continue;
        }
        findings_for_flow(db, exp, spec.manufacturer_org, lf, hits, &mut findings);
    }
    findings
}

/// Expected leaks for a device at a site (ground truth from the catalog),
/// used to validate scanner completeness.
pub fn expected_leaks(device: &str, site: LabSite) -> Vec<&'static PiiLeak> {
    catalog::by_name(device)
        .map(|spec| {
            spec.pii_leaks
                .iter()
                .filter(|l| l.site_filter.is_none_or(|s| s == site))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_testbed::experiment::{run_interaction, run_power};
    use iot_testbed::lab::Lab;
    use iot_testbed::traffic::identity_of;

    fn scan_power(device: &str, site: LabSite) -> Vec<PiiFinding> {
        let db = GeoDb::new();
        let lab = Lab::deploy(site);
        let dev = lab.device(device).unwrap();
        let exp = run_power(&db, dev, false, 0, 0);
        let flows = ExperimentFlows::from_experiment(&exp);
        scan_experiment(&db, &exp, &flows, &identity_of(dev))
    }

    #[test]
    fn fridge_mac_leak_found_and_attributed() {
        let findings = scan_power("Samsung Fridge", LabSite::Us);
        let mac_hits: Vec<_> = findings
            .iter()
            .filter(|f| f.kind == PiiFindingKind::MacAddress)
            .collect();
        assert!(!mac_hits.is_empty(), "fridge leaks MAC on power");
        let hit = &mac_hits[0];
        assert_eq!(hit.org, Some("Amazon"), "leak goes to an EC2 domain");
        assert_eq!(hit.party, Some(PartyType::Support));
    }

    #[test]
    fn magichome_mac_leak_found_in_both_labs() {
        for site in LabSite::all() {
            let findings = scan_power("Magichome Strip", site);
            assert!(
                findings.iter().any(|f| f.kind == PiiFindingKind::MacAddress),
                "{site:?}"
            );
        }
    }

    #[test]
    fn insteon_leak_only_in_uk() {
        assert!(
            !scan_power("Insteon Hub", LabSite::Us)
                .iter()
                .any(|f| f.kind == PiiFindingKind::MacAddress),
            "US Insteon must not leak"
        );
        assert!(
            scan_power("Insteon Hub", LabSite::Uk)
                .iter()
                .any(|f| f.kind == PiiFindingKind::MacAddress),
            "UK Insteon leaks MAC"
        );
    }

    #[test]
    fn xiaomi_camera_motion_leak() {
        let db = GeoDb::new();
        let lab = Lab::deploy(LabSite::Uk);
        let dev = lab.device("Xiaomi Cam").unwrap();
        let spec = dev.spec();
        let act = spec.activity("move").unwrap();
        let exp = run_interaction(&db, dev, act, act.methods[0], false, 0, 0);
        let flows = ExperimentFlows::from_experiment(&exp);
        let findings = scan_experiment(&db, &exp, &flows, &identity_of(dev));
        assert!(
            findings.iter().any(|f| f.kind == PiiFindingKind::MacAddress),
            "Xiaomi Cam sends MAC on motion"
        );
    }

    #[test]
    fn encrypted_devices_do_not_leak() {
        let findings = scan_power("Echo Dot", LabSite::Us);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn hex_and_base64_encodings_detected() {
        let lab = Lab::deploy(LabSite::Us);
        let dev = lab.device("Sengled Hub").unwrap(); // leaks MAC as hex via MQTT
        let identity = identity_of(dev);
        let patterns = PiiPatterns::for_identity(&identity);
        let payload = format!("noise {} noise", identity.mac.to_bare_string());
        let hits = patterns.search(payload.as_bytes());
        assert!(hits.contains(&(PiiFindingKind::MacAddress, "hex")));
        let b64 = base64_encode(identity.device_id.as_bytes());
        let hits2 = patterns.search(format!("x{b64}y").as_bytes());
        assert!(hits2.contains(&(PiiFindingKind::DeviceId, "base64")));
    }

    #[test]
    fn base64_mac_embedded_mid_payload_detected() {
        // The device encodes a larger message that *contains* the MAC —
        // e.g. base64("id=<mac>&fw=1.2") — so the MAC starts at offsets
        // 1 and 2 of the encoder input and every base64 character after
        // it is phase-shifted relative to base64(mac) alone.
        let lab = Lab::deploy(LabSite::Us);
        let dev = lab.device("Sengled Hub").unwrap();
        let identity = identity_of(dev);
        let patterns = PiiPatterns::for_identity(&identity);
        let mac = identity.mac.to_string();
        for prefix in ["i", "id"] {
            let message = format!("{prefix}{mac}&fw=1.2.7");
            let stream = base64_encode(message.as_bytes());
            let payload = format!("POST /report {stream} HTTP/1.1");
            let hits = patterns.search(payload.as_bytes());
            assert!(
                hits.contains(&(PiiFindingKind::MacAddress, "base64")),
                "MAC at encoder offset {} not found in {payload:?}",
                prefix.len()
            );
        }
    }

    #[test]
    fn base64_phase_patterns_are_stable_substrings() {
        // Each phase pattern must appear in the encoding of *any*
        // message embedding the value at that offset — the trimmed
        // sextets are exactly the ones that depend on surrounding bytes.
        let value = b"ab:cd:ef:00:11:22";
        let pats = base64_phase_patterns(value);
        assert_eq!(pats.len(), 3);
        for (phase, pat) in pats.iter().enumerate() {
            for surround in [&b"xyz"[..], &b"0123456789"[..]] {
                let mut message = surround[..phase].to_vec();
                message.extend_from_slice(value);
                message.extend_from_slice(surround);
                let enc = base64_encode(&message);
                assert!(
                    find_subsequence(enc.as_bytes(), pat).is_some(),
                    "phase {phase} pattern {:?} missing from {enc}",
                    String::from_utf8_lossy(pat)
                );
            }
        }
    }

    #[test]
    fn expected_leaks_honor_site_filter() {
        assert!(expected_leaks("Insteon Hub", LabSite::Us).is_empty());
        assert_eq!(expected_leaks("Insteon Hub", LabSite::Uk).len(), 1);
        assert_eq!(expected_leaks("Nonexistent", LabSite::Us).len(), 0);
    }

    /// Property test (tentpole contract): the bucketed position-major
    /// scanner returns exactly the hit set of the pattern-major
    /// [`PiiPatterns::search_naive`] reference, across ≥64 seeded payloads
    /// per identity — noise, embedded identifiers (every encoding, at
    /// random offsets, back to back, truncated), empty and 1-byte inputs.
    #[test]
    fn fast_search_matches_naive_seeded() {
        let lab = Lab::deploy(LabSite::Us);
        let mut rng = iot_core::rng::StdRng::seed_from_u64(0x5CA7_7E57);
        for device in ["Sengled Hub", "Samsung Fridge", "Wansview Cam"] {
            let identity = identity_of(lab.device(device).unwrap());
            let patterns = PiiPatterns::for_identity(&identity);
            let mut planted: Vec<Vec<u8>> = vec![
                identity.mac.to_string().into_bytes(),
                identity.mac.to_bare_string().into_bytes(),
                base64_encode(identity.device_id.as_bytes()).into_bytes(),
                hex_encode(identity.location.as_bytes()).into_bytes(),
                identity.device_name.clone().into_bytes(),
            ];
            // Truncated identifier: must *not* match (too short), and both
            // implementations must agree on that too.
            planted.push(identity.mac.to_string().as_bytes()[..5].to_vec());
            for case in 0..72u32 {
                let payload: Vec<u8> = match case % 6 {
                    0 => Vec::new(),
                    1 => vec![rng.gen::<u8>()],
                    2 => {
                        // Pure noise.
                        let mut v = vec![0u8; rng.gen_range(1usize..512)];
                        rng.fill(&mut v);
                        v
                    }
                    3 => {
                        // One identifier at a random offset in noise.
                        let mut v = vec![0u8; rng.gen_range(0usize..128)];
                        rng.fill(&mut v);
                        let p = &planted[rng.gen_range(0usize..planted.len())];
                        v.extend_from_slice(p);
                        let mut tail = vec![0u8; rng.gen_range(0usize..128)];
                        rng.fill(&mut tail);
                        v.extend_from_slice(&tail);
                        v
                    }
                    4 => {
                        // Several identifiers back to back.
                        let mut v = Vec::new();
                        for _ in 0..rng.gen_range(2usize..5) {
                            v.extend_from_slice(&planted[rng.gen_range(0usize..planted.len())]);
                            v.push(rng.gen::<u8>());
                        }
                        v
                    }
                    _ => {
                        // Text-like payload with one plain identifier.
                        let mut v = format!(
                            "POST /r?id={} HTTP/1.1\r\n",
                            identity.device_id
                        )
                        .into_bytes();
                        let mut tail = vec![0u8; rng.gen_range(0usize..64)];
                        rng.fill(&mut tail);
                        v.extend_from_slice(&tail);
                        v
                    }
                };
                let fast = patterns.search(&payload);
                let naive = patterns.search_naive(&payload);
                assert_eq!(fast, naive, "{device} case {case} len {}", payload.len());
            }
        }
    }

    /// The two-byte prefilter and the scan's end bound against
    /// [`PiiPatterns::search_naive`], at their edges: every identity of
    /// both labs, plus one whose four-byte identifiers put patterns at
    /// exactly [`MIN_PATTERN_LEN`]. Each pattern is planted at offset 0,
    /// flush with the payload's end and as the whole payload; payloads
    /// of 0–3 bytes; and noise drawn only from the patterns' own bytes,
    /// so the filter passes often and its 12-bit key collides.
    #[test]
    fn filtered_search_matches_naive_at_the_edges() {
        let mut rng = iot_core::rng::StdRng::seed_from_u64(0xF117_E2ED);
        let mut identities: Vec<DeviceIdentity> = LabSite::all()
            .into_iter()
            .flat_map(|site| {
                Lab::deploy(site)
                    .devices
                    .iter()
                    .map(identity_of)
                    .collect::<Vec<_>>()
            })
            .collect();
        identities.push(DeviceIdentity {
            mac: iot_net::mac::MacAddr::new(0x02, 0, 0, 0, 0, 0x01),
            device_id: "0a1b".into(),
            device_name: "Hall".into(),
            location: "Oslo".into(),
        });
        let mut collisions = 0usize;
        for identity in &identities {
            let patterns = PiiPatterns::for_identity(identity);
            let alphabet: Vec<u8> = patterns
                .patterns
                .iter()
                .flat_map(|p| p.2.iter().copied())
                .collect();
            let mut noise = |lens: std::ops::Range<usize>| -> Vec<u8> {
                let len = rng.gen_range(lens);
                (0..len)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect()
            };
            let check = |payload: &[u8]| {
                assert_eq!(
                    patterns.search(payload),
                    patterns.search_naive(payload),
                    "{} in {:?}",
                    identity.device_name,
                    String::from_utf8_lossy(payload)
                );
            };
            for (_, _, pattern) in &patterns.patterns {
                check(pattern);
                check(&[pattern.clone(), noise(1..32)].concat());
                check(&[noise(1..32), pattern.clone()].concat());
                check(&pattern[..MIN_PATTERN_LEN - 1]);
            }
            for len in 0..MIN_PATTERN_LEN {
                check(&noise(len..len + 1));
            }
            for _ in 0..16 {
                let payload = noise(MIN_PATTERN_LEN..256);
                check(&payload);
                collisions += payload
                    .windows(2)
                    .filter(|w| {
                        let (word, mask) = filter_bit(w[0], w[1]);
                        patterns.filter[word] & mask != 0
                            && !patterns.patterns.iter().any(|p| p.2.starts_with(w))
                    })
                    .count();
            }
        }
        assert!(
            collisions > 0,
            "the noise never exercised a filter collision"
        );
    }

    /// Scanner completeness: every cataloged leak is detected in the
    /// experiment matching its trigger.
    #[test]
    fn scanner_finds_every_cataloged_power_leak() {
        let db = GeoDb::new();
        for site in LabSite::all() {
            let lab = Lab::deploy(site);
            for dev in &lab.devices {
                let power_leaks: Vec<_> = expected_leaks(dev.spec().name, site)
                    .into_iter()
                    .filter(|l| matches!(l.trigger, iot_testbed::device::PiiTrigger::OnPower))
                    .collect();
                if power_leaks.is_empty() {
                    continue;
                }
                let exp = run_power(&db, dev, false, 0, 0);
                let flows = ExperimentFlows::from_experiment(&exp);
                let findings = scan_experiment(&db, &exp, &flows, &identity_of(dev));
                for leak in power_leaks {
                    let kind: PiiFindingKind = leak.kind.into();
                    assert!(
                        findings.iter().any(|f| f.kind == kind),
                        "{} at {site:?}: cataloged {kind:?} leak not detected",
                        dev.spec().name
                    );
                }
            }
        }
    }
}
