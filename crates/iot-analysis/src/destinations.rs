//! Destination analysis — RQ1 (§4, Tables 2–4, Figure 2).
//!
//! Labels every flow's destination with a party type (first / support /
//! third, relative to the device manufacturer), an organization, and a
//! country (via Passport-style inference), then aggregates unique
//! destinations across labs, egress configurations, experiment types,
//! device categories, and organizations.

use crate::flows::ExperimentFlows;
use iot_geodb::geo::{Country, Region};
use iot_geodb::party::{classify, PartyType};
use iot_geodb::registry::GeoDb;
use iot_geodb::passport;
use iot_testbed::catalog;
use iot_testbed::device::{ActivityKind, Availability, Category};
use iot_testbed::experiment::{ExperimentKind, LabeledExperiment};
use iot_testbed::lab::LabSite;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Experiment-type groups of Table 2's rows. A single experiment can fall
/// into several (every controlled experiment is also "Control").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExpGroup {
    /// Idle captures.
    Idle,
    /// All controlled experiments (power + interactions).
    Control,
    /// Power experiments.
    Power,
    /// Voice interactions.
    Voice,
    /// Video interactions.
    Video,
}

impl ExpGroup {
    /// Table 2 row order.
    pub fn all() -> &'static [ExpGroup] {
        &[
            ExpGroup::Idle,
            ExpGroup::Control,
            ExpGroup::Power,
            ExpGroup::Voice,
            ExpGroup::Video,
        ]
    }

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            ExpGroup::Idle => "Idle",
            ExpGroup::Control => "Control",
            ExpGroup::Power => "Power",
            ExpGroup::Voice => "Voice",
            ExpGroup::Video => "Video",
        }
    }

    fn bit(self) -> u8 {
        match self {
            ExpGroup::Idle => 1,
            ExpGroup::Control => 2,
            ExpGroup::Power => 4,
            ExpGroup::Voice => 8,
            ExpGroup::Video => 16,
        }
    }
}

/// The eight column contexts used throughout the paper's tables:
/// (lab, VPN?) × (all devices | common devices only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnCtx {
    /// Lab site.
    pub site: LabSite,
    /// VPN egress in effect.
    pub vpn: bool,
    /// Restrict to the 26 common devices.
    pub common_only: bool,
}

impl ColumnCtx {
    /// The standard eight columns, in the paper's order:
    /// US, UK, US∩, UK∩, VPN US→UK, VPN UK→US, VPN US∩, VPN UK∩.
    pub fn standard() -> [ColumnCtx; 8] {
        [
            ColumnCtx { site: LabSite::Us, vpn: false, common_only: false },
            ColumnCtx { site: LabSite::Uk, vpn: false, common_only: false },
            ColumnCtx { site: LabSite::Us, vpn: false, common_only: true },
            ColumnCtx { site: LabSite::Uk, vpn: false, common_only: true },
            ColumnCtx { site: LabSite::Us, vpn: true, common_only: false },
            ColumnCtx { site: LabSite::Uk, vpn: true, common_only: false },
            ColumnCtx { site: LabSite::Us, vpn: true, common_only: true },
            ColumnCtx { site: LabSite::Uk, vpn: true, common_only: true },
        ]
    }

    /// Column header, e.g. `"US∩"` or `"US→UK"`.
    pub fn header(&self) -> String {
        let base = match (self.site, self.vpn) {
            (LabSite::Us, false) => "US".to_string(),
            (LabSite::Uk, false) => "UK".to_string(),
            (LabSite::Us, true) => "US→UK".to_string(),
            (LabSite::Uk, true) => "UK→US".to_string(),
        };
        if self.common_only {
            format!("{base}∩")
        } else {
            base
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ObsKey {
    site: LabSite,
    vpn: bool,
    device: &'static str,
    /// Interned: a labeled flow's domain `Arc` is shared with the flow
    /// itself, and bare-IP keys are memoized per remote address, so
    /// re-observing a known destination never allocates (the steady
    /// state the pipeline's zero-allocation test pins).
    dest_key: Arc<str>,
}

#[derive(Debug, Clone)]
struct ObsVal {
    party: PartyType,
    org_name: Option<&'static str>,
    country: Option<Country>,
    /// Party-granularity key: the full host name when known, otherwise the
    /// owning organization (so a camera's dozens of P2P relay IPs count as
    /// one contacted party, matching Table 2's accounting).
    party_key: String,
    bytes: u64,
    groups: u8,
}

/// Per-experiment destination-labeling context — everything the per-flow
/// body needs that is constant across an experiment's flows, computed once
/// before the fused loop.
pub(crate) struct DestCtx {
    manufacturer_org: &'static str,
    egress: Region,
    groups: u8,
}

impl DestCtx {
    /// `None` when the device is unknown to the catalog (such experiments
    /// contribute no destination observations).
    pub(crate) fn of(exp: &LabeledExperiment) -> Option<DestCtx> {
        let spec = catalog::by_name(exp.device_name)?;
        Some(DestCtx {
            manufacturer_org: spec.manufacturer_org,
            egress: exp.site.egress(exp.vpn),
            groups: DestinationAnalysis::groups_of(exp),
        })
    }
}

/// Accumulates destination observations across experiments.
pub struct DestinationAnalysis {
    db: &'static GeoDb,
    observations: HashMap<ObsKey, ObsVal>,
    /// Result-neutral memo of `ip:a.b.c.d` key strings for flows with no
    /// domain label. Never merged: it is a cache keyed by full content,
    /// so shards rebuilding entries independently cannot diverge.
    ip_keys: HashMap<Ipv4Addr, Arc<str>>,
}

impl Default for DestinationAnalysis {
    fn default() -> Self {
        Self::new()
    }
}

impl DestinationAnalysis {
    /// Creates an empty analysis.
    pub fn new() -> Self {
        DestinationAnalysis {
            db: GeoDb::shared(),
            observations: HashMap::new(),
            ip_keys: HashMap::new(),
        }
    }

    /// The registry in use.
    pub fn db(&self) -> &GeoDb {
        self.db
    }

    /// Groups an experiment falls into.
    fn groups_of(exp: &LabeledExperiment) -> u8 {
        let mut bits = 0u8;
        match exp.kind {
            ExperimentKind::Idle => bits |= ExpGroup::Idle.bit(),
            ExperimentKind::Power => {
                bits |= ExpGroup::Control.bit() | ExpGroup::Power.bit();
            }
            ExperimentKind::Interaction => {
                bits |= ExpGroup::Control.bit();
                if let Some(activity) = exp.activity {
                    if let Some(spec) = catalog::by_name(exp.device_name) {
                        match spec.activity(activity).map(|a| a.kind) {
                            Some(ActivityKind::Voice) => bits |= ExpGroup::Voice.bit(),
                            Some(ActivityKind::Video) => bits |= ExpGroup::Video.bit(),
                            _ => {}
                        }
                    }
                }
            }
            ExperimentKind::Uncontrolled => {}
        }
        bits
    }

    /// Ingests pre-extracted flows (lets callers share the extraction with
    /// other analyses).
    pub fn add_flows(&mut self, exp: &LabeledExperiment, flows: &ExperimentFlows) {
        let ctx = match DestCtx::of(exp) {
            Some(c) => c,
            None => return,
        };
        for lf in flows.internet_flows() {
            self.add_flow(exp, &ctx, lf);
        }
    }

    /// Ingests one internet-facing labeled flow — the fused-pipeline entry
    /// point. `ctx` is [`DestCtx::of`] for the experiment, computed once
    /// per experiment rather than per flow.
    pub(crate) fn add_flow(
        &mut self,
        exp: &LabeledExperiment,
        ctx: &DestCtx,
        lf: &crate::flows::LabeledFlow,
    ) {
        let DestinationAnalysis {
            db,
            observations,
            ip_keys,
        } = self;
        let remote = lf.remote_ip();
        // Steady-state hot path: re-observing a known destination is one
        // refcount bump plus one map probe. A labeled domain shares the
        // flow's interned `Arc<str>`; a bare IP resolves through the
        // per-address key memo.
        let dest_key: Arc<str> = match &lf.domain {
            Some(d) => Arc::clone(d),
            None => match ip_keys.get(&remote) {
                Some(k) => Arc::clone(k),
                None => {
                    let k: Arc<str> = format!("ip:{remote}").into();
                    ip_keys.insert(remote, Arc::clone(&k));
                    k
                }
            },
        };
        let entry = observations
            .entry(ObsKey {
                site: exp.site,
                vpn: exp.vpn,
                device: exp.device_name,
                dest_key,
            })
            .or_insert_with(|| {
                // Cold path, first observation of this destination for
                // this (site, vpn, device): label it. Party, org, and
                // country are pure functions of the key (see `merge`),
                // so labeling only the first observation is exactly
                // equivalent to relabeling every flow.
                // §4.1 party labeling: domain-based first, IP-owner
                // fallback.
                let (org, role) =
                    match lf.domain.as_deref().and_then(|d| db.org_for_domain(d)) {
                        Some((org, role)) => (Some(org), Some(role)),
                        None => (db.whois_ip(remote).map(|(o, _, _)| o), None),
                    };
                let party = match org {
                    Some(org) => classify(org, role, ctx.manufacturer_org),
                    None => PartyType::Third, // unknown owner: worst case
                };
                let country = passport::infer_country(db, remote, ctx.egress);
                let party_key = lf
                    .domain
                    .as_deref()
                    .map(str::to_string)
                    .or_else(|| org.map(|o| format!("org:{}", o.name)))
                    .unwrap_or_else(|| format!("ip:{remote}"));
                ObsVal {
                    party,
                    org_name: org.map(|o| o.name),
                    country,
                    party_key,
                    bytes: 0,
                    groups: 0,
                }
            });
        entry.bytes += lf.flow.total_bytes();
        entry.groups |= ctx.groups;
    }

    /// Folds another analysis into this one. The result is identical to
    /// having ingested both analyses' experiments into a single
    /// accumulator, in any order: per-key labels (party, org, country)
    /// are pure functions of the key, so only the byte and group
    /// counters need combining on collision.
    pub fn merge(&mut self, other: DestinationAnalysis) {
        for (key, val) in other.observations {
            match self.observations.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let entry = e.get_mut();
                    entry.bytes += val.bytes;
                    entry.groups |= val.groups;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(val);
                }
            }
        }
    }

    fn in_ctx(&self, key: &ObsKey, ctx: ColumnCtx) -> bool {
        if key.site != ctx.site || key.vpn != ctx.vpn {
            return false;
        }
        if ctx.common_only {
            catalog::by_name(key.device)
                .map(|s| s.availability == Availability::Both)
                .unwrap_or(false)
        } else {
            true
        }
    }

    /// Table 2 cell: unique non-first destinations of `party` contacted
    /// during experiments of `group`, in context `ctx`.
    pub fn unique_destinations(&self, ctx: ColumnCtx, group: ExpGroup, party: PartyType) -> usize {
        let mut dests = HashSet::new();
        for (key, val) in &self.observations {
            if self.in_ctx(key, ctx) && val.party == party && val.groups & group.bit() != 0 {
                dests.insert(&val.party_key);
            }
        }
        dests.len()
    }

    /// Total-row variant: unique destinations of `party` across all groups.
    pub fn unique_destinations_total(&self, ctx: ColumnCtx, party: PartyType) -> usize {
        let mut dests = HashSet::new();
        for (key, val) in &self.observations {
            if self.in_ctx(key, ctx) && val.party == party {
                dests.insert(&val.party_key);
            }
        }
        dests.len()
    }

    /// Table 3 cell: unique destinations of `party` contacted by devices of
    /// `category` in context `ctx`.
    pub fn unique_destinations_by_category(
        &self,
        ctx: ColumnCtx,
        category: Category,
        party: PartyType,
    ) -> usize {
        let mut dests = HashSet::new();
        for (key, val) in &self.observations {
            if self.in_ctx(key, ctx)
                && val.party == party
                && catalog::by_name(key.device).map(|s| s.category) == Some(category)
            {
                dests.insert(&val.party_key);
            }
        }
        dests.len()
    }

    /// Table 4: organizations ranked by the number of devices contacting
    /// them as a non-first party, per context.
    pub fn org_device_counts(&self, ctx: ColumnCtx) -> Vec<(&'static str, usize)> {
        let mut per_org: HashMap<&'static str, HashSet<&'static str>> = HashMap::new();
        for (key, val) in &self.observations {
            if self.in_ctx(key, ctx) && val.party.is_non_first() {
                if let Some(org) = val.org_name {
                    // Ubiquitous time-sync infrastructure is not an
                    // information-exposure party; the paper's Table 4 does
                    // not list NTP pool operators.
                    if org == "NTP Pool" {
                        continue;
                    }
                    per_org.entry(org).or_default().insert(key.device);
                }
            }
        }
        let mut out: Vec<(&'static str, usize)> =
            per_org.into_iter().map(|(o, devs)| (o, devs.len())).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }

    /// §4.2: per-device unique destination counts, descending.
    pub fn device_destination_counts(&self, ctx: ColumnCtx) -> Vec<(&'static str, usize)> {
        let mut per_device: HashMap<&'static str, usize> = HashMap::new();
        for key in self.observations.keys() {
            if self.in_ctx(key, ctx) {
                *per_device.entry(key.device).or_default() += 1;
            }
        }
        let mut out: Vec<_> = per_device.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }

    /// Figure 2: traffic volume per (category, destination country) for one
    /// lab at native egress.
    pub fn region_flows(&self, site: LabSite) -> Vec<(Category, Country, u64)> {
        let mut agg: HashMap<(Category, Country), u64> = HashMap::new();
        for (key, val) in &self.observations {
            if key.site != site || key.vpn {
                continue;
            }
            let category = match catalog::by_name(key.device) {
                Some(s) => s.category,
                None => continue,
            };
            let country = val.country.unwrap_or(Country::Other);
            *agg.entry((category, country)).or_default() += val.bytes;
        }
        let mut out: Vec<_> = agg.into_iter().map(|((c, n), b)| (c, n, b)).collect();
        out.sort_by_key(|&(.., bytes)| std::cmp::Reverse(bytes));
        out
    }

    /// §9 headline: fraction of unique destinations that are non-first
    /// parties, for one lab at native egress.
    pub fn non_first_party_fraction(&self, site: LabSite) -> f64 {
        let mut total = HashSet::new();
        let mut non_first = HashSet::new();
        for (key, val) in &self.observations {
            if key.site != site || key.vpn {
                continue;
            }
            total.insert(&val.party_key);
            if val.party.is_non_first() {
                non_first.insert(&val.party_key);
            }
        }
        if total.is_empty() {
            0.0
        } else {
            non_first.len() as f64 / total.len() as f64
        }
    }

    /// §9 headline: fraction of devices contacting at least one destination
    /// outside the lab's region, at native egress.
    pub fn out_of_region_device_fraction(&self, site: LabSite) -> f64 {
        let home: Region = site.native_egress();
        let mut devices: HashMap<&'static str, bool> = HashMap::new();
        for (key, val) in &self.observations {
            if key.site != site || key.vpn {
                continue;
            }
            let outside = val
                .country
                .map(|c| c.region() != home || (site == LabSite::Uk && c != Country::UnitedKingdom))
                .unwrap_or(false);
            let e = devices.entry(key.device).or_insert(false);
            *e = *e || outside;
        }
        if devices.is_empty() {
            0.0
        } else {
            devices.values().filter(|&&v| v).count() as f64 / devices.len() as f64
        }
    }

    /// Devices with at least one non-first-party destination (the paper's
    /// "72/81 devices"), across both labs at native egress.
    pub fn devices_with_non_first_party(&self) -> (usize, usize) {
        let mut devices: HashMap<(&'static str, LabSite), bool> = HashMap::new();
        for (key, val) in &self.observations {
            if key.vpn {
                continue;
            }
            let e = devices.entry((key.device, key.site)).or_insert(false);
            *e = *e || val.party.is_non_first();
        }
        let with = devices.values().filter(|&&v| v).count();
        (with, devices.len())
    }

    /// Serializes the observation map for the campaign checkpoint
    /// journal. Entries are emitted in sorted key order so identical
    /// analyses always produce identical bytes regardless of hash-map
    /// iteration order. The `ip_keys` memo is a content-keyed cache and
    /// is not persisted — decode rebuilds nothing it needs.
    pub(crate) fn encode_journal(&self, w: &mut crate::supervise::ByteWriter) {
        use crate::supervise as sup;
        let mut keys: Vec<&ObsKey> = self.observations.keys().collect();
        keys.sort_by(|a, b| {
            (a.site, a.vpn, a.device, &*a.dest_key).cmp(&(b.site, b.vpn, b.device, &*b.dest_key))
        });
        w.u32(keys.len() as u32);
        for key in keys {
            let val = &self.observations[key];
            w.u8(sup::site_to_u8(key.site));
            w.bool(key.vpn);
            w.str(key.device);
            w.str(&key.dest_key);
            w.u8(sup::party_to_u8(val.party));
            w.opt_str(val.org_name);
            match val.country {
                Some(c) => {
                    w.u8(1);
                    w.str(sup::country_to_code(c));
                }
                None => w.u8(0),
            }
            w.str(&val.party_key);
            w.u64(val.bytes);
            w.u8(val.groups);
        }
    }

    /// Decodes a journaled observation map. Device and organization
    /// names are re-interned against the catalog and geodb registries;
    /// unknown names are typed decode errors, never panics. Duplicate
    /// keys fold like [`DestinationAnalysis::merge`].
    pub(crate) fn decode_journal(
        r: &mut crate::supervise::ByteReader<'_>,
    ) -> Result<DestinationAnalysis, crate::supervise::DecodeErr> {
        use crate::supervise as sup;
        let n = r.u32()?;
        let mut out = DestinationAnalysis::new();
        for _ in 0..n {
            let site = sup::site_from_u8(r.u8()?)?;
            let vpn = r.bool()?;
            let device = sup::intern_device(&r.str()?)?;
            let dest_key: Arc<str> = r.str()?.into();
            let party = sup::party_from_u8(r.u8()?)?;
            let org_name = match r.opt_str()? {
                Some(name) => Some(sup::intern_org(&name)?),
                None => None,
            };
            let country = match r.u8()? {
                0 => None,
                1 => Some(sup::country_from_code(&r.str()?)?),
                _ => return Err(crate::supervise::DecodeErr("invalid option tag")),
            };
            let party_key = r.str()?;
            let bytes = r.u64()?;
            let groups = r.u8()?;
            let key = ObsKey {
                site,
                vpn,
                device,
                dest_key,
            };
            match out.observations.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let entry = e.get_mut();
                    entry.bytes += bytes;
                    entry.groups |= groups;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(ObsVal {
                        party,
                        org_name,
                        country,
                        party_key,
                        bytes,
                        groups,
                    });
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_testbed::experiment::{run_interaction, run_power};
    use iot_testbed::lab::Lab;

    /// A small corpus: power + one interaction for a handful of devices in
    /// both labs, with and without VPN.
    fn small_corpus() -> DestinationAnalysis {
        let db = GeoDb::new();
        let mut analysis = DestinationAnalysis::new();
        for site in LabSite::all() {
            let lab = Lab::deploy(site);
            for name in [
                "Samsung TV",
                "Fire TV",
                "Roku TV",
                "Echo Dot",
                "Google Home Mini",
                "TP-Link Plug",
                "Magichome Strip",
                "Wansview Cam",
                "Ring Doorbell",
                "Yi Cam",
                "Sengled Hub",
                "Smartthings Hub",
                "Anova Sousvide",
                "Netatmo Weather",
            ] {
                if let Some(dev) = lab.device(name) {
                    for vpn in [false, true] {
                        let exp = run_power(&db, dev, vpn, 0, 0);
                        analysis.add_flows(&exp, &ExperimentFlows::from_experiment(&exp));
                        let spec = dev.spec();
                        let act = &spec.activities[0];
                        let method = act.methods[0];
                        for rep in 0..3 {
                            let exp = run_interaction(&db, dev, act, method, vpn, rep, 0);
                            analysis.add_flows(&exp, &ExperimentFlows::from_experiment(&exp));
                        }
                    }
                }
            }
        }
        analysis
    }

    #[test]
    fn tvs_contact_third_parties() {
        let analysis = small_corpus();
        let us = ColumnCtx { site: LabSite::Us, vpn: false, common_only: false };
        let third = analysis.unique_destinations_by_category(us, Category::Tv, PartyType::Third);
        assert!(third >= 1, "TVs contact Netflix/trackers, got {third}");
    }

    #[test]
    fn support_parties_dominate() {
        let analysis = small_corpus();
        let us = ColumnCtx { site: LabSite::Us, vpn: false, common_only: false };
        let support = analysis.unique_destinations_total(us, PartyType::Support);
        let third = analysis.unique_destinations_total(us, PartyType::Third);
        assert!(
            support > third,
            "support ({support}) should outnumber third ({third}) as in Table 2"
        );
    }

    #[test]
    fn power_contacts_more_destinations_than_voice() {
        let analysis = small_corpus();
        let us = ColumnCtx { site: LabSite::Us, vpn: false, common_only: false };
        let power = analysis.unique_destinations(us, ExpGroup::Power, PartyType::Support);
        let voice = analysis.unique_destinations(us, ExpGroup::Voice, PartyType::Support);
        assert!(power >= voice, "power {power} vs voice {voice}");
    }

    #[test]
    fn amazon_tops_org_rollup() {
        let analysis = small_corpus();
        let us = ColumnCtx { site: LabSite::Us, vpn: false, common_only: false };
        let orgs = analysis.org_device_counts(us);
        assert!(!orgs.is_empty());
        let top3: Vec<&str> = orgs.iter().take(3).map(|(o, _)| *o).collect();
        assert!(top3.contains(&"Amazon"), "top orgs {top3:?}");
    }

    #[test]
    fn wansview_contacts_most_destinations() {
        let analysis = small_corpus();
        let us = ColumnCtx { site: LabSite::Us, vpn: false, common_only: false };
        let counts = analysis.device_destination_counts(us);
        assert_eq!(counts[0].0, "Wansview Cam", "{counts:?}");
    }

    #[test]
    fn us_traffic_terminates_mostly_in_us() {
        let analysis = small_corpus();
        let flows = analysis.region_flows(LabSite::Us);
        let us_bytes: u64 = flows
            .iter()
            .filter(|(_, c, _)| *c == Country::UnitedStates)
            .map(|(_, _, b)| b)
            .sum();
        let total: u64 = flows.iter().map(|(_, _, b)| b).sum();
        assert!(
            us_bytes * 2 > total,
            "majority of US-lab bytes should stay in the US ({us_bytes}/{total})"
        );
    }

    #[test]
    fn uk_lab_also_sends_mostly_to_non_uk() {
        // Figure 2: "Most traffic terminates in the US, even for the UK
        // lab" — at minimum, plenty of UK-lab traffic leaves the UK.
        let analysis = small_corpus();
        let flows = analysis.region_flows(LabSite::Uk);
        let uk_bytes: u64 = flows
            .iter()
            .filter(|(_, c, _)| *c == Country::UnitedKingdom)
            .map(|(_, _, b)| b)
            .sum();
        let total: u64 = flows.iter().map(|(_, _, b)| b).sum();
        assert!(uk_bytes * 2 < total, "UK-lab traffic leaves the UK ({uk_bytes}/{total})");
    }

    #[test]
    fn most_devices_have_non_first_party() {
        // §9: 72/81 devices contact a non-first party — most, but not all
        // (platform vendors' own devices can stay in-house).
        let analysis = small_corpus();
        let (with, total) = analysis.devices_with_non_first_party();
        assert!(with * 10 >= total * 7, "{with}/{total}");
        assert!(with < total, "some devices must be first-party-only");
    }

    #[test]
    fn column_headers() {
        let headers: Vec<String> = ColumnCtx::standard().iter().map(|c| c.header()).collect();
        assert_eq!(
            headers,
            vec!["US", "UK", "US∩", "UK∩", "US→UK", "UK→US", "US→UK∩", "UK→US∩"]
        );
    }
}
