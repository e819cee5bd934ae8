//! End-to-end integration: simulate → capture → analyze, across crates.

use intl_iot::analysis::destinations::{ColumnCtx, ExpGroup};
use intl_iot::analysis::encryption::EncryptionAnalysis;
use intl_iot::analysis::flows::ExperimentFlows;
use intl_iot::analysis::Pipeline;
use intl_iot::entropy::EncryptionClass;
use intl_iot::geodb::party::PartyType;
use intl_iot::geodb::registry::GeoDb;
use intl_iot::testbed::capture::{read_experiments, CaptureStore};
use intl_iot::testbed::experiment::ExperimentKind;
use intl_iot::testbed::lab::LabSite;
use intl_iot::testbed::schedule::{Campaign, CampaignConfig};
use iot_core::json::ToJson;

const TINY: CampaignConfig = CampaignConfig {
    automated_reps: 1,
    manual_reps: 1,
    power_reps: 1,
    idle_hours: 0.2,
    include_vpn: true,
};

/// The tiny campaign, analyzed by the one campaign driver.
fn tiny_pipeline() -> Pipeline {
    let mut p = Pipeline::with_obs(false);
    p.run_campaign(TINY);
    p
}

#[test]
fn full_campaign_streams_valid_experiments() {
    let db = GeoDb::new();
    let campaign = Campaign::new(TINY);
    let mut count = 0u64;
    let mut bytes = 0u64;
    for unit in 0..campaign.unit_count() {
        campaign.run_unit(&db, unit, |exp| {
            if exp.kind == ExperimentKind::Idle {
                return;
            }
            count += 1;
            bytes += exp.total_bytes();
            // Every frame of every experiment is valid, parseable traffic.
            if count.is_multiple_of(37) {
                for p in exp.packets() {
                    p.parse_frame().expect("frame parses");
                }
            }
        });
    }
    assert_eq!(count, campaign.controlled_experiment_count());
    assert!(bytes > 10_000_000, "campaign volume {bytes}");
}

#[test]
fn destination_and_encryption_analyses_agree_on_corpus() {
    let p = tiny_pipeline();
    let (dest, enc) = (&p.destinations, &p.encryption);

    // RQ1: support parties dominate third parties in every context.
    for ctx in ColumnCtx::standard() {
        let support = dest.unique_destinations_total(ctx, PartyType::Support);
        let third = dest.unique_destinations_total(ctx, PartyType::Third);
        assert!(
            support > third,
            "{}: support {support} vs third {third}",
            ctx.header()
        );
    }

    // RQ1: control ⊇ power destinations.
    let us = ColumnCtx { site: LabSite::Us, vpn: false, common_only: false };
    assert!(
        dest.unique_destinations(us, ExpGroup::Control, PartyType::Support)
            >= dest.unique_destinations(us, ExpGroup::Power, PartyType::Support)
    );

    // §9: most devices contact a non-first party.
    let (with, total) = dest.devices_with_non_first_party();
    assert_eq!(total, 81);
    assert!(with >= 65, "devices with non-first parties: {with}/81");

    // RQ2: every class of traffic exists, and no device exceeds 75%
    // unencrypted (Table 5's top-left zero).
    for site in LabSite::all() {
        let hist_x = enc.quartile_histogram(site, false, false, EncryptionClass::LikelyUnencrypted);
        assert_eq!(hist_x[0], 0, "{site:?}: no device >75% unencrypted");
        let hist_enc = enc.quartile_histogram(site, false, false, EncryptionClass::LikelyEncrypted);
        assert!(hist_enc[0] > 0, "{site:?}: some devices >75% encrypted");
    }
}

#[test]
fn regional_differences_exist_and_vpn_shifts_server_selection() {
    let dest = tiny_pipeline().destinations;

    // RQ6: both labs send most traffic out of the UK; the US lab keeps
    // most traffic domestic (Figure 2).
    let us_flows = dest.region_flows(LabSite::Us);
    let total_us: u64 = us_flows.iter().map(|(_, _, b)| b).sum();
    let domestic_us: u64 = us_flows
        .iter()
        .filter(|(_, c, _)| *c == intl_iot::geodb::Country::UnitedStates)
        .map(|(_, _, b)| b)
        .sum();
    assert!(domestic_us * 2 > total_us, "US lab mostly domestic");

    let uk_flows = dest.region_flows(LabSite::Uk);
    let total_uk: u64 = uk_flows.iter().map(|(_, _, b)| b).sum();
    let domestic_uk: u64 = uk_flows
        .iter()
        .filter(|(_, c, _)| *c == intl_iot::geodb::Country::UnitedKingdom)
        .map(|(_, _, b)| b)
        .sum();
    assert!(domestic_uk * 2 < total_uk, "UK lab traffic leaves the UK");

    // §9: far more UK devices contact out-of-region destinations.
    let us_frac = dest.out_of_region_device_fraction(LabSite::Us);
    let uk_frac = dest.out_of_region_device_fraction(LabSite::Uk);
    assert!(
        uk_frac > us_frac,
        "out-of-region devices: UK {uk_frac:.2} vs US {us_frac:.2}"
    );
}

#[test]
fn idle_traffic_analyzable() {
    let db = GeoDb::new();
    let campaign = Campaign::new(TINY);
    let mut enc = EncryptionAnalysis::default();
    let mut n = 0;
    for unit in 0..campaign.unit_count() {
        campaign.run_unit(&db, unit, |exp| {
            if exp.kind == ExperimentKind::Idle {
                enc.add_flows(&exp, &ExperimentFlows::from_experiment(&exp));
                n += 1;
            }
        });
    }
    assert_eq!(n, 81 * 2, "one idle capture per device per egress");
    let pct = enc.row_percent(
        LabSite::Us,
        false,
        intl_iot::analysis::encryption::Table8Row::Idle,
        EncryptionClass::LikelyEncrypted,
    );
    assert!(pct > 0.0, "idle traffic contains encrypted keepalives");
}

/// A campaign written to disk through `CaptureStore`, one root per
/// egress, and read back device directory by device directory through
/// `read_experiments` reports exactly what the campaign reports. At 0.02
/// idle hours, 131 of the grid's 162 idle captures hold no packet, and
/// each must come back as an empty experiment rather than vanish.
#[test]
fn disk_round_trip_reports_byte_identically_to_the_campaign() {
    let config = CampaignConfig {
        idle_hours: 0.02,
        ..TINY
    };
    let mut direct = Pipeline::with_obs(false);
    direct.run_campaign(config);
    let want = direct.finish().to_json().dump();

    let db = GeoDb::new();
    let campaign = Campaign::new(config);
    let mut stores = [CaptureStore::new(), CaptureStore::new()];
    let mut empty = 0;
    for unit in 0..campaign.unit_count() {
        campaign.run_unit(&db, unit, |exp| {
            empty += usize::from(exp.packet_count() == 0);
            stores[usize::from(exp.vpn)].append(&exp);
        });
    }
    assert_eq!(empty, 131, "empty idle captures in the grid");
    let root = std::env::temp_dir().join(format!("intl-iot-round-trip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut dirs = Vec::new();
    for (vpn, store) in [false, true].into_iter().zip(stores) {
        let egress = root.join(if vpn { "vpn" } else { "native" });
        store.write_to(&egress).expect("write the capture tree");
        for (site, id) in store.devices() {
            dirs.push((egress.join(site.name().to_lowercase()).join(id), vpn));
        }
    }
    let experiments = dirs.iter().flat_map(|(dir, vpn)| {
        let (experiments, salvage) = read_experiments(dir, *vpn).expect("read a device directory");
        assert!(salvage.is_pristine(), "{}: {salvage:?}", dir.display());
        experiments
    });
    let mut read_back = Pipeline::with_obs(false);
    read_back.ingest_experiments(experiments);
    std::fs::remove_dir_all(&root).expect("remove the capture tree");
    let report = read_back.finish();
    assert_eq!(report.experiments, 1_204);
    assert_eq!(report.to_json().dump(), want);
}
