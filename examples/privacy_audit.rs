//! A privacy audit in the style of §4–§6: for a handful of devices, report
//! destination parties, encryption posture, and plaintext identifier leaks
//! in both jurisdictions.
//!
//! ```sh
//! cargo run --release --example privacy_audit
//! ```

use intl_iot::analysis::encryption::{classify_flow, ClassBytes};
use intl_iot::analysis::flows::ExperimentFlows;
use intl_iot::analysis::pii::scan_experiment;
use intl_iot::entropy::EncryptionClass;
use intl_iot::geodb::registry::GeoDb;
use intl_iot::testbed::experiment::{run_interaction, run_power};
use intl_iot::testbed::lab::{Lab, LabSite};
use intl_iot::testbed::traffic::identity_of;

const DEVICES: &[&str] = &[
    "Samsung Fridge",
    "Magichome Strip",
    "Insteon Hub",
    "TP-Link Plug",
    "Echo Dot",
];

fn main() {
    let db = GeoDb::new();
    for site in LabSite::all() {
        let lab = Lab::deploy(site);
        println!("===== {} lab =====", site.name());
        for name in DEVICES {
            let Some(device) = lab.device(name) else {
                println!("\n-- {name}: not sold in this market --");
                continue;
            };
            println!("\n-- {name} --");
            let identity = identity_of(device);

            // Capture a boot plus every first-method interaction.
            let mut experiments = vec![run_power(&db, device, false, 0, 0)];
            for act in &device.spec().activities {
                experiments.push(run_interaction(
                    &db, device, act, act.methods[0], false, 0, 0,
                ));
            }

            let mut bytes = ClassBytes::default();
            let mut findings = Vec::new();
            let mut parties = std::collections::BTreeSet::new();
            for exp in &experiments {
                let flows = ExperimentFlows::from_experiment(exp);
                for lf in &flows.flows {
                    let class = classify_flow(lf);
                    let n = lf.flow.total_bytes();
                    match class {
                        EncryptionClass::LikelyUnencrypted => bytes.unencrypted += n,
                        EncryptionClass::LikelyEncrypted => bytes.encrypted += n,
                        EncryptionClass::Unknown => bytes.unknown += n,
                    }
                }
                for lf in flows.internet_flows() {
                    if let Some(domain) = &lf.domain {
                        if let Some((org, _)) = db.org_for_domain(domain) {
                            parties.insert(org.name);
                        }
                    }
                }
                findings.extend(scan_experiment(&db, exp, &flows, &identity));
            }
            println!(
                "   traffic: {:.1}% unencrypted / {:.1}% encrypted / {:.1}% unknown",
                bytes.percent(EncryptionClass::LikelyUnencrypted),
                bytes.percent(EncryptionClass::LikelyEncrypted),
                bytes.percent(EncryptionClass::Unknown),
            );
            println!("   organizations contacted: {:?}", parties);
            if findings.is_empty() {
                println!("   plaintext identifiers: none found");
            } else {
                for f in &findings {
                    println!(
                        "   LEAK: {:?} ({}) → {} [{}]",
                        f.kind,
                        f.encoding,
                        f.domain.as_deref().unwrap_or("unlabeled IP"),
                        f.party.map(|p| p.to_string()).unwrap_or_default(),
                    );
                }
            }
        }
        println!();
    }
    println!("note: the Insteon hub's MAC leak appears only in the UK lab (§6.2).");
}
