//! Quickstart: deploy the simulated Mon(IoT)r labs, power a device on,
//! and inspect where its traffic goes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use intl_iot::analysis::flows::ExperimentFlows;
use intl_iot::geodb::party::classify;
use intl_iot::geodb::registry::GeoDb;
use intl_iot::geodb::passport;
use intl_iot::testbed::experiment::run_power;
use intl_iot::testbed::lab::{Lab, LabSite};

fn main() {
    // The synthetic Internet: organizations, address blocks, geolocation.
    let db = GeoDb::new();

    // Deploy the US lab — all 46 US devices with stable MAC/IP addressing.
    let lab = Lab::deploy(LabSite::Us);
    println!("US lab deployed with {} devices", lab.devices.len());

    // Power on an Echo Dot and capture its traffic (like §3.3's power
    // experiments: two minutes of tcpdump from a cold boot).
    let device = lab.device("Echo Dot").expect("catalog device");
    let experiment = run_power(&db, device, /* vpn */ false, /* rep */ 0, 0);
    println!(
        "\ncaptured {} packets / {} bytes during power-on\n",
        experiment.packet_count(),
        experiment.total_bytes()
    );

    // Rebuild flows and label every destination the way §4.1 does:
    // DNS answer → SNI → HTTP Host, then WHOIS + party classification.
    let flows = ExperimentFlows::from_experiment(&experiment);
    let spec = device.spec();
    println!("{:<34} {:>9} {:>8}  {:<8} country", "destination", "bytes", "proto", "party");
    for lf in flows.internet_flows() {
        let label = lf
            .domain
            .as_deref()
            .map(str::to_string)
            .unwrap_or_else(|| format!("{}", lf.remote_ip()));
        let (party, country) = match db.whois_ip(lf.remote_ip()) {
            Some((org, _, _)) => {
                let role = lf
                    .domain
                    .as_deref()
                    .and_then(|d| db.org_for_domain(d))
                    .map(|(_, r)| r);
                let party = classify(org, role, spec.manufacturer_org);
                let country = passport::infer_country(&db, lf.remote_ip(), experiment.site.egress(false));
                (party.to_string(), country.map(|c| c.code()).unwrap_or("??"))
            }
            None => ("?".to_string(), "??"),
        };
        println!(
            "{:<34} {:>9} {:>8}  {:<8} {}",
            label,
            lf.flow.total_bytes(),
            lf.protocol.name(),
            party,
            country,
        );
    }
}
