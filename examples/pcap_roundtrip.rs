//! Exports a simulated capture as a real tcpdump-compatible pcap file and
//! reads it back — the byte-level interface to external tooling.
//!
//! ```sh
//! cargo run --release --example pcap_roundtrip
//! ```

use intl_iot::geodb::registry::GeoDb;
use intl_iot::net::pcap::from_bytes;
use intl_iot::testbed::experiment::run_power;
use intl_iot::testbed::lab::{Lab, LabSite};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = GeoDb::new();
    let lab = Lab::deploy(LabSite::Us);
    let device = lab.device("Samsung TV").expect("catalog device");
    let experiment = run_power(&db, device, false, 0, 0);

    // One pcap per device MAC, exactly like the Mon(IoT)r testbed layout.
    let dir = std::env::temp_dir().join("intl-iot-captures");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.pcap", device.spec().id()));
    // The experiment already holds serialized pcap bytes — writing the
    // capture is a single buffer write, no per-packet serialization.
    std::fs::write(&path, experiment.capture.as_bytes())?;
    println!(
        "wrote {} packets to {} ({} bytes on disk)",
        experiment.packet_count(),
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // Read it back and verify losslessness.
    let restored = from_bytes(&std::fs::read(&path)?)?;
    assert_eq!(restored, experiment.packets(), "pcap round-trip must be lossless");
    println!("read back {} packets — byte-identical", restored.len());

    // Parse a few frames to show the capture is real traffic (the first
    // frames after association include ARP, as in any real capture).
    for packet in restored.iter().take(8) {
        match packet.parse_frame()? {
            intl_iot::net::packet::Frame::Ip(parsed) => println!(
                "  t={:>9}µs {} → {} ({} payload bytes)",
                packet.ts_micros,
                parsed.ip.src,
                parsed.ip.dst,
                parsed.payload.len()
            ),
            intl_iot::net::packet::Frame::Arp(arp) => println!(
                "  t={:>9}µs ARP {:?} {} is-at {}",
                packet.ts_micros, arp.op, arp.sender_ip, arp.sender_mac
            ),
        }
    }
    Ok(())
}
