//! The uncontrolled user study (§3.3, §7.3): 36 participants using the US
//! lab as a studio apartment for six months.
//!
//! "Collectively, we typically see about 20-30 lab accesses per day, with
//! at least one active device interaction per access. A common interaction
//! pattern is a person that enters the lab to put their food in the smart
//! fridge …, then they come again later to reheat it in the smart
//! microwave …. These common interaction patterns do not trigger just the
//! devices that the participants are actively using, but also smart
//! cameras, smart doorbells, smart motion/contact sensors, and smart
//! lights, which are … passively triggered by the simple presence of the
//! participant."
//!
//! The simulation plans a ground-truth event log ([`plan_events`]) and
//! synthesizes each acting device's *unlabeled* traffic from it
//! ([`device_capture`]), so §7.3's comparison of inferred vs actual
//! activity is possible. Captures are built one device at a time: a
//! caller holds at most one device's study traffic at once.

use crate::lab::{DeviceInstance, Lab, LabSite};
use crate::traffic::TrafficGenerator;
use crate::util::stable_seed;
use iot_core::rng::StdRng;
use iot_geodb::registry::GeoDb;
use iot_net::pcap::Capture;

/// Ground truth for one user-study event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyEvent {
    /// Event time (µs since study start).
    pub at_micros: u64,
    /// Device that acted.
    pub device_name: &'static str,
    /// Activity that occurred.
    pub activity: &'static str,
    /// Whether the user deliberately triggered it (false = passive
    /// trigger by mere presence — the §7.3 privacy concern).
    pub intentional: bool,
}

/// Study simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Days to simulate (paper: ~180; tests use a few).
    pub days: u32,
    /// Mean lab accesses per day (paper: 20–30).
    pub accesses_per_day: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            days: 180,
            accesses_per_day: 25.0,
            seed: 0x57CD,
        }
    }
}

/// Devices a participant actively uses, with per-access probability and
/// the activity performed.
const ACTIVE_USES: &[(&str, &str, f64)] = &[
    ("Samsung Fridge", "door_open", 0.5),
    ("GE Microwave", "start", 0.35),
    ("Samsung Washer", "start", 0.12),
    ("Samsung Dryer", "start", 0.12),
    ("Echo Dot", "voice", 0.25),
    ("Echo Spot", "voice", 0.15),
    ("Google Home Mini", "voice", 0.1),
    ("TP-Link Plug", "on", 0.15),
    ("Samsung TV", "menu", 0.1),
    ("Fire TV", "menu", 0.08),
];

/// Devices passively triggered by presence.
const PASSIVE_TRIGGERS: &[(&str, &str, f64)] = &[
    ("Zmodo Doorbell", "move", 0.9),
    ("Ring Doorbell", "move", 0.85),
    ("Wansview Cam", "move", 0.8),
    ("D-Link Movement Sensor", "move", 0.75),
    ("Amazon Cloudcam", "move", 0.7),
    ("Blink Cam", "move", 0.6),
];

/// Plans the study: the ground-truth event log, time-ordered. Draws only
/// the timeline; no traffic is synthesized.
pub fn plan_events(config: &StudyConfig) -> Vec<StudyEvent> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut events: Vec<StudyEvent> = Vec::new();
    for day in 0..config.days {
        let accesses = (config.accesses_per_day * rng.gen_range(0.8..1.2)).round() as u32;
        for _ in 0..accesses {
            // Accesses cluster in waking hours (8:00–23:00).
            let hour = rng.gen_range(8.0..23.0);
            let at_micros =
                (u64::from(day) * 24 + 0) * 3_600_000_000 + (hour * 3_600_000_000.0) as u64;
            for &(device, activity, p) in PASSIVE_TRIGGERS {
                if rng.gen_bool(p) {
                    events.push(StudyEvent {
                        at_micros: at_micros + rng.gen_range(0..60_000_000),
                        device_name: device,
                        activity,
                        intentional: false,
                    });
                }
            }
            let mut used_any = false;
            for &(device, activity, p) in ACTIVE_USES {
                if rng.gen_bool(p) {
                    used_any = true;
                    events.push(StudyEvent {
                        at_micros: at_micros + rng.gen_range(60_000_000..600_000_000),
                        device_name: device,
                        activity,
                        intentional: true,
                    });
                }
            }
            if !used_any {
                // §3.3: at least one active interaction per access.
                events.push(StudyEvent {
                    at_micros: at_micros + rng.gen_range(60_000_000..300_000_000),
                    device_name: "Samsung Fridge",
                    activity: "door_open",
                    intentional: true,
                });
            }
        }
    }
    events.sort_by_key(|e| e.at_micros);
    events
}

/// The study's devices: every US-lab device that acts at least once in
/// `events`, in deployment order.
pub fn study_devices(events: &[StudyEvent]) -> Vec<DeviceInstance> {
    Lab::deploy(LabSite::Us)
        .devices
        .into_iter()
        .filter(|d| events.iter().any(|e| e.device_name == d.spec().name))
        .collect()
}

/// Synthesizes `device`'s unlabeled study traffic (native egress) from
/// its slice of the time-ordered `events` planned with `config`.
pub fn device_capture(
    db: &GeoDb,
    config: &StudyConfig,
    device: &DeviceInstance,
    events: &[StudyEvent],
) -> Capture {
    let name = device.spec().name;
    let seed = stable_seed(name, config.seed ^ 0xF00D);
    let mut g = TrafficGenerator::new(db, device, false, seed, 0);
    let mut last = 0u64;
    for event in events.iter().filter(|e| e.device_name == name) {
        let gap_ms = (event.at_micros.saturating_sub(last)) as f64 / 1000.0;
        g.advance_ms(gap_ms);
        last = event.at_micros;
        if let Some(act) = device.spec().activity(event.activity) {
            let act = act.clone();
            g.activity(&act);
        }
    }
    let capture = g.finish();
    capture
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_net::packet::Packet;

    fn quick() -> StudyConfig {
        StudyConfig {
            days: 2,
            accesses_per_day: 10.0,
            seed: 9,
        }
    }

    type Packets = Vec<(&'static str, Vec<Packet>)>;

    /// Every study device's name and packets, plus the event log.
    fn simulate(db: &GeoDb, config: &StudyConfig) -> (Packets, Vec<StudyEvent>) {
        let events = plan_events(config);
        let captures = study_devices(&events)
            .iter()
            .map(|d| {
                let packets = device_capture(db, config, d, &events).to_packets();
                (d.spec().name, packets)
            })
            .collect();
        (captures, events)
    }

    #[test]
    fn study_produces_events_and_captures() {
        let db = GeoDb::new();
        let (captures, events) = simulate(&db, &quick());
        assert!(!captures.is_empty());
        assert!(events.len() >= 20, "{} events", events.len());
        // Time-ordered.
        for w in events.windows(2) {
            assert!(w[0].at_micros <= w[1].at_micros);
        }
    }

    #[test]
    fn passive_triggers_present_and_unintentional() {
        let events = plan_events(&quick());
        let passive = events.iter().filter(|e| !e.intentional).count();
        assert!(passive > 0, "presence must trigger cameras");
        assert!(events
            .iter()
            .any(|e| e.device_name == "Ring Doorbell" && !e.intentional));
    }

    #[test]
    fn every_event_device_is_deployed_model() {
        let events = plan_events(&quick());
        for e in &events {
            let spec = crate::catalog::by_name(e.device_name)
                .unwrap_or_else(|| panic!("unknown device {}", e.device_name));
            assert!(
                spec.activity(e.activity).is_some(),
                "{} lacks activity {}",
                e.device_name,
                e.activity
            );
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(plan_events(&quick()), plan_events(&quick()));
    }

    #[test]
    fn capture_packets_parse_and_are_ordered() {
        let db = GeoDb::new();
        let (captures, _) = simulate(&db, &quick());
        let (_, fridge) = captures
            .iter()
            .find(|(name, _)| *name == "Samsung Fridge")
            .expect("fridge is used in every study");
        assert!(!fridge.is_empty());
        for w in fridge.windows(2) {
            assert!(w[0].ts_micros <= w[1].ts_micros);
        }
        for p in fridge.iter().take(50) {
            p.parse().unwrap();
        }
    }
}
