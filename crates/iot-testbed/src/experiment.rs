//! Experiment runners (§3.3): power, interaction, and idle experiments,
//! each producing a labeled per-device capture.

use crate::device::{ActivitySpec, InteractionMethod};
use crate::lab::DeviceInstance;
use crate::traffic::TrafficGenerator;
use crate::util::stable_seed;
use iot_geodb::registry::GeoDb;
use iot_net::packet::Packet;
use iot_net::pcap::Capture;

/// The kind of a controlled or uncontrolled experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentKind {
    /// Power the device on and capture two minutes of traffic.
    Power,
    /// A scripted interaction.
    Interaction,
    /// An idle capture with no human present.
    Idle,
    /// Unlabeled user-study traffic.
    Uncontrolled,
}

/// One labeled experiment: the unit the analyses consume.
#[derive(Debug, Clone)]
pub struct LabeledExperiment {
    /// Catalog name of the device.
    pub device_name: &'static str,
    /// Deployment site.
    pub site: crate::lab::LabSite,
    /// Whether traffic egressed via the inter-lab VPN.
    pub vpn: bool,
    /// Experiment kind.
    pub kind: ExperimentKind,
    /// Label, e.g. `"power"`, `"local_move"`, `"android_wan_on"`,
    /// `"idle"`. Matches the Mon(IoT)r labeling convention.
    pub label: String,
    /// Activity name for interaction experiments (e.g. `"move"`).
    pub activity: Option<&'static str>,
    /// Repetition index.
    pub rep: u32,
    /// The capture, time-ordered, stored as serialized pcap bytes. The
    /// streaming core walks it with a zero-copy cursor; nothing holds a
    /// per-packet `Vec<u8>` between generation and analysis.
    pub capture: Capture,
}

impl LabeledExperiment {
    /// Total captured bytes.
    pub fn total_bytes(&self) -> u64 {
        self.capture.frame_bytes()
    }

    /// Number of captured packets.
    pub fn packet_count(&self) -> usize {
        self.capture.record_count()
    }

    /// Materializes owned packets (cold paths and tests; the hot path
    /// iterates `self.capture.views()` instead).
    pub fn packets(&self) -> Vec<Packet> {
        self.capture.to_packets()
    }
}

/// Runs one power experiment (§3.3: power on, capture ~2 minutes).
pub fn run_power(
    db: &GeoDb,
    device: &DeviceInstance,
    vpn: bool,
    rep: u32,
    start_micros: u64,
) -> LabeledExperiment {
    let seed = stable_seed(
        device.spec().name,
        0x1000 ^ u64::from(rep) ^ ((device.site as u64) << 32) ^ ((vpn as u64) << 40),
    );
    let mut g = TrafficGenerator::new(db, device, vpn, seed, start_micros);
    g.power_on();
    // Residual chatter within the two-minute window.
    g.advance_ms(5_000.0);
    g.ntp_exchange();
    g.keepalive();
    let capture = g.finish();
    LabeledExperiment {
        device_name: device.spec().name,
        site: device.site,
        vpn,
        kind: ExperimentKind::Power,
        label: "power".to_string(),
        activity: None,
        rep,
        capture,
    }
}

/// Runs one interaction experiment: the device has been on for two
/// minutes (so no power traffic), then the activity is performed via
/// `method` and capture continues 5–15 s past the interaction.
pub fn run_interaction(
    db: &GeoDb,
    device: &DeviceInstance,
    activity: &ActivitySpec,
    method: InteractionMethod,
    vpn: bool,
    rep: u32,
    start_micros: u64,
) -> LabeledExperiment {
    let seed = stable_seed(
        device.spec().name,
        stable_seed(activity.name, u64::from(rep))
            ^ ((device.site as u64) << 32)
            ^ ((vpn as u64) << 40)
            ^ ((method as u64) << 48),
    );
    let mut g = TrafficGenerator::new(db, device, vpn, seed, start_micros);
    // §6.1: experiments contain traffic unrelated to the interaction
    // (e.g. NTP); the classifier must tolerate it.
    let mut noise = iot_core::rng::StdRng::seed_from_u64(seed ^ 0xA0A0);
    if noise.gen_bool(0.3) {
        g.ntp_exchange();
    }
    // The control path shapes the traffic (§6.3's method-aware labels): a
    // LAN app commands the device directly and only a state sync reaches
    // the cloud; a WAN app's command arrives *from* the cloud; an Alexa
    // command goes through the voice assistant's skill backend, which adds
    // a chattier exchange before the device acts.
    use crate::device::{Flight, PayloadKind};
    match method {
        InteractionMethod::Local => {}
        InteractionMethod::LanApp => {
            g.flight(
                &Flight {
                    endpoint: 0,
                    out_packets: (1, 3),
                    out_size: (100, 240),
                    in_packets: (1, 2),
                    in_size: (60, 140),
                    iat_ms: (10.0, 40.0),
                    payload: PayloadKind::Ciphertext,
                },
                crate::traffic::TriggerContext::Background,
            );
        }
        InteractionMethod::WanApp => {
            g.flight(
                &Flight {
                    endpoint: 0,
                    out_packets: (2, 4),
                    out_size: (80, 200),
                    in_packets: (4, 8),
                    in_size: (200, 500),
                    iat_ms: (8.0, 35.0),
                    payload: PayloadKind::Ciphertext,
                },
                crate::traffic::TriggerContext::Background,
            );
        }
        InteractionMethod::Alexa => {
            g.flight(
                &Flight {
                    endpoint: 0,
                    out_packets: (5, 9),
                    out_size: (150, 400),
                    in_packets: (6, 12),
                    in_size: (250, 650),
                    iat_ms: (6.0, 25.0),
                    payload: PayloadKind::Ciphertext,
                },
                crate::traffic::TriggerContext::Background,
            );
        }
    }
    g.activity(activity);
    if noise.gen_bool(0.2) {
        g.advance_ms(2_000.0);
        g.keepalive();
    }
    let capture = g.finish();
    LabeledExperiment {
        device_name: device.spec().name,
        site: device.site,
        vpn,
        kind: ExperimentKind::Interaction,
        label: format!("{}_{}", method.label_prefix(), activity.name),
        activity: Some(activity.name),
        rep,
        capture,
    }
}

/// Runs an idle capture of `hours` (§3.3: devices isolated from human
/// interaction). Contains keepalives, Wi-Fi reconnects (DHCP + power-on
/// chatter), and the device's spontaneous activities — the raw material of
/// Table 11.
pub fn run_idle(
    db: &GeoDb,
    device: &DeviceInstance,
    vpn: bool,
    hours: f64,
    start_micros: u64,
) -> LabeledExperiment {
    let seed = stable_seed(
        device.spec().name,
        0x1D7E ^ ((device.site as u64) << 32) ^ ((vpn as u64) << 40),
    );
    let mut g = TrafficGenerator::new(db, device, vpn, seed, start_micros);
    let spec = device.spec();
    // §7.2: differences in idle power events across labs are explained by
    // "different reliability of the Wi-Fi in the two labs".
    let reconnect_rate = spec.idle.reconnects_per_hour
        * match device.site {
            crate::lab::LabSite::Us => 1.0,
            crate::lab::LabSite::Uk => 1.4,
        };
    // Build the event timeline: (time offset in ms, event).
    #[derive(Clone, Copy)]
    enum IdleEvent {
        Keepalive,
        Reconnect,
        Spontaneous(usize),
    }
    let mut events: Vec<(u64, IdleEvent)> = Vec::new();
    let mut schedule = |rate_per_hour: f64, event: IdleEvent, rng: &mut iot_core::rng::StdRng| {
        if rate_per_hour <= 0.0 {
            return;
        }
        let expected = rate_per_hour * hours;
        // Poisson-ish: sample the count around the expectation.
        let n = sample_count(rng, expected);
        for _ in 0..n {
            let at = rng.gen_range(0.0..hours * 3600.0 * 1000.0) as u64;
            events.push((at, event));
        }
    };
    let mut rng = iot_core::rng::StdRng::seed_from_u64(seed ^ 0xE11E);
    schedule(spec.idle.keepalives_per_hour, IdleEvent::Keepalive, &mut rng);
    schedule(reconnect_rate, IdleEvent::Reconnect, &mut rng);
    for (i, &(_, rate)) in spec.idle.spontaneous.iter().enumerate() {
        schedule(rate, IdleEvent::Spontaneous(i), &mut rng);
    }
    events.sort_by_key(|&(at, _)| at);

    let mut last_ms = 0u64;
    for (at_ms, event) in events {
        g.advance_ms((at_ms - last_ms) as f64);
        last_ms = at_ms;
        match event {
            IdleEvent::Keepalive => g.keepalive(),
            IdleEvent::Reconnect => {
                g.dhcp_handshake();
                g.power_on();
            }
            IdleEvent::Spontaneous(i) => {
                let name = spec.idle.spontaneous[i].0;
                if let Some(act) = spec.activity(name) {
                    let act = act.clone();
                    g.activity(&act);
                }
            }
        }
    }
    let capture = g.finish();
    LabeledExperiment {
        device_name: spec.name,
        site: device.site,
        vpn,
        kind: ExperimentKind::Idle,
        label: "idle".to_string(),
        activity: None,
        rep: 0,
        capture,
    }
}

/// Samples an event count with mean `expected` (Poisson approximated by a
/// binomial-style accumulation; exact distribution is not load-bearing).
fn sample_count(rng: &mut iot_core::rng::StdRng, expected: f64) -> u64 {
    let floor = expected.floor() as u64;
    let frac = expected - floor as f64;
    let mut n = 0u64;
    for _ in 0..floor {
        // Each unit contributes ~1 event with jitter.
        if rng.gen_bool(0.9) {
            n += 1;
        } else if rng.gen_bool(0.5) {
            n += 2;
        }
    }
    if frac > 0.0 && rng.gen_bool(frac) {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::{Lab, LabSite};

    fn setup() -> (GeoDb, Lab) {
        (GeoDb::new(), Lab::deploy(LabSite::Us))
    }

    #[test]
    fn power_experiment_labeled() {
        let (db, lab) = setup();
        let dev = lab.device("Echo Dot").unwrap();
        let exp = run_power(&db, dev, false, 0, 0);
        assert_eq!(exp.label, "power");
        assert_eq!(exp.kind, ExperimentKind::Power);
        assert!(exp.total_bytes() > 1000);
    }

    #[test]
    fn interaction_label_encodes_method() {
        let (db, lab) = setup();
        let dev = lab.device("TP-Link Plug").unwrap();
        let act = dev.spec().activity("on").unwrap();
        let exp = run_interaction(&db, dev, act, InteractionMethod::WanApp, false, 3, 0);
        assert_eq!(exp.label, "android_wan_on");
        assert_eq!(exp.activity, Some("on"));
        assert_eq!(exp.rep, 3);
    }

    #[test]
    fn repetitions_differ_but_are_reproducible() {
        let (db, lab) = setup();
        let dev = lab.device("Echo Spot").unwrap();
        let act = dev.spec().activity("voice").unwrap();
        let a0 = run_interaction(&db, dev, act, InteractionMethod::Local, false, 0, 0);
        let a0_again = run_interaction(&db, dev, act, InteractionMethod::Local, false, 0, 0);
        let a1 = run_interaction(&db, dev, act, InteractionMethod::Local, false, 1, 0);
        assert_eq!(a0.capture, a0_again.capture, "same rep reproducible");
        assert_ne!(a0.capture, a1.capture, "different reps vary");
    }

    #[test]
    fn idle_contains_traffic_and_respects_duration() {
        let (db, lab) = setup();
        let dev = lab.device("Zmodo Doorbell").unwrap();
        let exp = run_idle(&db, dev, false, 2.0, 0);
        assert_eq!(exp.kind, ExperimentKind::Idle);
        assert!(!exp.capture.is_empty());
        let last = exp.packets().last().unwrap().ts_micros;
        assert!(last <= 2 * 3600 * 1_000_000 + 600_000_000, "within ~2h");
        // Zmodo's spurious motion uploads dominate its idle traffic.
        assert!(exp.packet_count() > 500, "got {}", exp.packet_count());
    }

    #[test]
    fn quiet_device_idle_is_quiet() {
        let (db, lab) = setup();
        let noisy = lab.device("Zmodo Doorbell").unwrap();
        let quiet = lab.device("Behmor Brewer").unwrap();
        let n = run_idle(&db, noisy, false, 2.0, 0).packet_count();
        let q = run_idle(&db, quiet, false, 2.0, 0).packet_count();
        assert!(n > q * 5, "noisy {n} vs quiet {q}");
    }

    #[test]
    fn all_generated_packets_parse() {
        let (db, lab) = setup();
        for name in ["Samsung Fridge", "Apple TV", "Sengled Hub"] {
            let dev = lab.device(name).unwrap();
            let exp = run_power(&db, dev, false, 0, 0);
            for p in &exp.packets() {
                p.parse_frame().unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }
}
