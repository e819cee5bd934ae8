//! Device model types.
//!
//! A [`DeviceSpec`] is a behavioral model of one consumer IoT product: the
//! cloud endpoints it talks to, the traffic shape of each interaction the
//! paper's Table 1 lists for its category, the plaintext identifiers it
//! leaks (§6.2), and the quirks it exhibits when idle (§7.2).

use iot_geodb::geo::Region;

/// Device categories of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Security cameras and video doorbells.
    Camera,
    /// Bridges for non-IP devices (Zigbee/Z-Wave/Insteon).
    SmartHub,
    /// Wi-Fi sensors and actuators: plugs, bulbs, thermostats.
    HomeAutomation,
    /// Smart TVs and HDMI dongles.
    Tv,
    /// Smart speakers with voice assistants.
    Audio,
    /// Fridges, washers, cookers, weather stations.
    Appliance,
}

impl Category {
    /// Every category, in table order.
    pub fn all() -> &'static [Category] {
        &[
            Category::Camera,
            Category::SmartHub,
            Category::HomeAutomation,
            Category::Tv,
            Category::Audio,
            Category::Appliance,
        ]
    }

    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            Category::Camera => "Cameras",
            Category::SmartHub => "Smart Hubs",
            Category::HomeAutomation => "Home Automation",
            Category::Tv => "TV",
            Category::Audio => "Audio",
            Category::Appliance => "Appliances",
        }
    }
}

/// Which testbeds stock the device (Table 1 flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Availability {
    /// Purchased for the US lab only.
    UsOnly,
    /// Purchased for the UK lab only.
    UkOnly,
    /// A *common device*: the same model in both labs.
    Both,
}

/// Wire protocol an endpoint speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointProtocol {
    /// TLS on TCP/443 (handshake with SNI + ciphertext records).
    Tls,
    /// Plaintext HTTP/1.1 on TCP/80.
    Http,
    /// QUIC v1 on UDP/443.
    Quic,
    /// MQTT 3.1.1 on TCP/1883.
    Mqtt,
    /// NTP on UDP/123.
    Ntp,
    /// Vendor-proprietary TCP framing on the given port.
    ProprietaryTcp(u16),
    /// Vendor-proprietary UDP framing on the given port.
    ProprietaryUdp(u16),
}

/// Payload family carried inside a flow (drives entropy & PII analyses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Encrypted application data (TLS-band entropy).
    Ciphertext,
    /// base64-coded ciphertext (fernet-band entropy).
    EncodedCiphertext,
    /// Low-entropy machine telemetry text.
    Telemetry,
    /// Webpage-like text/markup.
    Markup,
    /// Compressed audio/video/image data.
    Media,
    /// Media with a recognizable container signature (JPEG magic),
    /// caught by the §5.1 encoding-byte filter.
    MediaJpeg,
    /// Partly-encrypted vendor framing: the §5.2 "proprietary protocols …
    /// often partly encrypted" whose entropy is inconclusive.
    MixedProprietary,
}

/// One remote endpoint a device communicates with.
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// Fully qualified host name, e.g. `device-metrics-us.amazon.com`.
    /// Empty for literal-IP peers (no DNS, no SNI — stays unlabeled).
    pub host: &'static str,
    /// Organization to pick a literal-IP peer from when `host` is empty.
    pub ip_org: Option<&'static str>,
    /// Protocol spoken.
    pub protocol: EndpointProtocol,
    /// Only contacted when egressing via this region (`None` = always).
    /// Models the paper's endpoints that appear/disappear under VPN.
    pub egress_filter: Option<Region>,
}

impl Endpoint {
    /// A TLS cloud endpoint.
    pub const fn tls(host: &'static str) -> Self {
        Endpoint {
            host,
            ip_org: None,
            protocol: EndpointProtocol::Tls,
            egress_filter: None,
        }
    }

    /// A plaintext HTTP endpoint.
    pub const fn http(host: &'static str) -> Self {
        Endpoint {
            host,
            ip_org: None,
            protocol: EndpointProtocol::Http,
            egress_filter: None,
        }
    }

    /// Restricts the endpoint to one egress region.
    pub const fn only_via(mut self, region: Region) -> Self {
        self.egress_filter = Some(region);
        self
    }
}

/// Activity groups, aligned with Table 10's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActivityKind {
    /// Power-on handshake.
    Power,
    /// Voice command.
    Voice,
    /// Video streaming / recording / snapshot.
    Video,
    /// Switch something on or off.
    OnOff,
    /// Motion in front of a sensor or camera.
    Movement,
    /// Everything else (menu, volume, temperature, brewing, …).
    Other,
}

impl ActivityKind {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            ActivityKind::Power => "Power",
            ActivityKind::Voice => "Voice",
            ActivityKind::Video => "Video",
            ActivityKind::OnOff => "On/Off",
            ActivityKind::Movement => "Movement",
            ActivityKind::Other => "Others",
        }
    }
}

/// How the interaction is performed (§3.3): these become part of the
/// experiment label, e.g. `android_lan_on`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InteractionMethod {
    /// Physical interaction or on-device voice.
    Local,
    /// Companion app on the same network.
    LanApp,
    /// Companion app via the cloud.
    WanApp,
    /// Voice command through the Echo Spot's Alexa.
    Alexa,
}

impl InteractionMethod {
    /// Label prefix used in experiment names, mirroring the dataset's
    /// `local`/`android_lan`/`android_wan`/`alexa` convention.
    pub fn label_prefix(self) -> &'static str {
        match self {
            InteractionMethod::Local => "local",
            InteractionMethod::LanApp => "android_lan",
            InteractionMethod::WanApp => "android_wan",
            InteractionMethod::Alexa => "alexa",
        }
    }

    /// Whether the experiment campaign automates this method (§3.3:
    /// app/voice interactions are automated ×30, physical ones manual ×3).
    pub fn is_automated(self) -> bool {
        !matches!(self, InteractionMethod::Local)
    }

    /// Every method. Ordered longest label prefix first so prefix
    /// matching against a label can never stop at a shorter prefix that
    /// happens to lead a longer one.
    pub fn all() -> &'static [InteractionMethod] {
        &[
            InteractionMethod::LanApp,
            InteractionMethod::WanApp,
            InteractionMethod::Alexa,
            InteractionMethod::Local,
        ]
    }
}

/// Splits an experiment label `{method_prefix}_{activity}` into its
/// interaction method and activity name. Activity names may themselves
/// contain underscores (`local_door_open` → `door_open`), so the split
/// point is the known method prefix, never the last `_`. Returns `None`
/// for labels without a method prefix (`power`, idle captures) or with
/// an empty activity part.
pub fn split_interaction_label(label: &str) -> Option<(InteractionMethod, &str)> {
    for &method in InteractionMethod::all() {
        if let Some(rest) = label.strip_prefix(method.label_prefix()) {
            if let Some(activity) = rest.strip_prefix('_') {
                if !activity.is_empty() {
                    return Some((method, activity));
                }
            }
        }
    }
    None
}

/// One burst of exchange with one endpoint inside an activity.
#[derive(Debug, Clone, Copy)]
pub struct Flight {
    /// Index into the device's endpoint list.
    pub endpoint: usize,
    /// Outbound packets (uniform range, inclusive).
    pub out_packets: (u32, u32),
    /// Outbound payload bytes per packet (uniform range).
    pub out_size: (u32, u32),
    /// Inbound packets.
    pub in_packets: (u32, u32),
    /// Inbound payload bytes per packet.
    pub in_size: (u32, u32),
    /// Mean inter-packet gap in milliseconds (uniform range).
    pub iat_ms: (f64, f64),
    /// Payload family carried.
    pub payload: PayloadKind,
}

impl Flight {
    /// A small TLS control exchange with the given endpoint.
    pub const fn control(endpoint: usize) -> Self {
        Flight {
            endpoint,
            out_packets: (2, 4),
            out_size: (80, 220),
            in_packets: (2, 4),
            in_size: (80, 300),
            iat_ms: (15.0, 60.0),
            payload: PayloadKind::Ciphertext,
        }
    }

    /// A bulk upload (e.g. video) to the given endpoint.
    pub const fn upload(endpoint: usize, packets: (u32, u32), size: (u32, u32)) -> Self {
        Flight {
            endpoint,
            out_packets: packets,
            out_size: size,
            in_packets: (2, 6),
            in_size: (60, 120),
            iat_ms: (2.0, 10.0),
            payload: PayloadKind::Ciphertext,
        }
    }

    /// Overrides the payload family.
    pub const fn with_payload(mut self, payload: PayloadKind) -> Self {
        self.payload = payload;
        self
    }
}

/// One scripted interaction from Table 1's bottom row.
#[derive(Debug, Clone)]
pub struct ActivitySpec {
    /// Short activity name, e.g. `"on"`, `"move"`, `"voice"`.
    pub name: &'static str,
    /// Activity group for Table 10.
    pub kind: ActivityKind,
    /// Interaction methods available for this activity.
    pub methods: &'static [InteractionMethod],
    /// The traffic the activity produces.
    pub flights: Vec<Flight>,
}

/// What identifier a device leaks in plaintext and where (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiiKind {
    /// The device's MAC address.
    MacAddress,
    /// A stable device identifier / UUID.
    DeviceId,
    /// Coarse geolocation (state/city).
    Geolocation,
    /// The user-assigned device name ("John Doe's Roku TV").
    DeviceName,
}

/// Textual encoding of a leaked identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiiEncoding {
    /// Verbatim ASCII.
    Plain,
    /// Lowercase hex without separators.
    Hex,
    /// Standard base64.
    Base64,
}

/// When a leak fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiiTrigger {
    /// During the power-on handshake.
    OnPower,
    /// During the named activity.
    OnActivity(&'static str),
}

/// A plaintext identifier leak.
#[derive(Debug, Clone)]
pub struct PiiLeak {
    /// Endpoint index the leak is sent to.
    pub endpoint: usize,
    /// What leaks.
    pub kind: PiiKind,
    /// How it is encoded.
    pub encoding: PiiEncoding,
    /// When it fires.
    pub trigger: PiiTrigger,
    /// Restrict the leak to devices deployed at one site (`None` = both).
    /// Models the Insteon hub leaking its MAC only from the UK lab.
    pub site_filter: Option<crate::lab::LabSite>,
}

/// Idle-time quirks (§7.2).
#[derive(Debug, Clone, Copy)]
pub struct IdleBehavior {
    /// Mean Wi-Fi disconnect/reconnect events per hour (drives spurious
    /// "power" detections; verified via DHCP logs in the paper).
    pub reconnects_per_hour: f64,
    /// Mean spontaneous firings per hour of the named activity with no
    /// user present (e.g. Zmodo "move", TV "menu" refresh).
    pub spontaneous: &'static [(&'static str, f64)],
    /// Mean keepalive exchanges per hour to the first TLS endpoint.
    pub keepalives_per_hour: f64,
}

impl Default for IdleBehavior {
    fn default() -> Self {
        IdleBehavior {
            reconnects_per_hour: 0.05,
            spontaneous: &[],
            keepalives_per_hour: 6.0,
        }
    }
}

/// A complete device model.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Product name as in Table 1.
    pub name: &'static str,
    /// Category.
    pub category: Category,
    /// Which labs stock it.
    pub availability: Availability,
    /// Organization name (must exist in `iot_geodb::org::ORGS`).
    pub manufacturer_org: &'static str,
    /// OUI (first three MAC octets) of the vendor's interface silicon.
    pub oui: [u8; 3],
    /// Remote endpoints, indexed by [`Flight::endpoint`].
    pub endpoints: Vec<Endpoint>,
    /// The extra flights performed at power-on beyond connecting every
    /// endpoint.
    pub power_flights: Vec<Flight>,
    /// Scripted interactions.
    pub activities: Vec<ActivitySpec>,
    /// Plaintext identifier leaks.
    pub pii_leaks: Vec<PiiLeak>,
    /// Idle-time behavior.
    pub idle: IdleBehavior,
}

impl DeviceSpec {
    /// Kebab-case identifier used in file names and labels: the name's
    /// runs of ASCII letters and digits, lowercased and joined by `-`.
    pub fn id(&self) -> String {
        let mut id = String::with_capacity(self.name.len());
        let words = self.name.split(|c: char| !c.is_ascii_alphanumeric());
        for word in words.filter(|w| !w.is_empty()) {
            if !id.is_empty() {
                id.push('-');
            }
            id.push_str(word);
        }
        id.make_ascii_lowercase();
        id
    }

    /// Looks up an activity by name.
    pub fn activity(&self, name: &str) -> Option<&ActivitySpec> {
        self.activities.iter().find(|a| a.name == name)
    }

    /// True when the device is stocked at `site`.
    pub fn available_at(&self, site: crate::lab::LabSite) -> bool {
        match self.availability {
            Availability::Both => true,
            Availability::UsOnly => site == crate::lab::LabSite::Us,
            Availability::UkOnly => site == crate::lab::LabSite::Uk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::LabSite;

    fn minimal_spec() -> DeviceSpec {
        DeviceSpec {
            name: "Test Cam 2000",
            category: Category::Camera,
            availability: Availability::UsOnly,
            manufacturer_org: "Wansview",
            oui: [0xaa, 0xbb, 0xcc],
            endpoints: vec![Endpoint::tls("api.wansview.com")],
            power_flights: vec![Flight::control(0)],
            activities: vec![ActivitySpec {
                name: "move",
                kind: ActivityKind::Movement,
                methods: &[InteractionMethod::Local],
                flights: vec![Flight::upload(0, (20, 40), (600, 1200))],
            }],
            pii_leaks: vec![],
            idle: IdleBehavior::default(),
        }
    }

    #[test]
    fn id_is_kebab() {
        assert_eq!(minimal_spec().id(), "test-cam-2000");
    }

    #[test]
    fn activity_lookup() {
        let spec = minimal_spec();
        assert_eq!(spec.activity("move").unwrap().kind, ActivityKind::Movement);
        assert!(spec.activity("fly").is_none());
    }

    #[test]
    fn availability() {
        let spec = minimal_spec();
        assert!(spec.available_at(LabSite::Us));
        assert!(!spec.available_at(LabSite::Uk));
    }

    #[test]
    fn method_labels() {
        assert_eq!(InteractionMethod::Local.label_prefix(), "local");
        assert_eq!(InteractionMethod::LanApp.label_prefix(), "android_lan");
        assert!(!InteractionMethod::Local.is_automated());
        assert!(InteractionMethod::Alexa.is_automated());
    }

    #[test]
    fn split_label_handles_multi_segment_activities() {
        assert_eq!(
            split_interaction_label("local_move"),
            Some((InteractionMethod::Local, "move"))
        );
        // The activity is everything after the method prefix, not the
        // last `_`-segment: `android_wan_on` is the `on` activity via
        // the WAN app, and activity names may contain underscores.
        assert_eq!(
            split_interaction_label("android_wan_on"),
            Some((InteractionMethod::WanApp, "on"))
        );
        assert_eq!(
            split_interaction_label("local_door_open"),
            Some((InteractionMethod::Local, "door_open"))
        );
        assert_eq!(
            split_interaction_label("alexa_volume_up"),
            Some((InteractionMethod::Alexa, "volume_up"))
        );
        // No method prefix, no split.
        assert_eq!(split_interaction_label("power"), None);
        assert_eq!(split_interaction_label("local"), None);
        assert_eq!(split_interaction_label("local_"), None);
        assert_eq!(split_interaction_label("android_lan"), None);
    }

    #[test]
    fn endpoint_builders() {
        let e = Endpoint::tls("x.example.com").only_via(iot_geodb::geo::Region::Americas);
        assert_eq!(e.protocol, EndpointProtocol::Tls);
        assert_eq!(e.egress_filter, Some(iot_geodb::geo::Region::Americas));
        assert_eq!(Endpoint::http("y.example.com").protocol, EndpointProtocol::Http);
    }

    #[test]
    fn category_names_unique() {
        let mut names: Vec<&str> = Category::all().iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
