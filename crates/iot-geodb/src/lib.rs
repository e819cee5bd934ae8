//! # iot-geodb
//!
//! A synthetic-but-structured model of the Internet's administrative layer,
//! substituting for the WHOIS lookups, manual organization research, and
//! Passport geolocation used in §4.1 of *Information Exposure From Consumer
//! IoT Devices* (IMC 2019).
//!
//! The destination analysis labels each flow with:
//!
//! 1. a **second-level domain** ([`sld`]) from DNS / SNI / HTTP-Host data,
//! 2. an **organization** ([`org`], [`registry`]) via domain or IP lookup,
//! 3. a **party type** ([`party`]) — first / support / third relative to the
//!    device's manufacturer,
//! 4. a **country** ([`passport`]) via traceroute-informed inference,
//!    because "public geolocation databases alone … \[are\] highly
//!    inaccurate".
//!
//! The database is seeded from the organizations the paper itself names
//! (Amazon, Google, Akamai, Microsoft, Netflix, Kingsoft, 21Vianet,
//! Alibaba, Beijing Huaxiay, AT&T, Tuya, nuri.net, doubleclick, omtrdc,
//! branch.io, …) plus every device manufacturer in Table 1, each with
//! regional server presence that drives the paper's regional findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geo;
pub mod org;
pub mod party;
pub mod passport;
pub mod registry;
pub mod sld;

pub use geo::{Country, Region};
pub use org::{DomainRole, Organization, OrgKind};
pub use party::PartyType;
pub use registry::GeoDb;
