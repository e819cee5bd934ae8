//! The synthetic IP registry: organization address blocks, domain→IP
//! resolution with region-aware replica selection, and IP→owner (WHOIS)
//! lookup.
//!
//! Every (organization, serving-region) pair holds one /16 allocation. A
//! domain resolves into the owning organization's replica block nearest the
//! querying network's egress region — the mechanism behind the paper's
//! observation that VPN egress changes *server selection* but rarely the
//! *party* contacted (§4.3).

use crate::geo::{Country, Region};
use crate::org::{DomainRole, Organization, ORGS};
use crate::sld::sld;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// One /16 address block owned by an organization in a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First octet of the /16 (`a.0.0.0/16`).
    pub first_octet: u8,
    /// Index into [`ORGS`].
    pub org_idx: usize,
    /// Country where the block's servers are located.
    pub country: Country,
    /// Serving region of the block.
    pub region: Region,
}

/// The assembled registry. Construction is cheap and deterministic; all
/// data is static.
#[derive(Debug, Clone)]
pub struct GeoDb {
    blocks: Vec<Block>,
    by_octet: HashMap<u8, usize>,
    by_domain: HashMap<&'static str, (usize, DomainRole)>,
}

impl Default for GeoDb {
    fn default() -> Self {
        Self::new()
    }
}

impl GeoDb {
    /// The process-wide registry, built on first use. It is immutable and
    /// derived from static tables only, so every caller can share it.
    pub fn shared() -> &'static GeoDb {
        static SHARED: OnceLock<GeoDb> = OnceLock::new();
        SHARED.get_or_init(GeoDb::new)
    }

    /// Builds the registry from the static organization table.
    pub fn new() -> Self {
        let mut blocks = Vec::new();
        let mut by_octet = HashMap::new();
        let mut next_octet = 4u8;
        let mut take_octet = || {
            // Skip private/special first octets.
            while matches!(next_octet, 10 | 100 | 127 | 169) {
                next_octet += 1;
            }
            let a = next_octet;
            next_octet += 1;
            assert!(a < 224, "address pool exhausted");
            a
        };
        for (org_idx, org) in ORGS.iter().enumerate() {
            for &region in org.presence {
                let country = if org.hq.region() == region {
                    org.hq
                } else {
                    region.anchor_country()
                };
                let first_octet = take_octet();
                by_octet.insert(first_octet, blocks.len());
                blocks.push(Block {
                    first_octet,
                    org_idx,
                    country,
                    region,
                });
            }
        }
        let mut by_domain = HashMap::new();
        for (org_idx, org) in ORGS.iter().enumerate() {
            for &(domain, role) in org.domains {
                by_domain.insert(domain, (org_idx, role));
            }
        }
        GeoDb {
            blocks,
            by_octet,
            by_domain,
        }
    }

    /// All allocated blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Looks up the organization owning a domain (by its SLD), returning
    /// the organization and the domain's role.
    pub fn org_for_domain(&self, host: &str) -> Option<(&'static Organization, DomainRole)> {
        let sld = sld(host)?;
        let (idx, role) = self.by_domain.get(sld.as_str())?;
        Some((&ORGS[*idx], *role))
    }

    /// WHOIS-style lookup: the organization owning an IP address plus the
    /// true location of the block.
    pub fn whois_ip(&self, ip: Ipv4Addr) -> Option<(&'static Organization, Country, Region)> {
        let block = self.block_of(ip)?;
        Some((&ORGS[block.org_idx], block.country, block.region))
    }

    /// The block containing an address, if any.
    pub fn block_of(&self, ip: Ipv4Addr) -> Option<&Block> {
        self.by_octet
            .get(&ip.octets()[0])
            .map(|&i| &self.blocks[i])
    }

    /// Ground-truth country of an address (what a perfect geolocation
    /// database would say).
    pub fn true_country(&self, ip: Ipv4Addr) -> Option<Country> {
        self.block_of(ip).map(|b| b.country)
    }

    /// A *naive* geolocation lookup reproducing the failure mode the paper
    /// observed in public databases: every address is attributed to the
    /// owner's headquarters country, ignoring regional replicas.
    pub fn naive_country(&self, ip: Ipv4Addr) -> Option<Country> {
        self.block_of(ip).map(|b| ORGS[b.org_idx].hq)
    }

    /// Resolves a host name as seen from `egress`: picks the owning
    /// organization's replica block in the egress region when one exists,
    /// otherwise the block in the organization's home region, otherwise the
    /// first allocated block. The host part of the address is a stable hash
    /// of the full host name.
    pub fn resolve(&self, host: &str, egress: Region) -> Option<Ipv4Addr> {
        let s = sld(host)?;
        let &(org_idx, _) = self.by_domain.get(s.as_str())?;
        let candidates: Vec<&Block> = self
            .blocks
            .iter()
            .filter(|b| b.org_idx == org_idx)
            .collect();
        let org = &ORGS[org_idx];
        let block = candidates
            .iter()
            .find(|b| b.region == egress)
            .or_else(|| candidates.iter().find(|b| b.region == org.hq.region()))
            .or_else(|| candidates.first())?;
        let h = fnv1a(host.as_bytes());
        let h1 = ((h >> 8) & 0xff) as u8;
        let h2 = (h & 0xff) as u8;
        Some(Ipv4Addr::new(
            block.first_octet,
            (h >> 16 & 0xff) as u8,
            h1,
            h2.clamp(1, 254),
        ))
    }

    /// Picks a pseudo-random host inside an organization's block for
    /// traffic that is addressed by IP without DNS (e.g. camera P2P
    /// relays). `salt` varies the host selected.
    pub fn host_in_org(&self, org_name: &str, region: Region, salt: u64) -> Option<Ipv4Addr> {
        let org_idx = ORGS.iter().position(|o| o.name == org_name)?;
        let candidates: Vec<&Block> = self
            .blocks
            .iter()
            .filter(|b| b.org_idx == org_idx)
            .collect();
        // Unlike replica selection, literal-IP peers (P2P relays) are
        // spread across every region the organization covers — a camera's
        // rendezvous partners live in arbitrary residential networks.
        let _ = region;
        let block = candidates.get(fnv1a(&salt.to_le_bytes()) as usize % candidates.len().max(1))
            .or_else(|| candidates.first())?;
        let h = fnv1a(&salt.to_be_bytes());
        Some(Ipv4Addr::new(
            block.first_octet,
            (h >> 16 & 0xff) as u8,
            (h >> 8 & 0xff) as u8,
            ((h & 0xff) as u8).clamp(1, 254),
        ))
    }
}

/// FNV-1a 64-bit hash — stable across runs and platforms, unlike
/// `DefaultHasher`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_disjoint() {
        let db = GeoDb::new();
        let mut seen = std::collections::HashSet::new();
        for b in db.blocks() {
            assert!(seen.insert(b.first_octet), "octet {} reused", b.first_octet);
            assert!(!matches!(b.first_octet, 10 | 100 | 127 | 169 | 192));
        }
    }

    #[test]
    fn resolution_is_deterministic() {
        let db = GeoDb::new();
        let a = db.resolve("device-metrics.amazon.com", Region::Americas).unwrap();
        let b = db.resolve("device-metrics.amazon.com", Region::Americas).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_hosts_same_org_share_block() {
        let db = GeoDb::new();
        let a = db.resolve("api.amazon.com", Region::Americas).unwrap();
        let b = db.resolve("device-metrics.amazon.com", Region::Americas).unwrap();
        assert_eq!(a.octets()[0], b.octets()[0], "same /16");
        assert_ne!(a, b, "distinct hosts");
    }

    #[test]
    fn egress_region_selects_replica() {
        let db = GeoDb::new();
        let us = db.resolve("kinesis.amazonaws.com", Region::Americas).unwrap();
        let eu = db.resolve("kinesis.amazonaws.com", Region::Europe).unwrap();
        assert_ne!(us.octets()[0], eu.octets()[0]);
        assert_eq!(db.true_country(us), Some(Country::UnitedStates));
        assert_eq!(db.true_country(eu), Some(Country::Ireland));
    }

    #[test]
    fn org_without_regional_presence_serves_from_home() {
        let db = GeoDb::new();
        // Kingsoft only has Asia-Pacific presence: all egress points land
        // in the China block.
        let us = db.resolve("api.ksyun.com", Region::Americas).unwrap();
        let eu = db.resolve("api.ksyun.com", Region::Europe).unwrap();
        assert_eq!(us, eu);
        assert_eq!(db.true_country(us), Some(Country::China));
    }

    #[test]
    fn whois_roundtrip() {
        let db = GeoDb::new();
        let ip = db.resolve("updates.tplinkcloud.com", Region::Americas).unwrap();
        let (org, _, region) = db.whois_ip(ip).unwrap();
        assert_eq!(org.name, "TP-Link");
        assert_eq!(region, Region::Americas);
    }

    #[test]
    fn org_for_domain_uses_sld() {
        let db = GeoDb::new();
        let (org, role) = db.org_for_domain("eu-west-1.ec2.amazonaws.com").unwrap();
        assert_eq!(org.name, "Amazon");
        assert_eq!(role, DomainRole::Infrastructure);
        assert!(db.org_for_domain("unknown-vendor.example").is_none());
    }

    #[test]
    fn naive_geolocation_wrong_for_replicas() {
        // The paper: public geolocation databases are "highly inaccurate".
        let db = GeoDb::new();
        let eu_replica = db.resolve("s3.amazonaws.com", Region::Europe).unwrap();
        assert_eq!(db.true_country(eu_replica), Some(Country::Ireland));
        assert_eq!(db.naive_country(eu_replica), Some(Country::UnitedStates));
    }

    #[test]
    fn unknown_ip_unresolvable() {
        let db = GeoDb::new();
        assert!(db.whois_ip(Ipv4Addr::new(203, 0, 113, 9)).is_none());
        assert!(db.true_country(Ipv4Addr::new(198, 51, 100, 1)).is_none());
    }

    #[test]
    fn host_in_org_varies_with_salt() {
        let db = GeoDb::new();
        let a = db.host_in_org("Residential Broadband", Region::Americas, 1).unwrap();
        let b = db.host_in_org("Residential Broadband", Region::Americas, 2).unwrap();
        assert_ne!(a, b);
        let (org, _, _) = db.whois_ip(a).unwrap();
        assert_eq!(org.name, "Residential Broadband");
    }

    #[test]
    fn fnv_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
