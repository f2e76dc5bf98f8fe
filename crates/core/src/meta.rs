//! The metadata vocabulary of paper Figure 3, with binary wire codecs.
//!
//! ```text
//! Device Metadata  (DevMeta)  = { OS type, CPU type, CPU speed, memory size }
//! Network Metadata (NtwkMeta) = { Network type, Network bandwidth }
//! PAD Metadata     (PADMeta)  = { PAD ID, PAD size, PAD overhead,
//!                                 Message digest, URL, Parent link, Child links }
//! App Metadata     (AppMeta)  = { Application ID, PADMeta 1..n }
//! ```
//!
//! All integers little-endian on the wire.

use fractal_crypto::wire::{counted, Cursor, Sink};
use fractal_crypto::Digest;
use fractal_net::link::LinkKind;
use fractal_protocols::ProtocolId;

use crate::error::WireError;

/// Identifies an application at the adaptation proxy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AppId(pub u32);

/// Identifies a PAD; unique per application server ("PAD ID is a unique
/// identification generated by the application server").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PadId(pub u64);

impl core::fmt::Display for AppId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "app{}", self.0)
    }
}

impl core::fmt::Display for PadId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pad{}", self.0)
    }
}

/// Operating-system families appearing in the evaluation (Equation 5 plus
/// the §3.4.2 WinMedia/Kinoma example). The discriminant is the wire id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OsType {
    /// Windows CE 4.2 (the Pocket PC).
    WinCe42 = 0,
    /// Fedora Core 2 (desktop and laptop).
    FedoraCore2 = 1,
    /// Windows XP.
    WinXp = 2,
    /// PalmOS (ratio-matrix example).
    PalmOs = 3,
}

impl OsType {
    /// All OS types.
    pub const ALL: [OsType; 4] =
        [OsType::WinCe42, OsType::FedoraCore2, OsType::WinXp, OsType::PalmOs];

    /// Stable wire id.
    pub fn wire_id(self) -> u8 {
        self as u8
    }

    /// Decodes a wire id.
    pub fn from_wire_id(id: u8) -> Option<OsType> {
        OsType::ALL.into_iter().find(|o| o.wire_id() == id)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OsType::WinCe42 => "WinCE 4.2",
            OsType::FedoraCore2 => "Fedora Core 2",
            OsType::WinXp => "Windows XP",
            OsType::PalmOs => "PalmOS",
        }
    }
}

/// Processor families of Equation 4: P (PXA255), D (P4 2.0 GHz),
/// L (P4 3.06 GHz), plus the 500 MHz reference of Equation 1. The
/// discriminant is the wire id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CpuType {
    /// Intel PXA 255 (Pocket PC) — "P" in Equation 4.
    Pxa255 = 0,
    /// Pentium IV 2.0 GHz (desktop) — "D".
    PentiumIv2000 = 1,
    /// Pentium IV 3.06 GHz (laptop) — "L".
    PentiumIv3060 = 2,
    /// The 500 MHz Pentium IV reference CPU (Std_cpu in Equation 1).
    Reference500 = 3,
}

impl CpuType {
    /// All CPU types.
    pub const ALL: [CpuType; 4] =
        [CpuType::Pxa255, CpuType::PentiumIv2000, CpuType::PentiumIv3060, CpuType::Reference500];

    /// Stable wire id.
    pub fn wire_id(self) -> u8 {
        self as u8
    }

    /// Decodes a wire id.
    pub fn from_wire_id(id: u8) -> Option<CpuType> {
        CpuType::ALL.into_iter().find(|c| c.wire_id() == id)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CpuType::Pxa255 => "Intel PXA 255",
            CpuType::PentiumIv2000 => "Pentium IV 2.0GHz",
            CpuType::PentiumIv3060 => "Pentium IV 3.06GHz",
            CpuType::Reference500 => "Pentium IV 500MHz (reference)",
        }
    }
}

/// Device metadata the client probes locally and sends in `Cli_META_REP`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DevMeta {
    /// Operating-system family.
    pub os: OsType,
    /// Processor family.
    pub cpu: CpuType,
    /// CPU clock in MHz.
    pub cpu_mhz: u32,
    /// Memory size in MB.
    pub memory_mb: u32,
}

/// Network metadata the client probes locally.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NtwkMeta {
    /// Network technology.
    pub kind: LinkKind,
    /// Nominal bandwidth in kbps.
    pub bandwidth_kbps: u32,
}

/// A client's full environment: the adaptation-cache key prefix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClientEnv {
    /// Device metadata.
    pub dev: DevMeta,
    /// Network metadata.
    pub ntwk: NtwkMeta,
}

/// The `PAD overhead` field of `PADMeta`: "the computing overhead at both
/// the client side and server side, and corresponding traffic overhead".
/// Compute is normalized to milliseconds per MB of content on the 500 MHz
/// reference CPU (Equation 1's `Std_cpu`); traffic is the ratio of wire
/// bytes to content bytes measured at the standard configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PadOverhead {
    /// Server-side compute, ms per MB at the reference CPU.
    pub server_ms_per_mb: f64,
    /// Client-side compute, ms per MB at the reference CPU.
    pub client_ms_per_mb: f64,
    /// Wire bytes per content byte (1.0 = no saving; may exceed 1).
    pub traffic_ratio: f64,
}

/// PAD metadata (Figure 3). The negotiation manager sees parent/child
/// links; the distribution manager "hides the parent and child links since
/// the exposure to the client is unnecessary" — see
/// [`PadMeta::client_view`].
#[derive(Clone, PartialEq, Debug)]
pub struct PadMeta {
    /// Unique PAD id.
    pub id: PadId,
    /// Which protocol the PAD implements (the `APP_REQ` protocol id).
    pub protocol: ProtocolId,
    /// Mobile-code artifact size in bytes.
    pub size: u32,
    /// Normalized overhead profile.
    pub overhead: PadOverhead,
    /// SHA-1 of the artifact (integrity check).
    pub digest: Digest,
    /// Download URL (the CDN resolves the closest edge).
    pub url: String,
    /// Parent PAD in the PAT (`None` for children of the root).
    pub parent: Option<PadId>,
    /// Child PADs in the PAT.
    pub children: Vec<PadId>,
}

impl PadMeta {
    /// The copy sent to clients: parent/child links hidden.
    pub fn client_view(&self) -> PadMeta {
        PadMeta { parent: None, children: Vec::new(), ..self.clone() }
    }
}

/// Order-sensitive FNV-1a fold over an adaptation decision, PAD ids and
/// protocols: what "the same decision as the serial oracle" compares, and
/// the decision fingerprint of every scenario row.
pub fn decision_fingerprint(pads: &[PadMeta]) -> u64 {
    pads.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        (h ^ p.id.0 ^ ((p.protocol as u64) << 32)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Application metadata: the PAT description the application server pushes
/// to the adaptation proxy.
#[derive(Clone, PartialEq, Debug)]
pub struct AppMeta {
    /// Application id.
    pub app_id: AppId,
    /// All PADs with their tree links.
    pub pads: Vec<PadMeta>,
}

// --- wire codecs -----------------------------------------------------

fn link_kind_wire_id(kind: LinkKind) -> u8 {
    kind as u8
}

fn link_kind_from_wire_id(id: u8) -> Option<LinkKind> {
    LinkKind::ALL.into_iter().find(|k| link_kind_wire_id(*k) == id)
}

impl DevMeta {
    pub(crate) fn encode(&self, w: &mut impl Sink) {
        w.u8(self.os.wire_id());
        w.u8(self.cpu.wire_id());
        w.u32(self.cpu_mhz);
        w.u32(self.memory_mb);
    }
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    pub(crate) fn decode(r: &mut Cursor) -> Result<DevMeta, WireError> {
        Ok(DevMeta {
            os: OsType::from_wire_id(r.u8()?).ok_or(WireError::BadEnum("OsType"))?,
            cpu: CpuType::from_wire_id(r.u8()?).ok_or(WireError::BadEnum("CpuType"))?,
            cpu_mhz: r.u32()?,
            memory_mb: r.u32()?,
        })
    }
}

impl NtwkMeta {
    pub(crate) fn encode(&self, w: &mut impl Sink) {
        w.u8(link_kind_wire_id(self.kind));
        w.u32(self.bandwidth_kbps);
    }
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    pub(crate) fn decode(r: &mut Cursor) -> Result<NtwkMeta, WireError> {
        Ok(NtwkMeta {
            kind: link_kind_from_wire_id(r.u8()?).ok_or(WireError::BadEnum("LinkKind"))?,
            bandwidth_kbps: r.u32()?,
        })
    }
}

impl PadMeta {
    /// The shortest encoding (empty URL, no parent, no children): a constant,
    /// since it bounds decoding, and pinned to the counted length by a test.
    pub(crate) const MIN_WIRE_LEN: usize = 8 + 2 + 4 + 3 * 8 + 20 + 2 + 1 + 2;

    pub(crate) fn encode(&self, w: &mut impl Sink) {
        w.u64(self.id.0);
        w.u16(self.protocol.wire_id());
        w.u32(self.size);
        w.f64(self.overhead.server_ms_per_mb);
        w.f64(self.overhead.client_ms_per_mb);
        w.f64(self.overhead.traffic_ratio);
        w.put(self.digest.as_bytes());
        w.u16(self.url.len() as u16);
        w.put(self.url.as_bytes());
        match self.parent {
            Some(p) => {
                w.u8(1);
                w.u64(p.0);
            }
            None => w.u8(0),
        }
        w.u16(self.children.len() as u16);
        for c in &self.children {
            w.u64(c.0);
        }
    }

    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    pub(crate) fn decode(r: &mut Cursor) -> Result<PadMeta, WireError> {
        let id = PadId(r.u64()?);
        let protocol =
            ProtocolId::from_wire_id(r.u16()?).ok_or(WireError::BadEnum("ProtocolId"))?;
        let size = r.u32()?;
        let overhead = PadOverhead {
            server_ms_per_mb: r.f64()?,
            client_ms_per_mb: r.f64()?,
            traffic_ratio: r.f64()?,
        };
        let digest = Digest(r.array()?);
        let url_len = r.u16()? as usize;
        let url = String::from_utf8(r.take(url_len)?.to_vec()).map_err(|_| WireError::BadUtf8)?;
        let parent = match r.u8()? {
            0 => None,
            1 => Some(PadId(r.u64()?)),
            _ => return Err(WireError::BadEnum("parent flag")),
        };
        let n = r.u16()? as usize;
        let mut children = Vec::with_capacity(r.count(n, 8)?);
        for _ in 0..n {
            children.push(PadId(r.u64()?));
        }
        Ok(PadMeta { id, protocol, size, overhead, digest, url, parent, children })
    }

    /// Serialized size in bytes (for traffic accounting): what
    /// `encode` writes, counted instead of written.
    pub fn wire_len(&self) -> usize {
        counted(|c| self.encode(c))
    }
}

impl AppMeta {
    /// Serializes (the server→proxy push).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::new();
        w.u32(self.app_id.0);
        w.u16(self.pads.len() as u16);
        for p in &self.pads {
            p.encode(&mut w);
        }
        w
    }

    /// Parses.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    pub fn from_bytes(bytes: &[u8]) -> Result<AppMeta, WireError> {
        let mut r = Cursor::new(bytes);
        let app_id = AppId(r.u32()?);
        let n = r.u16()? as usize;
        let mut pads = Vec::with_capacity(r.count(n, PadMeta::MIN_WIRE_LEN).unwrap_or(0));
        for _ in 0..n {
            pads.push(PadMeta::decode(&mut r)?);
        }
        if !r.done() {
            return Err(WireError::TrailingBytes);
        }
        Ok(AppMeta { app_id, pads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_crypto::wire::Cursor as Reader;

    pub(crate) fn sample_pad_meta(id: u64) -> PadMeta {
        PadMeta {
            id: PadId(id),
            protocol: ProtocolId::Gzip,
            size: 1234,
            overhead: PadOverhead {
                server_ms_per_mb: 500.0,
                client_ms_per_mb: 150.0,
                traffic_ratio: 0.4,
            },
            digest: fractal_crypto::sha1::sha1(&id.to_le_bytes()),
            url: format!("cdn://pads/{id}"),
            parent: Some(PadId(7)),
            children: vec![PadId(8), PadId(9)],
        }
    }

    #[test]
    fn enum_wire_ids_round_trip() {
        for o in OsType::ALL {
            assert_eq!(OsType::from_wire_id(o.wire_id()), Some(o));
        }
        for c in CpuType::ALL {
            assert_eq!(CpuType::from_wire_id(c.wire_id()), Some(c));
        }
        for k in LinkKind::ALL {
            assert_eq!(link_kind_from_wire_id(link_kind_wire_id(k)), Some(k));
        }
        assert_eq!(OsType::from_wire_id(99), None);
        assert_eq!(CpuType::from_wire_id(99), None);
    }

    #[test]
    fn dev_meta_round_trip() {
        let dev =
            DevMeta { os: OsType::WinCe42, cpu: CpuType::Pxa255, cpu_mhz: 400, memory_mb: 64 };
        let mut w = Vec::new();
        dev.encode(&mut w);
        let mut r = Reader::new(&w);
        assert_eq!(DevMeta::decode(&mut r).unwrap(), dev);
        assert!(r.done());
    }

    #[test]
    fn ntwk_meta_round_trip() {
        for kind in LinkKind::ALL {
            let n = NtwkMeta { kind, bandwidth_kbps: kind.bandwidth_kbps() as u32 };
            let mut w = Vec::new();
            n.encode(&mut w);
            let mut r = Reader::new(&w);
            assert_eq!(NtwkMeta::decode(&mut r).unwrap(), n);
        }
    }

    #[test]
    fn pad_meta_round_trip() {
        let p = sample_pad_meta(42);
        let mut w = Vec::new();
        p.encode(&mut w);
        assert_eq!(w.len(), p.wire_len());
        let mut r = Reader::new(&w);
        assert_eq!(PadMeta::decode(&mut r).unwrap(), p);
    }

    #[test]
    fn client_view_hides_links() {
        let p = sample_pad_meta(42);
        let v = p.client_view();
        assert_eq!(v.parent, None);
        assert!(v.children.is_empty());
        assert_eq!(v.id, p.id);
        assert_eq!(v.digest, p.digest);
    }

    #[test]
    fn app_meta_round_trip() {
        let app = AppMeta { app_id: AppId(3), pads: vec![sample_pad_meta(1), sample_pad_meta(2)] };
        let bytes = app.to_bytes();
        assert_eq!(AppMeta::from_bytes(&bytes).unwrap(), app);
    }

    #[test]
    fn app_meta_rejects_truncation_and_trailing() {
        let app = AppMeta { app_id: AppId(3), pads: vec![sample_pad_meta(1)] };
        let bytes = app.to_bytes();
        for cut in 0..bytes.len() {
            assert!(AppMeta::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(AppMeta::from_bytes(&extra), Err(WireError::TrailingBytes));
    }

    #[test]
    fn pad_meta_without_parent_or_children() {
        let mut p = sample_pad_meta(1);
        p.parent = None;
        p.children.clear();
        let mut w = Vec::new();
        p.encode(&mut w);
        let mut r = Reader::new(&w);
        assert_eq!(PadMeta::decode(&mut r).unwrap(), p);
    }

    /// The case-study decisions, pinned: a change to `ProtocolId`'s order
    /// or to the fold fails here by name rather than moving every
    /// scenario row.
    #[test]
    fn case_study_decisions_have_pinned_fingerprints() {
        use crate::presets::ClientClass;
        use crate::server::AdaptiveContentMode;
        use crate::testbed::Testbed;
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        let pinned = [
            (ClientClass::DesktopLan, 0xaf63_bc4c_8601_b62c),
            (ClientClass::LaptopWlan, 0xaf63_c0ff_8601_bb45),
            (ClientClass::PdaBluetooth, 0xaf63_c1b2_8601_b992),
        ];
        for (class, fingerprint) in pinned {
            let pads = tb.proxy.negotiate(tb.app_id, class.env()).unwrap();
            assert_eq!(decision_fingerprint(&pads), fingerprint, "{class:?}");
        }
    }

    #[test]
    fn min_wire_len_is_the_counted_length_of_a_bare_pad_meta() {
        let mut p = sample_pad_meta(1);
        p.url.clear();
        p.parent = None;
        p.children.clear();
        assert_eq!(PadMeta::MIN_WIRE_LEN, p.wire_len());
    }
}
