//! The Interactive Negotiation Protocol (INP) of Figure 4.
//!
//! Message sequence for a cold client:
//!
//! ```text
//! client → proxy   INIT_REQ            (application request in payload)
//! proxy  → client  INIT_REP + CLI_META_REQ   (empty DevMeta/NtwkMeta to fill)
//! client → proxy   CLI_META_REP        (probed DevMeta + NtwkMeta)
//! proxy  → client  PAD_META_REP        (negotiated PADMeta list)
//! client → CDN     PAD_DOWNLOAD_REQ    (PAD id; CDN picks closest edge)
//! CDN    → client  PAD_DOWNLOAD_REP    (signed mobile-code bytes)
//! client → server  APP_REQ             (request + negotiated protocol ids)
//! server → client  APP_REP             (encoded session response)
//! ```
//!
//! "Each packet has an INP header segment, which is used to maintain the
//! interactive negotiation protocol integrity": 8 bytes of magic, version,
//! message type, and body length.

use bytes::Bytes;

use crate::error::WireError;
use crate::meta::{AppId, DevMeta, NtwkMeta, PadId, PadMeta, Reader, Writer};
use fractal_protocols::ProtocolId;

/// Protocol magic ("INP" + version byte slot).
const MAGIC: [u8; 3] = *b"INP";
/// Current protocol version.
pub const INP_VERSION: u8 = 1;
/// Header length on the wire.
pub const HEADER_LEN: usize = 8;

/// Validates an INP header prefix and returns `(msg_type, body_len)`.
///
/// This is the single source of truth for the header layout — magic(3) +
/// version(1) + type(1) + len(3, u24 little-endian) — shared by
/// [`InpMessage::from_bytes`] and the transport layer's length-prefixed
/// [`Framer`](crate::transport::Framer), which uses the body length to
/// find frame boundaries in a byte stream.
pub fn header_info(bytes: &[u8]) -> Result<(u8, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if bytes[..3] != MAGIC || bytes[3] != INP_VERSION {
        return Err(WireError::BadHeader);
    }
    let len = bytes[5] as usize | (bytes[6] as usize) << 8 | (bytes[7] as usize) << 16;
    Ok((bytes[4], len))
}

/// One INP message.
#[derive(Clone, PartialEq, Debug)]
pub enum InpMessage {
    /// Client → proxy: open a negotiation; carries the opaque application
    /// request payload.
    InitReq {
        /// Target application.
        app_id: AppId,
        /// Opaque application request (forwarded to the server later).
        payload: Vec<u8>,
    },
    /// Proxy → client: acknowledge.
    InitRep,
    /// Proxy → client: "empty DevMeta and NtwkMeta to be filled".
    CliMetaReq,
    /// Client → proxy: probed metadata.
    CliMetaRep {
        /// Device metadata.
        dev: DevMeta,
        /// Network metadata.
        ntwk: NtwkMeta,
    },
    /// Proxy → client: the negotiated PADs (client view, links hidden).
    PadMetaRep {
        /// Negotiated PAD metadata, path order.
        pads: Vec<PadMeta>,
    },
    /// Client → CDN: download a PAD.
    PadDownloadReq {
        /// Which PAD.
        pad_id: PadId,
    },
    /// CDN → client: the signed module bytes. Held as [`Bytes`] so one
    /// PAD artifact buffer is shared by every client downloading it.
    PadDownloadRep {
        /// Which PAD.
        pad_id: PadId,
        /// SignedModule wire bytes.
        bytes: Bytes,
    },
    /// Client → application server: start the session with the negotiated
    /// protocols.
    AppReq {
        /// Target application.
        app_id: AppId,
        /// Negotiated protocol identifications (path order).
        protocols: Vec<ProtocolId>,
        /// Opaque application request payload.
        payload: Vec<u8>,
    },
    /// Application server → client: the encoded session response. Not in
    /// Figure 4 (the paper leaves the post-`APP_REQ` session opaque), but
    /// the event-driven endpoint needs the server's reply framed like every
    /// other leg so one reactor can multiplex whole sessions.
    AppRep {
        /// The content served.
        content_id: u32,
        /// The version served.
        version: u32,
        /// Protocol the payload is encoded with.
        protocol: ProtocolId,
        /// Encoded payload ([`Bytes`]: zero-copy view of the server's
        /// encode output or proactive-store entry).
        payload: Bytes,
    },
}

impl InpMessage {
    /// Message-type discriminant on the wire.
    pub fn msg_type(&self) -> u8 {
        match self {
            InpMessage::InitReq { .. } => 1,
            InpMessage::InitRep => 2,
            InpMessage::CliMetaReq => 3,
            InpMessage::CliMetaRep { .. } => 4,
            InpMessage::PadMetaRep { .. } => 5,
            InpMessage::PadDownloadReq { .. } => 6,
            InpMessage::PadDownloadRep { .. } => 7,
            InpMessage::AppReq { .. } => 8,
            InpMessage::AppRep { .. } => 9,
        }
    }

    /// Human-readable name matching Figure 4.
    pub fn name(&self) -> &'static str {
        match self {
            InpMessage::InitReq { .. } => "INIT_REQ",
            InpMessage::InitRep => "INIT_REP",
            InpMessage::CliMetaReq => "Cli_META_REQ",
            InpMessage::CliMetaRep { .. } => "Cli_META_REP",
            InpMessage::PadMetaRep { .. } => "PAD_META_REP",
            InpMessage::PadDownloadReq { .. } => "PAD_DOWNLOAD_REQ",
            InpMessage::PadDownloadRep { .. } => "PAD_DOWNLOAD_REP",
            InpMessage::AppReq { .. } => "APP_REQ",
            InpMessage::AppRep { .. } => "APP_REP",
        }
    }

    /// Serializes header + body.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_room(0)
    }

    /// [`to_bytes`](Self::to_bytes) into an allocation with `room` spare
    /// bytes behind the message, which is where checked framing puts its
    /// trailer. The bytes are written once, in place: the header goes
    /// first with its length left open, and is patched when the body is in.
    pub(crate) fn to_bytes_with_room(&self, room: usize) -> Vec<u8> {
        let wire_len = self.wire_len();
        let mut out = Writer(Vec::with_capacity(wire_len + room));
        // Header layout: magic(3) version(1) type(1) len(3: u24).
        out.bytes(&MAGIC);
        out.u8(INP_VERSION);
        out.u8(self.msg_type());
        out.bytes(&[0u8; 3]);
        match self {
            InpMessage::InitReq { app_id, payload } => {
                out.u32(app_id.0);
                out.u32(payload.len() as u32);
                out.bytes(payload);
            }
            InpMessage::InitRep | InpMessage::CliMetaReq => {}
            InpMessage::CliMetaRep { dev, ntwk } => {
                dev.encode(&mut out);
                ntwk.encode(&mut out);
            }
            InpMessage::PadMetaRep { pads } => {
                out.u16(pads.len() as u16);
                for p in pads {
                    p.encode(&mut out);
                }
            }
            InpMessage::PadDownloadReq { pad_id } => {
                out.u64(pad_id.0);
            }
            InpMessage::PadDownloadRep { pad_id, bytes } => {
                out.u64(pad_id.0);
                out.u32(bytes.len() as u32);
                out.bytes(bytes);
            }
            InpMessage::AppReq { app_id, protocols, payload } => {
                out.u32(app_id.0);
                out.u16(protocols.len() as u16);
                for p in protocols {
                    out.u16(p.wire_id());
                }
                out.u32(payload.len() as u32);
                out.bytes(payload);
            }
            InpMessage::AppRep { content_id, version, protocol, payload } => {
                out.u32(*content_id);
                out.u32(*version);
                out.u16(protocol.wire_id());
                out.u32(payload.len() as u32);
                out.bytes(payload);
            }
        }
        let mut out = out.0;
        debug_assert_eq!(out.len(), wire_len, "{}: wire_len miscounts", self.name());
        let len = (out.len() - HEADER_LEN) as u32;
        assert!(len < 1 << 24, "INP body too large");
        out[5..HEADER_LEN].copy_from_slice(&len.to_le_bytes()[..3]);
        out
    }

    /// Parses header + body, rejecting malformed or trailing input.
    pub fn from_bytes(bytes: &[u8]) -> Result<InpMessage, WireError> {
        let (msg_type, len) = header_info(bytes)?;
        let body = bytes.get(HEADER_LEN..).ok_or(WireError::Truncated)?;
        if body.len() != len {
            return Err(WireError::Truncated);
        }
        let mut r = Reader::new(body);
        let msg = match msg_type {
            1 => {
                let app_id = AppId(r.u32()?);
                let n = r.u32()? as usize;
                let payload = r.take(n)?.to_vec();
                InpMessage::InitReq { app_id, payload }
            }
            2 => InpMessage::InitRep,
            3 => InpMessage::CliMetaReq,
            4 => InpMessage::CliMetaRep {
                dev: DevMeta::decode(&mut r)?,
                ntwk: NtwkMeta::decode(&mut r)?,
            },
            5 => {
                let n = r.u16()? as usize;
                let mut pads = Vec::with_capacity(n);
                for _ in 0..n {
                    pads.push(PadMeta::decode(&mut r)?);
                }
                InpMessage::PadMetaRep { pads }
            }
            6 => InpMessage::PadDownloadReq { pad_id: PadId(r.u64()?) },
            7 => {
                let pad_id = PadId(r.u64()?);
                let n = r.u32()? as usize;
                let bytes = Bytes::copy_from_slice(r.take(n)?);
                InpMessage::PadDownloadRep { pad_id, bytes }
            }
            8 => {
                let app_id = AppId(r.u32()?);
                let n = r.u16()? as usize;
                let mut protocols = Vec::with_capacity(n);
                for _ in 0..n {
                    protocols.push(
                        ProtocolId::from_wire_id(r.u16()?)
                            .ok_or(WireError::BadEnum("ProtocolId"))?,
                    );
                }
                let plen = r.u32()? as usize;
                let payload = r.take(plen)?.to_vec();
                InpMessage::AppReq { app_id, protocols, payload }
            }
            9 => {
                let content_id = r.u32()?;
                let version = r.u32()?;
                let protocol =
                    ProtocolId::from_wire_id(r.u16()?).ok_or(WireError::BadEnum("ProtocolId"))?;
                let plen = r.u32()? as usize;
                let payload = Bytes::copy_from_slice(r.take(plen)?);
                InpMessage::AppRep { content_id, version, protocol, payload }
            }
            _ => return Err(WireError::BadEnum("msg_type")),
        };
        if !r.done() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }

    /// Wire size (for traffic accounting in the session runner, and the
    /// one allocation [`to_bytes`](Self::to_bytes) makes): header plus what
    /// each variant's body encodes to, counted without encoding it.
    pub fn wire_len(&self) -> usize {
        let body = match self {
            InpMessage::InitReq { payload, .. } => 4 + 4 + payload.len(),
            InpMessage::InitRep | InpMessage::CliMetaReq => 0,
            InpMessage::CliMetaRep { .. } => DevMeta::WIRE_LEN + NtwkMeta::WIRE_LEN,
            InpMessage::PadMetaRep { pads } => {
                2 + pads.iter().map(PadMeta::wire_len).sum::<usize>()
            }
            InpMessage::PadDownloadReq { .. } => 8,
            InpMessage::PadDownloadRep { bytes, .. } => 8 + 4 + bytes.len(),
            InpMessage::AppReq { protocols, payload, .. } => {
                4 + 2 + 2 * protocols.len() + 4 + payload.len()
            }
            InpMessage::AppRep { payload, .. } => 4 + 4 + 2 + 4 + payload.len(),
        };
        HEADER_LEN + body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{CpuType, OsType, PadOverhead};
    use fractal_net::link::LinkKind;

    fn sample_pad() -> PadMeta {
        PadMeta {
            id: PadId(5),
            protocol: ProtocolId::Bitmap,
            size: 2222,
            overhead: PadOverhead {
                server_ms_per_mb: 120.0,
                client_ms_per_mb: 1650.0,
                traffic_ratio: 0.18,
            },
            digest: fractal_crypto::sha1::sha1(b"pad5"),
            url: "cdn://pads/5".into(),
            parent: None,
            children: vec![],
        }
    }

    fn all_messages() -> Vec<InpMessage> {
        vec![
            InpMessage::InitReq { app_id: AppId(1), payload: b"GET page7".to_vec() },
            InpMessage::InitRep,
            InpMessage::CliMetaReq,
            InpMessage::CliMetaRep {
                dev: DevMeta {
                    os: OsType::WinCe42,
                    cpu: CpuType::Pxa255,
                    cpu_mhz: 400,
                    memory_mb: 64,
                },
                ntwk: NtwkMeta { kind: LinkKind::Bluetooth, bandwidth_kbps: 723 },
            },
            InpMessage::PadMetaRep { pads: vec![sample_pad()] },
            InpMessage::PadDownloadReq { pad_id: PadId(5) },
            InpMessage::PadDownloadRep { pad_id: PadId(5), bytes: vec![1, 2, 3, 4, 5].into() },
            InpMessage::AppReq {
                app_id: AppId(1),
                protocols: vec![ProtocolId::Bitmap],
                payload: b"GET page7 v3".to_vec(),
            },
            InpMessage::AppRep {
                content_id: 7,
                version: 3,
                protocol: ProtocolId::Bitmap,
                payload: vec![9, 8, 7].into(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.wire_len());
            let back = InpMessage::from_bytes(&bytes).unwrap();
            assert_eq!(back, msg, "{}", msg.name());
        }
    }

    #[test]
    fn wire_len_counts_what_to_bytes_writes() {
        let mut parent_and_children = sample_pad();
        parent_and_children.parent = Some(PadId(1));
        parent_and_children.children = vec![PadId(8), PadId(9)];
        for size in [0usize, 1, 4096, 200 * 1024] {
            let payload = vec![0x5A; size];
            let messages = [
                InpMessage::InitReq { app_id: AppId(1), payload: payload.clone() },
                InpMessage::InitRep,
                InpMessage::CliMetaReq,
                all_messages().remove(3),
                InpMessage::PadMetaRep { pads: vec![] },
                InpMessage::PadMetaRep {
                    pads: vec![sample_pad(), parent_and_children.clone(), sample_pad()],
                },
                InpMessage::PadDownloadReq { pad_id: PadId(5) },
                InpMessage::PadDownloadRep { pad_id: PadId(5), bytes: payload.clone().into() },
                InpMessage::AppReq {
                    app_id: AppId(1),
                    protocols: ProtocolId::ALL.to_vec(),
                    payload: payload.clone(),
                },
                InpMessage::AppRep {
                    content_id: 7,
                    version: 3,
                    protocol: ProtocolId::Gzip,
                    payload: payload.clone().into(),
                },
            ];
            for msg in messages {
                let bytes = msg.to_bytes();
                assert_eq!(msg.wire_len(), bytes.len(), "{} at {size}", msg.name());
                assert_eq!(bytes.capacity(), bytes.len(), "{}: one exact allocation", msg.name());
            }
        }
        assert_eq!(sample_pad().wire_len(), {
            let mut w = Writer::new();
            sample_pad().encode(&mut w);
            w.0.len()
        });
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for msg in all_messages() {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    InpMessage::from_bytes(&bytes[..cut]).is_err(),
                    "{} cut at {cut}",
                    msg.name()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = InpMessage::InitRep.to_bytes();
        bytes.push(0);
        // Header length no longer matches → Truncated.
        assert!(InpMessage::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = InpMessage::InitRep.to_bytes();
        bytes[0] = b'X';
        assert_eq!(InpMessage::from_bytes(&bytes), Err(WireError::BadHeader));
        let mut bytes = InpMessage::InitRep.to_bytes();
        bytes[3] = 9;
        assert_eq!(InpMessage::from_bytes(&bytes), Err(WireError::BadHeader));
    }

    #[test]
    fn unknown_msg_type_rejected() {
        let mut bytes = InpMessage::InitRep.to_bytes();
        bytes[4] = 200;
        assert_eq!(InpMessage::from_bytes(&bytes), Err(WireError::BadEnum("msg_type")));
    }

    #[test]
    fn names_match_figure4() {
        let names: Vec<&str> = all_messages().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "INIT_REQ",
                "INIT_REP",
                "Cli_META_REQ",
                "Cli_META_REP",
                "PAD_META_REP",
                "PAD_DOWNLOAD_REQ",
                "PAD_DOWNLOAD_REP",
                "APP_REQ",
                "APP_REP"
            ]
        );
    }

    #[test]
    fn distinct_wire_types() {
        let types: std::collections::HashSet<u8> =
            all_messages().iter().map(|m| m.msg_type()).collect();
        assert_eq!(types.len(), 9);
    }
}
