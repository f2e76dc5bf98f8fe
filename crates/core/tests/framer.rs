//! Property-based tests for the transport framer: any split of a valid
//! frame stream across arbitrary `recv` chunk boundaries reassembles to
//! the same sequence of messages and generations, strict prefixes never
//! produce a message, and garbage / oversized prefixes are rejected with
//! typed errors instead of being consumed as data.

use fractal_core::inp::{Frame, InpMessage, HEADER_LEN};
use fractal_core::meta::{AppId, PadId};
use fractal_core::transport::{FrameError, Framer, LoopbackTransport, MAX_FRAME_BODY};
use fractal_protocols::ProtocolId;
use proptest::prelude::*;

/// An arbitrary valid INP message (the variants with variable payloads,
/// where chunk boundaries actually matter) at an arbitrary generation.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (arb_message(), any::<u8>()).prop_map(|(msg, gen)| Frame { gen, msg })
}

fn arb_message() -> impl Strategy<Value = InpMessage> {
    let payload = || proptest::collection::vec(any::<u8>(), 0..200);
    prop_oneof![
        Just(InpMessage::InitRep),
        Just(InpMessage::CliMetaReq),
        Just(InpMessage::PadDownloadReq { pad_id: PadId(7) }),
        payload().prop_map(|p| InpMessage::InitReq { app_id: AppId(3), payload: p }),
        payload().prop_map(|p| InpMessage::PadDownloadRep { pad_id: PadId(1), bytes: p.into() }),
        payload().prop_map(|p| InpMessage::AppReq {
            app_id: AppId(3),
            protocols: vec![ProtocolId::Gzip],
            payload: p,
        }),
    ]
}

/// Splits `stream` into chunks whose sizes cycle through `cuts` and feeds
/// them to a fresh framer, draining complete frames after every chunk.
fn reassemble(stream: &[u8], cuts: &[usize]) -> Vec<Frame> {
    let mut framer = Framer::new();
    let mut out = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < stream.len() {
        let take = cuts[i % cuts.len()].min(stream.len() - at);
        i += 1;
        framer.push(&stream[at..at + take]);
        at += take;
        while let Some(frame) = framer.next_frame().expect("valid stream") {
            out.push(frame);
        }
    }
    assert_eq!(framer.buffered(), 0, "a whole stream leaves no residue");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunk boundaries are invisible: any cut pattern reassembles the
    /// exact frame sequence, generations included.
    #[test]
    fn arbitrary_chunk_boundaries_reassemble_the_same_sequence(
        msgs in proptest::collection::vec(arb_frame(), 1..6),
        cuts in proptest::collection::vec(1usize..17, 1..8),
    ) {
        let stream: Vec<u8> =
            msgs.iter().flat_map(|f| Framer::frame_at(f.gen, &f.msg, false)).collect();
        prop_assert_eq!(reassemble(&stream, &cuts), msgs.clone());
        // Degenerate cuts: one byte at a time, and the whole stream at once.
        prop_assert_eq!(reassemble(&stream, &[1]), msgs.clone());
        prop_assert_eq!(reassemble(&stream, &[stream.len()]), msgs);
    }

    /// A strict prefix of a valid frame never yields a message and never
    /// errors — the framer just waits for the rest.
    #[test]
    fn strict_prefixes_wait_instead_of_erroring(
        msg in arb_message(),
        frac in 0usize..1000,
    ) {
        let frame = Framer::frame(&msg);
        let cut = frac * (frame.len() - 1) / 1000; // 0 ≤ cut < frame.len()
        let mut framer = Framer::new();
        framer.push(&frame[..cut]);
        prop_assert_eq!(framer.next_frame(), Ok(None));
        prop_assert!(!framer.frame_ready());
        // The rest arrives: the message completes.
        framer.push(&frame[cut..]);
        prop_assert_eq!(framer.next_frame(), Ok(Some(Frame { gen: 0, msg })));
    }

    /// Corrupting any header byte of the magic/version prefix (bytes 0, 1
    /// and 3; byte 2 is the generation) is detected as BadPrefix, not
    /// consumed as data.
    #[test]
    fn garbage_prefix_is_rejected(msg in arb_message(), at in 0usize..3, xor in 1u8..=255) {
        let at = if at == 2 { 3 } else { at };
        let mut frame = Framer::frame(&msg);
        frame[at] ^= xor;
        let mut framer = Framer::new();
        framer.push(&frame);
        prop_assert!(framer.frame_ready(), "a bad prefix must surface immediately");
        prop_assert_eq!(framer.next_frame(), Err(FrameError::BadPrefix));
    }

    /// A header declaring a body over the framer's limit is rejected from
    /// the header alone — before any body bytes arrive (that is the
    /// anti-flooding property).
    #[test]
    fn oversized_header_is_rejected_before_the_body(extra in 1usize..500) {
        let max = MAX_FRAME_BODY;
        let mut header = Framer::frame(&InpMessage::InitRep);
        let [l0, l1, l2, _] = ((max + extra) as u32).to_le_bytes();
        header[5..HEADER_LEN].copy_from_slice(&[l0, l1, l2]);
        let mut framer = Framer::new();
        framer.push(&header);
        prop_assert!(framer.frame_ready());
        match framer.next_frame() {
            Err(FrameError::Oversized { len, max: m }) => {
                prop_assert_eq!(m, max);
                prop_assert!(len > max);
            }
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
    }

    /// The same reassembly holds across a real byte pipe: a tiny-capacity
    /// loopback forces partial sends and partial recvs, and pull()
    /// still reconstructs the exact sequence.
    #[test]
    fn reassembly_survives_a_tiny_loopback_pipe(
        msgs in proptest::collection::vec(arb_message(), 1..5),
        capacity in 5usize..64,
    ) {
        let pair = LoopbackTransport::pair(capacity);
        let (mut tx, mut rx) = (pair.client, pair.service);
        let stream: Vec<u8> = msgs.iter().flat_map(Framer::frame).collect();
        let mut framer = Framer::new();
        let mut out = Vec::new();
        let mut sent = 0;
        while sent < stream.len() {
            sent += tx.send(&stream[sent..]).unwrap();
            framer.pull(rx.as_mut()).unwrap();
            while let Some(frame) = framer.next_frame().unwrap() {
                out.push(frame.msg);
            }
        }
        framer.pull(rx.as_mut()).unwrap();
        while let Some(frame) = framer.next_frame().unwrap() {
            out.push(frame.msg);
        }
        prop_assert_eq!(out, msgs);
    }
}
