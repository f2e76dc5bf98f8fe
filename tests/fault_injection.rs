//! Fault-injection determinism: the adversity layer's contract is that
//! every injected fault is (a) seeded — the same [`FaultPlan`] seed
//! yields a byte-identical event log and identical session outcomes on
//! any run and at any thread count — and (b) *caught* — a corrupted
//! frame can surface only as a typed rejection, never as silently
//! accepted bytes. These are the properties the scenario soaks and CI
//! matrix lean on; they get their own integration suite because a
//! nondeterministic adversary makes every downstream assertion
//! unrepeatable.

use fractal::core::client::FractalClient;
use fractal::core::error::InpError;
use fractal::core::fault::{FaultEvent, FaultPlan};
use fractal::core::inp::InpMessage;
use fractal::core::meta::{decision_fingerprint, AppId};
use fractal::core::reactor::{InpSession, Reactor, ReactorConfig, SessionPhase};
use fractal::core::server::AdaptiveContentMode;
use fractal::core::testbed::Testbed;
use fractal::core::transport::{Framer, LoopbackTransport};
use fractal::core::ClientClass;

/// Sessions in the shared population.
const N: usize = 48;

/// The adversary both tests drive: every chunk-indexed fault kind at
/// once. (Partitions are deliberately absent from the *threaded* run:
/// their heal timing rides on reactor-global clock advances, so their
/// log position is per-reactor-deterministic but not partition-invariant
/// across thread counts. The chunk-indexed faults are.)
fn plan() -> FaultPlan {
    FaultPlan::new(0xAD7E_57A1_u64).with_drop(15).with_dup(35).with_corrupt(25).with_reorder(50)
}

fn testbed() -> Testbed {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    for id in 0..N as u32 {
        tb.server.publish(id, vec![id as u8 + 1; 3_000]);
    }
    tb
}

fn client_for(tb: &Testbed, i: usize) -> FractalClient {
    tb.client(ClientClass::ALL[i % 3])
}

/// What one session looks like from outside: terminal phase, decision
/// (when negotiated), and the full fault-event tape of its pair.
#[derive(Clone, PartialEq, Debug)]
struct SessionRecord {
    phase: &'static str,
    decision: Option<u64>,
    failed_typed: bool,
    events: Vec<FaultEvent>,
}

/// Runs sessions `range` of the global population on one reactor with
/// per-session fault streams derived from the *global* index, returning
/// one record per session in index order.
fn run_partition(tb: &Testbed, range: std::ops::Range<usize>) -> Vec<SessionRecord> {
    let cfg = ReactorConfig::new().frame_checksums();
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    let mut logs = Vec::new();
    let mut ids = Vec::new();
    for i in range {
        let (pair, log) = plan().for_session(i as u64).wrap_pair(LoopbackTransport::pair(4096));
        logs.push(log);
        ids.push(
            reactor.spawn_on(InpSession::new(client_for(tb, i), tb.app_id, i as u32, 0), pair),
        );
    }
    // Dropped frames have no retransmit: a starved remainder is a typed
    // stall, which is an acceptable terminal state for this adversary.
    match reactor.run() {
        Ok(_) | Err(InpError::Stalled(_)) => {}
        Err(e) => panic!("fault injection must fail typed, got {e}"),
    }
    ids.iter()
        .zip(logs.iter())
        .map(|(&id, log)| {
            let s = reactor.session(id);
            SessionRecord {
                phase: s.phase().name(),
                decision: s.negotiated().map(decision_fingerprint),
                failed_typed: s.phase() != SessionPhase::Failed || s.error().is_some(),
                events: log.events(),
            }
        })
        .collect()
}

#[test]
fn same_seed_is_byte_identical_across_runs() {
    let a = run_partition(&testbed(), 0..N);
    let b = run_partition(&testbed(), 0..N);
    assert_eq!(a, b, "same seed must replay the identical fault tape and outcomes");
    // The adversary actually showed up, and nothing failed untyped.
    assert!(a.iter().any(|r| !r.events.is_empty()), "no faults were injected at all");
    assert!(a.iter().all(|r| r.failed_typed), "a failed session lost its typed error");
}

#[test]
fn outcomes_are_identical_at_1_2_4_8_threads() {
    let baseline = run_partition(&testbed(), 0..N);
    for threads in [2usize, 4, 8] {
        let tb = testbed();
        let chunk = N.div_ceil(threads);
        let mut merged: Vec<(usize, Vec<SessionRecord>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let tb = &tb;
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(N);
                    scope.spawn(move || (lo, run_partition(tb, lo..hi)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        merged.sort_by_key(|(lo, _)| *lo);
        let records: Vec<SessionRecord> = merged.into_iter().flat_map(|(_, recs)| recs).collect();
        assert_eq!(
            records, baseline,
            "per-session fault tapes or decisions changed at {threads} threads"
        );
    }
}

#[test]
fn session_seeds_are_decorrelated() {
    // Neighbouring sessions under one plan must not share a fault tape:
    // a stampede where every session drops the same chunks would be a
    // much weaker adversary than the rates suggest.
    let records = run_partition(&testbed(), 0..N);
    let with_events: Vec<&Vec<FaultEvent>> =
        records.iter().map(|r| &r.events).filter(|e| !e.is_empty()).collect();
    assert!(with_events.len() >= 2, "not enough fault activity to compare");
    assert!(
        with_events.windows(2).any(|w| w[0] != w[1]),
        "per-session streams are correlated — every tape came out identical"
    );
}

mod corruption_is_always_caught {
    //! Property: flip any single byte of a checksummed frame and the
    //! receiving framer either keeps waiting (the flip shortened the
    //! declared length) or rejects with a typed error. `Ok(Some(_))` —
    //! silent acceptance of tampered bytes — must be unreachable.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn single_byte_flips_never_decode(
            payload in proptest::collection::vec(0u8..=255u8, 0..200),
            flip_sel in 0u16..u16::MAX,
            xor_sel in 0u8..=255u8
        ) {
            let msg = InpMessage::InitReq { app_id: AppId(7), payload };
            let mut wire = Framer::frame_checked(&msg);
            let pos = flip_sel as usize % wire.len();
            let xor = if xor_sel == 0 { 0xA5 } else { xor_sel };
            wire[pos] ^= xor;

            let mut rx = Framer::new().with_checksum();
            rx.push(&wire);
            loop {
                match rx.next_frame() {
                    Ok(None) => break,      // waiting on bytes that never come
                    Err(_) => break,        // typed rejection
                    Ok(Some(got)) => {
                        // A flip that decodes must decode to the original
                        // message — i.e. it only ever touched redundant
                        // bytes. With a length prefix, a body, and a
                        // checksum trailer there are none: fail loudly.
                        prop_assert!(
                            false,
                            "flipped byte {pos} xor {xor:#x} decoded to {:?}",
                            got
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unflipped_frames_still_decode() {
        // The property above is vacuous if checked framing rejects
        // everything; prove the clean path decodes.
        let msg = InpMessage::InitReq { app_id: AppId(7), payload: vec![1, 2, 3] };
        let mut rx = Framer::new().with_checksum();
        rx.push(&Framer::frame_checked(&msg));
        let got = rx.next_frame().expect("clean frame").expect("complete frame");
        assert_eq!(got.msg, msg);
    }
}
