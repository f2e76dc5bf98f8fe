//! Property tests for the flight-recorder algebra: ring wraparound must
//! keep per-session seq continuity, snapshot merge must be associative
//! and commutative, and — the determinism claim the sharded server
//! leans on — the merged journal must be invariant to how sessions are
//! partitioned across shards under a fixed-timeline `VirtualClock`.

use std::sync::Arc;

use fractal_telemetry::journal::{Journal, JournalSnapshot};
use fractal_telemetry::VirtualClock;
use proptest::prelude::*;

/// A journal on a pinned virtual timeline: every event gets the same
/// timestamp, so snapshots are pure functions of the event streams.
fn pinned_journal(cap: usize) -> Arc<Journal> {
    Arc::new(Journal::new(cap).with_clock(Arc::new(VirtualClock::starting_at(7, 0))))
}

const KINDS: [&str; 4] = ["phase:MetaExchange", "phase:PadDownload", "fault:drop", "handoff"];

/// Replays `events` (session, kind-index) through a single journal.
fn replay(journal: &Arc<Journal>, events: &[(u64, u8)]) {
    for &(session, kind) in events {
        let k = journal.kind(KINDS[kind as usize % KINDS.len()]);
        journal.record(session, k);
    }
}

fn events() -> impl Strategy<Value = Vec<(u64, u8)>> {
    proptest::collection::vec((0u64..6, any::<u8>()), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After any number of overwrites, the retained events of a
    /// single-session journal are exactly the newest `capacity` ones,
    /// with gap-free seq continuity and exact drop accounting.
    #[test]
    fn wraparound_retains_contiguous_newest(total in 0usize..200, cap_pow in 3u32..7) {
        let cap = 1usize << cap_pow;
        let j = pinned_journal(cap);
        let k = j.kind("tick");
        let s = j.session(1);
        for _ in 0..total {
            s.record(k);
        }
        let snap = j.snapshot();
        prop_assert_eq!(snap.recorded, total as u64);
        let retained = total.min(cap);
        prop_assert_eq!(snap.len(), retained);
        prop_assert_eq!(snap.dropped, (total - retained) as u64);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        let want: Vec<u64> = ((total - retained) as u64..total as u64).collect();
        prop_assert_eq!(seqs, want);
    }

    /// Multi-session wraparound never tears a session's causal order:
    /// each session's retained seqs are strictly increasing.
    #[test]
    fn wraparound_preserves_per_session_order(stream in events()) {
        let j = pinned_journal(16);
        replay(&j, &stream);
        let snap = j.snapshot();
        for session in snap.sessions() {
            let tail = snap.tail(session, usize::MAX);
            for w in tail.windows(2) {
                prop_assert!(w[0].seq < w[1].seq, "session {session}: {:?}", tail);
            }
        }
    }

    #[test]
    fn merge_is_commutative(a in events(), b in events()) {
        let (ja, jb) = (pinned_journal(64), pinned_journal(64));
        replay(&ja, &a);
        replay(&jb, &b);
        let (sa, sb) = (ja.snapshot(), jb.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.render(), ba.render());
    }

    #[test]
    fn merge_is_associative(a in events(), b in events(), c in events()) {
        let (ja, jb, jc) = (pinned_journal(64), pinned_journal(64), pinned_journal(64));
        replay(&ja, &a);
        replay(&jb, &b);
        replay(&jc, &c);
        let (sa, sb, sc) = (ja.snapshot(), jb.snapshot(), jc.snapshot());
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The shard-count invariance the introspection plane claims:
    /// partition the same per-session event streams round-robin across
    /// 1/2/4/8 journals (one per "shard", each on its own pinned clock),
    /// merge, and the result is byte-identical regardless of shard count.
    #[test]
    fn merged_journal_invariant_to_shard_count(stream in events()) {
        let mut merged: Vec<JournalSnapshot> = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            let journals: Vec<Arc<Journal>> = (0..shards).map(|_| pinned_journal(256)).collect();
            for &(session, kind) in &stream {
                // A session lives on exactly one shard, whichever the
                // shard count: deal by session id.
                let j = &journals[(session as usize) % shards];
                let k = j.kind(KINDS[kind as usize % KINDS.len()]);
                j.record(session, k);
            }
            let mut snap = JournalSnapshot::default();
            for j in &journals {
                snap.merge(&j.snapshot());
            }
            merged.push(snap);
        }
        for other in &merged[1..] {
            prop_assert_eq!(&merged[0], other);
            prop_assert_eq!(merged[0].render(), other.render());
        }
    }
}
