//! Concurrent recording: the journal is one locked ring, so two writers
//! sharing session ids and a reader snapshotting in a loop must never
//! see a torn event, a foreign kind, or a session stream out of order —
//! and once the writers are done nothing may be missing.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use fractal_telemetry::journal::JournalSnapshot;
use fractal_telemetry::{MonotonicClock, Registry, Telemetry};

/// Session ids both writers record under.
const SESSIONS: u64 = 5;
/// Events each writer records.
const PER_WRITER: u64 = 2_000;
/// Kinds per writer; the reader checks every event against this table.
const KINDS: [[&str; 2]; 2] = [["w0:phase", "w0:fault"], ["w1:phase", "w1:fault"]];

/// Every event carries a writer's kind and every session's seqs strictly
/// increase; returns the per-session seq lists.
fn check(snap: &JournalSnapshot) -> BTreeMap<u64, Vec<u64>> {
    let mut seqs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for e in &snap.events {
        assert!(KINDS.iter().flatten().any(|k| *k == e.kind), "foreign kind {e}");
        seqs.entry(e.session).or_default().push(e.seq);
    }
    for (session, s) in &seqs {
        assert!(s.windows(2).all(|w| w[0] < w[1]), "session {session} out of order: {s:?}");
    }
    seqs
}

#[test]
fn two_writers_and_a_snapshotting_reader_share_one_journal() {
    let total = 2 * PER_WRITER;
    // Large enough that the ring never wraps: nothing may be dropped.
    let bundle = Telemetry::new(Arc::new(Registry::new()), MonotonicClock::shared())
        .with_journal(total as usize);
    let journal = Arc::clone(bundle.journal().expect("with_journal attaches one"));
    let start = Barrier::new(3);
    let snapshots = std::thread::scope(|scope| {
        for (w, kinds) in KINDS.iter().enumerate() {
            let (journal, start) = (&journal, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..PER_WRITER {
                    // Interleave: writer w starts its round-robin at
                    // session w, so both hit every session id.
                    journal.record((i + w as u64) % SESSIONS, kinds[(i % 2) as usize]);
                }
            });
        }
        let reader = scope.spawn(|| {
            start.wait();
            let mut taken = 0u64;
            loop {
                let snap = journal.snapshot();
                check(&snap);
                assert_eq!(snap.dropped, 0, "a ring this large never overwrites");
                assert_eq!(snap.recorded, snap.len() as u64);
                taken += 1;
                if snap.recorded == total {
                    return taken;
                }
            }
        });
        reader.join().expect("reader panicked")
    });
    assert!(snapshots >= 1);

    let last = bundle.journal_snapshot();
    assert_eq!((last.recorded, last.dropped), (total, 0));
    let seqs = check(&last);
    assert_eq!(seqs.len() as u64, SESSIONS);
    for (session, s) in &seqs {
        let k = s.len() as u64;
        assert_eq!(*s, (0..k).collect::<Vec<u64>>(), "session {session}: gap in its stream");
    }
    assert_eq!(seqs.values().map(|s| s.len() as u64).sum::<u64>(), total);
}
