//! The flight recorder: bounded ring-buffer event journals behind one lock.
//!
//! Metrics answer *how much*; they cannot answer *what happened to
//! session 4711 before it stalled*. The journal fills that gap: each
//! reactor shard's [`Telemetry`](crate::Telemetry) bundle carries a
//! [`Journal`], a fixed-capacity ring of [`Event`]s
//! (`{ seq, t_ns, session, kind }`) recording phase transitions, fault
//! injections, handoffs, the duplicate and stale frames the INP receive
//! rule drops, and stall marks. Kinds are `&'static str` labels
//! (`phase:PadDownload`, `fault:drop`, `drop:dup`, `drop:stale`, …), so
//! there is nothing to bind or intern before recording.
//!
//! # Consistency model
//!
//! One `Mutex` guards the ring, the per-session `seq` counters and the
//! `recorded` count, so any number of threads may record into and read
//! from one journal: an event is claimed, stamped and stored in one
//! critical section and a reader never sees it half-written. The traffic
//! it serves is one writer per journal (the shard thread) and a reader
//! only after the run, on a stall or on a scrape, so the lock is
//! uncontended where it matters.
//!
//! # Determinism
//!
//! `Event.seq` is the session's *own* event index (0, 1, 2, …), not a
//! journal-global position. A session lives on exactly one shard, so
//! its `(seq, kind)` stream is a pure function of its own traffic —
//! independent of how many shards the run used. [`JournalSnapshot::merge`]
//! is a multiset union canonically ordered by
//! `(session, seq, t_ns, kind)`: associative, commutative, and — under
//! a fixed-timeline [`VirtualClock`](crate::clock::VirtualClock) —
//! byte-identical at any shard count. Wall-clock journals trade that
//! for real timestamps; the ordering stays deterministic per session.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::SharedClock;

/// Default ring capacity per journal (events retained per shard).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// One recorded event.
///
/// `seq` is the per-session causal index (0 for the session's first
/// event). `kind` is the label it was recorded under, e.g.
/// `phase:PadDownload`, `fault:drop`, `handoff`, `drop:stale`, `stall:mark`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Event {
    /// Per-session event index, 0-based, gap-free per source stream.
    pub seq: u64,
    /// Timestamp from the journal's clock.
    pub t_ns: u64,
    /// Session label (global session id when the caller sets one).
    pub session: u64,
    /// Kind label.
    pub kind: String,
}

impl Event {
    fn key(&self) -> (u64, u64, u64, &str) {
        (self.session, self.seq, self.t_ns, self.kind.as_str())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Canonical order: by session, then causal index, then time, then
    /// kind — the order [`JournalSnapshot::merge`] normalizes to.
    fn cmp(&self, other: &Event) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl core::fmt::Display for Event {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "session={} seq={} t_ns={} kind={}", self.session, self.seq, self.t_ns, self.kind)
    }
}

/// An event as the ring holds it: the kind stays a static label until a
/// reader copies the event out.
#[derive(Clone, Copy)]
struct Entry {
    seq: u64,
    t_ns: u64,
    session: u64,
    kind: &'static str,
}

impl Entry {
    fn event(&self) -> Event {
        Event { seq: self.seq, t_ns: self.t_ns, session: self.session, kind: self.kind.to_string() }
    }
}

/// Everything the journal's lock guards.
struct Ring {
    /// Retained events in recording order, oldest first; never longer
    /// than the journal's capacity.
    entries: VecDeque<Entry>,
    /// Next causal index per session label, so every recording path for
    /// one session (reactor, fault layer) extends one gap-free stream.
    next_seq: BTreeMap<u64, u64>,
    /// Total events recorded over the journal's lifetime (retained or
    /// overwritten).
    recorded: u64,
}

/// A bounded event ring (one per reactor shard).
pub struct Journal {
    ring: Mutex<Ring>,
    capacity: usize,
    clock: SharedClock,
}

impl Journal {
    /// A journal retaining the last `capacity` events (rounded up to a
    /// power of two, minimum 8), stamped by `clock`. Components get one
    /// through [`Telemetry::with_journal`](crate::Telemetry::with_journal),
    /// which passes the bundle's own clock.
    pub fn new(capacity: usize, clock: SharedClock) -> Journal {
        let capacity = capacity.max(8).next_power_of_two();
        Journal {
            ring: Mutex::new(Ring {
                entries: VecDeque::with_capacity(capacity),
                next_seq: BTreeMap::new(),
                recorded: 0,
            }),
            capacity,
            clock,
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events recorded over the journal's lifetime (retained or
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().recorded
    }

    /// A recording handle for `session`. Every handle for the same
    /// session extends one gap-free `seq` stream.
    pub fn session(self: &Arc<Journal>, session: u64) -> SessionJournal {
        SessionJournal { journal: Arc::clone(self), session }
    }

    /// Records one `kind` event for `session`: claims the session's next
    /// causal index, stamps it, and overwrites the oldest retained event
    /// once the ring is full.
    pub fn record(&self, session: u64, kind: &'static str) {
        let mut ring = self.ring.lock();
        let next = ring.next_seq.entry(session).or_insert(0);
        let seq = *next;
        *next += 1;
        let t_ns = self.clock.now_ns();
        if ring.entries.len() == self.capacity {
            ring.entries.pop_front();
        }
        ring.entries.push_back(Entry { seq, t_ns, session, kind });
        ring.recorded += 1;
    }

    /// A point-in-time copy of the retained events, in canonical order.
    pub fn snapshot(&self) -> JournalSnapshot {
        let ring = self.ring.lock();
        let events: Vec<Event> = ring.entries.iter().map(Entry::event).collect();
        let recorded = ring.recorded;
        drop(ring);
        let dropped = recorded - events.len() as u64;
        let mut snap = JournalSnapshot { events, recorded, dropped };
        snap.canonicalize();
        snap
    }

    /// The last `n` retained events for `session`, oldest first — read
    /// off the ring under the lock, without copying the other sessions'
    /// events.
    pub fn tail(&self, session: u64, n: usize) -> Vec<Event> {
        let ring = self.ring.lock();
        let mut tail: Vec<Event> = ring
            .entries
            .iter()
            .rev()
            .filter(|e| e.session == session)
            .take(n)
            .map(Entry::event)
            .collect();
        tail.reverse();
        tail
    }
}

impl core::fmt::Debug for Journal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// A per-session recording handle.
#[derive(Clone, Debug)]
pub struct SessionJournal {
    journal: Arc<Journal>,
    session: u64,
}

impl SessionJournal {
    /// Records one `kind` event on this session's stream.
    pub fn record(&self, kind: &'static str) {
        self.journal.record(self.session, kind);
    }

    /// The last `n` retained events of this session, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        self.journal.tail(self.session, n)
    }
}

/// Plain-data copy of a journal's retained events — mergeable across
/// shards.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct JournalSnapshot {
    /// Retained events in canonical `(session, seq, t_ns, kind)` order.
    pub events: Vec<Event>,
    /// Total events recorded by the source journal(s), including
    /// overwritten ones.
    pub recorded: u64,
    /// Events lost to ring overwrite (`recorded - retained`).
    pub dropped: u64,
}

impl JournalSnapshot {
    fn canonicalize(&mut self) {
        self.events.sort();
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Folds `other` into `self`: multiset union in canonical order.
    /// Associative and commutative — merging shard journals in any
    /// grouping yields identical bytes.
    pub fn merge(&mut self, other: &JournalSnapshot) {
        self.events.extend(other.events.iter().cloned());
        self.recorded += other.recorded;
        self.dropped += other.dropped;
        self.canonicalize();
    }

    /// The last `n` events for `session`, oldest first.
    pub fn tail(&self, session: u64, n: usize) -> Vec<Event> {
        let mut hits: Vec<&Event> = self.events.iter().filter(|e| e.session == session).collect();
        let skip = hits.len().saturating_sub(n);
        hits.drain(..skip);
        hits.into_iter().cloned().collect()
    }

    /// Every session with at least one retained event, ascending.
    pub fn sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.events.iter().map(|e| e.session).collect();
        ids.dedup(); // events are session-sorted
        ids
    }

    /// One line per event, plus a trailer accounting for overwritten
    /// events — the `/journal` endpoint and stall-artifact format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "# events retained={} recorded={} dropped={}\n",
            self.events.len(),
            self.recorded,
            self.dropped
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn virtual_journal(cap: usize) -> Arc<Journal> {
        Arc::new(Journal::new(cap, VirtualClock::shared(1)))
    }

    #[test]
    fn records_and_snapshots_in_causal_order() {
        let j = virtual_journal(64);
        let s5 = j.session(5);
        let s2 = j.session(2);
        s5.record("phase:MetaExchange");
        s2.record("phase:MetaExchange");
        s5.record("fault:drop");
        let snap = j.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.recorded, 3);
        assert_eq!(snap.dropped, 0);
        // Canonical order: session 2 first, then session 5's two events
        // in causal order.
        assert_eq!(snap.events[0].session, 2);
        assert_eq!(
            snap.events[1],
            Event { seq: 0, t_ns: 0, session: 5, kind: "phase:MetaExchange".into() }
        );
        assert_eq!(snap.events[2].seq, 1);
        assert_eq!(snap.events[2].kind, "fault:drop");
    }

    #[test]
    fn shared_session_handles_share_one_seq_stream() {
        let j = virtual_journal(64);
        let a = j.session(9);
        let b = j.session(9);
        a.record("x");
        b.record("x");
        a.record("x");
        let seqs: Vec<u64> = j.snapshot().tail(9, 10).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let j = virtual_journal(8);
        let s = j.session(1);
        for _ in 0..20 {
            s.record("tick");
        }
        let snap = j.snapshot();
        assert_eq!(snap.recorded, 20);
        assert_eq!(snap.len(), 8);
        assert_eq!(snap.dropped, 12);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn tail_returns_last_n_oldest_first() {
        let j = virtual_journal(64);
        let s = j.session(3);
        for _ in 0..5 {
            s.record("e");
        }
        j.record(4, "other");
        let tail = j.tail(3, 2);
        assert_eq!(tail.len(), 2);
        assert_eq!((tail[0].seq, tail[1].seq), (3, 4));
        assert_eq!(s.tail(2), tail, "the handle reads the same tail");
        assert_eq!(j.tail(3, 16), j.snapshot().tail(3, 16), "ring scan ≡ snapshot tail");
        assert!(j.tail(99, 4).is_empty());
    }

    #[test]
    fn merge_is_commutative_and_counts_add() {
        let a = virtual_journal(16);
        let b = virtual_journal(16);
        a.record(1, "p");
        b.record(2, "q");
        b.record(1, "q");
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.recorded, 3);
        assert_eq!(ab.render(), ba.render());
    }

    #[test]
    fn sessions_lists_distinct_ids() {
        let j = virtual_journal(32);
        for id in [7u64, 3, 7, 11] {
            j.record(id, "e");
        }
        assert_eq!(j.snapshot().sessions(), vec![3, 7, 11]);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let cap = |n| Journal::new(n, VirtualClock::shared(1)).capacity();
        assert_eq!(cap(0), 8);
        assert_eq!(cap(100), 128);
        assert_eq!(cap(4096), 4096);
    }

    #[test]
    fn render_carries_accounting_trailer() {
        let j = virtual_journal(8);
        for _ in 0..12 {
            j.session(1).record("e");
        }
        let text = j.snapshot().render();
        assert!(text.contains("retained=8 recorded=12 dropped=4"), "{text}");
    }
}
