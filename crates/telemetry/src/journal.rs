//! The flight recorder: bounded, lock-free ring-buffer event journals.
//!
//! Metrics answer *how much*; they cannot answer *what happened to
//! session 4711 before it stalled*. The journal fills that gap: each
//! reactor shard owns a [`Journal`], a fixed-capacity ring of
//! [`Event`]s (`{ seq, t_ns, session, kind }`) recording phase
//! transitions, fault injections, handoffs, stale-delivery drops, and
//! stall marks. Recording is wait-free for the shard thread — one
//! global-sequence `fetch_add` to claim a slot, one per-session
//! `fetch_add` for the event's causal index, a seqlock-versioned slot
//! write — and never allocates, so a journal can stay attached in the
//! hot path within the repo's <5 % telemetry-overhead budget.
//!
//! # Consistency model
//!
//! A journal has **one writer** (its shard thread) and any number of
//! concurrent readers (the introspection sidecar, a stall reporter).
//! Every slot carries a seqlock version: the writer makes it odd,
//! stores the fields, makes it even; a reader that observes an odd or
//! changed version discards the slot instead of surfacing a torn
//! event. Readers never block the writer.
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

use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::clock::{MonotonicClock, SharedClock};

/// Default ring capacity per journal (events retained per shard).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// An interned event-kind label, bound once via [`Journal::kind`] so the
/// recording path never touches the label table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KindId(u32);

/// One recorded event.
///
/// `seq` is the per-session causal index (0 for the session's first
/// event). `kind` is the interned label, e.g. `phase:PadDownload`,
/// `fault:drop`, `handoff`, `stall:Sessioning`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Event {
    /// Per-session event index, 0-based, gap-free per source stream.
    pub seq: u64,
    /// Timestamp from the journal's clock.
    pub t_ns: u64,
    /// Session label (global session id when the caller sets one).
    pub session: u64,
    /// Resolved kind label.
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

/// One seqlock-versioned ring slot. `ver == 0` means never written;
/// odd means a write is in flight.
struct Slot {
    ver: AtomicU64,
    gseq: AtomicU64,
    seq: AtomicU64,
    t_ns: AtomicU64,
    session: AtomicU64,
    kind: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            ver: AtomicU64::new(0),
            gseq: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            session: AtomicU64::new(0),
            kind: AtomicU64::new(0),
        }
    }
}

/// A bounded single-writer event ring (one per reactor shard).
pub struct Journal {
    slots: Box<[Slot]>,
    mask: usize,
    /// Total events ever recorded; also the global slot allocator.
    head: AtomicU64,
    /// Interned kind labels; `KindId` indexes into this.
    kinds: RwLock<Vec<String>>,
    /// Per-session causal counters, shared with every handle for the
    /// same session so fault-layer and reactor events interleave on one
    /// gap-free stream.
    sessions: RwLock<BTreeMap<u64, Arc<AtomicU64>>>,
    clock: SharedClock,
}

impl Journal {
    /// A journal retaining the last `capacity` events (rounded up to a
    /// power of two, minimum 8), stamped by real monotonic time.
    pub fn new(capacity: usize) -> Journal {
        let cap = capacity.max(8).next_power_of_two();
        Journal {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            mask: cap - 1,
            head: AtomicU64::new(0),
            kinds: RwLock::new(Vec::new()),
            sessions: RwLock::new(BTreeMap::new()),
            clock: MonotonicClock::shared(),
        }
    }

    /// The same journal stamped by `clock` — a fixed-timeline
    /// [`VirtualClock`](crate::clock::VirtualClock) makes merged
    /// snapshots byte-identical at any shard count.
    pub fn with_clock(mut self, clock: SharedClock) -> Journal {
        self.clock = clock;
        self
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events recorded over the journal's lifetime (retained or
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Interns `label` and returns its id; repeated calls with the same
    /// label return the same id. Bind kinds once at setup — recording
    /// with a bound [`KindId`] never touches this table.
    pub fn kind(&self, label: &str) -> KindId {
        if let Some(i) = self.kinds.read().iter().position(|k| k == label) {
            return KindId(i as u32);
        }
        let mut kinds = self.kinds.write();
        if let Some(i) = kinds.iter().position(|k| k == label) {
            return KindId(i as u32);
        }
        kinds.push(label.to_string());
        KindId((kinds.len() - 1) as u32)
    }

    /// A recording handle for `session`. Handles for the same session
    /// share one causal counter, so events recorded through any of them
    /// form a single gap-free `seq` stream.
    pub fn session(self: &Arc<Journal>, session: u64) -> SessionJournal {
        let seq = {
            let sessions = self.sessions.read();
            sessions.get(&session).cloned()
        };
        let seq = seq.unwrap_or_else(|| {
            let mut sessions = self.sessions.write();
            Arc::clone(sessions.entry(session).or_insert_with(|| Arc::new(AtomicU64::new(0))))
        });
        SessionJournal { journal: Arc::clone(self), session, seq }
    }

    /// Records one event for `session` without a pre-bound handle —
    /// convenience for cold paths (stall marking, tests).
    pub fn record(self: &Arc<Journal>, session: u64, kind: KindId) {
        self.session(session).record(kind);
    }

    /// The single-writer slot write. `seq` is the caller's per-session
    /// causal index.
    fn write(&self, session: u64, seq: u64, kind: KindId) {
        let g = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(g as usize) & self.mask];
        let t_ns = self.clock.now_ns();
        let v = slot.ver.load(Ordering::Relaxed);
        slot.ver.store(v + 1, Ordering::Relaxed); // odd: write in flight
        fence(Ordering::Release);
        slot.gseq.store(g, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Relaxed);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.session.store(session, Ordering::Relaxed);
        slot.kind.store(kind.0 as u64, Ordering::Relaxed);
        slot.ver.store(v + 2, Ordering::Release); // even: stable
    }

    /// A consistent point-in-time copy of the retained events, in
    /// canonical order. Slots with a write in flight are skipped, never
    /// surfaced torn.
    pub fn snapshot(&self) -> JournalSnapshot {
        let kinds = self.kinds.read().clone();
        let mut tagged: Vec<(u64, Event)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            for _ in 0..4 {
                let v1 = slot.ver.load(Ordering::Acquire);
                if v1 == 0 || v1 % 2 == 1 {
                    break; // empty, or writer mid-flight: drop the slot
                }
                let gseq = slot.gseq.load(Ordering::Relaxed);
                let seq = slot.seq.load(Ordering::Relaxed);
                let t_ns = slot.t_ns.load(Ordering::Relaxed);
                let session = slot.session.load(Ordering::Relaxed);
                let kind = slot.kind.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                let v2 = slot.ver.load(Ordering::Relaxed);
                if v1 != v2 {
                    continue; // overwritten mid-read: retry
                }
                if let Some(label) = kinds.get(kind as usize) {
                    tagged.push((gseq, Event { seq, t_ns, session, kind: label.clone() }));
                }
                break;
            }
        }
        tagged.sort_by_key(|(g, _)| *g);
        let recorded = self.recorded();
        let events: Vec<Event> = tagged.into_iter().map(|(_, e)| e).collect();
        let dropped = recorded - (events.len() as u64).min(recorded);
        let mut snap = JournalSnapshot { events, recorded, dropped };
        snap.canonicalize();
        snap
    }

    /// The last `n` retained events for `session`, oldest first.
    pub fn tail(&self, session: u64, n: usize) -> Vec<Event> {
        self.snapshot().tail(session, n)
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

/// A per-session recording handle: wait-free, allocation-free.
#[derive(Clone, Debug)]
pub struct SessionJournal {
    journal: Arc<Journal>,
    session: u64,
    seq: Arc<AtomicU64>,
}

impl SessionJournal {
    /// The session label this handle records under.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Records one event: claims the next per-session causal index and
    /// writes the slot.
    pub fn record(&self, kind: KindId) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.journal.write(self.session, seq, kind);
    }

    /// Interns a label through the underlying journal (setup-time only).
    pub fn kind(&self, label: &str) -> KindId {
        self.journal.kind(label)
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
        Arc::new(Journal::new(cap).with_clock(VirtualClock::shared(1)))
    }

    #[test]
    fn records_and_snapshots_in_causal_order() {
        let j = virtual_journal(64);
        let phase = j.kind("phase:MetaExchange");
        let fault = j.kind("fault:drop");
        let s5 = j.session(5);
        let s2 = j.session(2);
        s5.record(phase);
        s2.record(phase);
        s5.record(fault);
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
        let k = j.kind("x");
        a.record(k);
        b.record(k);
        a.record(k);
        let seqs: Vec<u64> = j.snapshot().tail(9, 10).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let j = virtual_journal(8);
        let k = j.kind("tick");
        let s = j.session(1);
        for _ in 0..20 {
            s.record(k);
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
        let k = j.kind("e");
        let s = j.session(3);
        for _ in 0..5 {
            s.record(k);
        }
        let tail = j.tail(3, 2);
        assert_eq!(tail.len(), 2);
        assert_eq!((tail[0].seq, tail[1].seq), (3, 4));
        assert!(j.tail(99, 4).is_empty());
    }

    #[test]
    fn merge_is_commutative_and_counts_add() {
        let a = virtual_journal(16);
        let b = virtual_journal(16);
        let ka = a.kind("p");
        let kb = b.kind("q");
        a.record(1, ka);
        b.record(2, kb);
        b.record(1, kb);
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
    fn kind_interning_is_stable() {
        let j = Arc::new(Journal::new(8));
        let a = j.kind("alpha");
        let b = j.kind("beta");
        let a2 = j.kind("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn sessions_lists_distinct_ids() {
        let j = virtual_journal(32);
        let k = j.kind("e");
        for id in [7u64, 3, 7, 11] {
            j.record(id, k);
        }
        assert_eq!(j.snapshot().sessions(), vec![3, 7, 11]);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Journal::new(0).capacity(), 8);
        assert_eq!(Journal::new(100).capacity(), 128);
        assert_eq!(Journal::new(4096).capacity(), 4096);
    }

    #[test]
    fn render_carries_accounting_trailer() {
        let j = virtual_journal(8);
        let k = j.kind("e");
        for _ in 0..12 {
            j.session(1).record(k);
        }
        let text = j.snapshot().render();
        assert!(text.contains("retained=8 recorded=12 dropped=4"), "{text}");
    }
}
