//! Seeded fault injection over any [`Transport`] pair.
//!
//! Pervasive links lose, duplicate, reorder, and corrupt bytes; they
//! partition and they die. [`FaultPlan`] wraps both ends of a
//! [`TransportPair`] with a deterministic adversary that applies those
//! faults at send-chunk granularity from a seeded xorshift stream:
//!
//! * **drop** — the chunk vanishes (the sender still thinks it went out);
//! * **duplicate** — the chunk is delivered twice back to back;
//! * **corrupt** — one byte is flipped; checked framing
//!   ([`Framer::with_checksum`](crate::transport::Framer::with_checksum))
//!   must reject the frame — corruption is never silently decoded;
//! * **reorder** — the chunk is held and released after the next one;
//! * **transient partition** — after a configured chunk count the
//!   direction parks everything until the heal instant, then flushes;
//!   the reactor's `next_ready_at`/`advance_to` protocol rides through
//!   it as recovery, not a stall;
//! * **hard link drop** — the pair closes mid-session; both ends see
//!   [`TransportError::Closed`] after draining.
//!
//! Each direction keeps one queue of chunks bound for the inner
//! transport: a partition's backlog, or a second copy or released hold
//! the inner window could not take whole. It drains oldest first, one
//! inner `send` per chunk and ahead of any later chunk, so no fault tears
//! a chunk; and nothing leaves it before an open partition's heal
//! instant, a reorder hold included.
//!
//! Every action is appended to a [`FaultLog`], so "same seed ⇒ same
//! faults" is checkable as byte-identical event sequences. The wrapper
//! holds no clock of its own beyond a high-water mark fed by
//! `advance_to`, so it composes over any [`TransportPair`]: a
//! `LoopbackTransport` pair, timed or not, or a socket pair.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use fractal_telemetry::journal::SessionJournal;

use crate::transport::{Transport, TransportError, TransportPair};

/// Bytes one direction may park while partitioned before `writable()`
/// reports backpressure.
const PARK_CAP: usize = 256 * 1024;

/// Which direction of the pair an event happened on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultDir {
    /// Client → service.
    ToService,
    /// Service → client.
    ToClient,
}

/// What the fault layer did to one sent chunk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Passed through untouched.
    Delivered,
    /// Vanished; the sender saw a successful send.
    Dropped,
    /// Delivered twice back to back.
    Duplicated,
    /// One byte flipped at the given offset within the chunk.
    Corrupted {
        /// Offset of the flipped byte.
        offset: usize,
    },
    /// Held back and released after the chunk that followed it.
    Reordered,
    /// The direction entered a transient partition.
    PartitionStart,
    /// The partition healed and the parked backlog flushed.
    PartitionHeal,
    /// The link died for good; the pair is closed.
    LinkDropped,
}

impl FaultKind {
    /// The flight-recorder label of an injected fault; `None` for
    /// `Delivered` (journaling every clean chunk would flood the ring with
    /// non-events).
    pub(crate) fn journal_label(self) -> Option<&'static str> {
        match self {
            FaultKind::Delivered => None,
            FaultKind::Dropped => Some("fault:drop"),
            FaultKind::Duplicated => Some("fault:dup"),
            FaultKind::Corrupted { .. } => Some("fault:corrupt"),
            FaultKind::Reordered => Some("fault:reorder"),
            FaultKind::PartitionStart => Some("fault:partition"),
            FaultKind::PartitionHeal => Some("fault:heal"),
            FaultKind::LinkDropped => Some("fault:link_drop"),
        }
    }
}

/// One entry of the deterministic fault log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// Direction the chunk was travelling.
    pub dir: FaultDir,
    /// 1-based chunk counter within that direction.
    pub chunk: u64,
    /// What happened to it.
    pub kind: FaultKind,
}

/// A transient partition: the direction parks all traffic once it has
/// carried `after_chunks` chunks, and flushes `heal_after_us` later.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Partition {
    /// Chunks carried before the partition starts.
    pub after_chunks: u64,
    /// Partition duration in simulated microseconds.
    pub heal_after_us: u64,
}

/// The seeded fault schedule for one transport pair.
///
/// Rates are per-mille per sent chunk and mutually exclusive (one roll
/// per chunk decides its fate), so `drop + dup + corrupt + reorder`
/// must stay ≤ 1000.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultPlan {
    /// Seed for the fault stream.
    pub seed: u64,
    /// Chunk-loss rate (‰).
    pub drop_per_mille: u16,
    /// Duplication rate (‰).
    pub dup_per_mille: u16,
    /// Single-byte corruption rate (‰).
    pub corrupt_per_mille: u16,
    /// Reorder (hold-one-chunk) rate (‰).
    pub reorder_per_mille: u16,
    /// Optional transient partition, applied per direction.
    pub partition: Option<Partition>,
    /// Optional hard link drop after this many chunks in one direction.
    pub drop_link_after_chunks: Option<u64>,
}

/// splitmix64: turns correlated seeds into well-mixed, nonzero states.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        z
    }
}

/// xorshift64*: the per-direction fault stream.
fn next_rand(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    s.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            corrupt_per_mille: 0,
            reorder_per_mille: 0,
            partition: None,
            drop_link_after_chunks: None,
        }
    }

    /// Sets the chunk-loss rate (‰).
    pub fn with_drop(mut self, per_mille: u16) -> FaultPlan {
        self.drop_per_mille = per_mille;
        self
    }

    /// Sets the duplication rate (‰).
    pub fn with_dup(mut self, per_mille: u16) -> FaultPlan {
        self.dup_per_mille = per_mille;
        self
    }

    /// Sets the corruption rate (‰).
    pub fn with_corrupt(mut self, per_mille: u16) -> FaultPlan {
        self.corrupt_per_mille = per_mille;
        self
    }

    /// Sets the reorder rate (‰).
    pub fn with_reorder(mut self, per_mille: u16) -> FaultPlan {
        self.reorder_per_mille = per_mille;
        self
    }

    /// Adds a transient partition after `after_chunks` chunks, healing
    /// `heal_after_us` later.
    pub fn with_partition(mut self, after_chunks: u64, heal_after_us: u64) -> FaultPlan {
        self.partition = Some(Partition { after_chunks, heal_after_us });
        self
    }

    /// Kills the link for good after `chunks` chunks in one direction.
    pub fn with_link_drop_after(mut self, chunks: u64) -> FaultPlan {
        self.drop_link_after_chunks = Some(chunks);
        self
    }

    /// The same fault rates under a seed derived for session `i` — each
    /// session gets an independent but reproducible fault stream.
    pub fn for_session(&self, i: u64) -> FaultPlan {
        FaultPlan { seed: mix(self.seed, i.wrapping_add(1)), ..*self }
    }

    /// Wraps both ends of `pair` with this plan; the returned [`FaultLog`]
    /// observes every injected fault.
    pub fn wrap_pair(&self, pair: TransportPair) -> (TransportPair, FaultLog) {
        self.wrap_pair_inner(pair, None)
    }

    /// [`wrap_pair`](Self::wrap_pair) that also records every injected
    /// fault on `journal` (the session's flight-recorder handle), so a
    /// stall's causal tail interleaves the faults with the phase chain.
    pub fn wrap_pair_journaled(
        &self,
        pair: TransportPair,
        journal: SessionJournal,
    ) -> (TransportPair, FaultLog) {
        self.wrap_pair_inner(pair, Some(journal))
    }

    fn wrap_pair_inner(
        &self,
        pair: TransportPair,
        journal: Option<SessionJournal>,
    ) -> (TransportPair, FaultLog) {
        let total = self.drop_per_mille as u32
            + self.dup_per_mille as u32
            + self.corrupt_per_mille as u32
            + self.reorder_per_mille as u32;
        assert!(total <= 1000, "fault rates sum to {total}‰ (> 1000)");
        let state = Rc::new(RefCell::new(FaultState {
            plan: *self,
            now: 0,
            link_dropped: false,
            dirs: [DirState::new(mix(self.seed, 0xA)), DirState::new(mix(self.seed, 0xB))],
            log: Vec::new(),
            journal,
        }));
        let wrapped = TransportPair {
            client: Box::new(FaultTransport {
                state: Rc::clone(&state),
                inner: pair.client,
                dir: 0,
            }),
            service: Box::new(FaultTransport {
                state: Rc::clone(&state),
                inner: pair.service,
                dir: 1,
            }),
        };
        (wrapped, FaultLog { state })
    }
}

#[derive(Debug)]
struct DirState {
    rng: u64,
    chunks_sent: u64,
    /// Chunks waiting for the inner transport, oldest first: a
    /// partition's backlog, or what the inner window refused. The front
    /// chunk may be part-sent; nothing leaves before the heal instant of
    /// an open partition.
    queue: VecDeque<Vec<u8>>,
    /// Bytes in `queue`.
    queued: usize,
    /// A chunk held back by a reorder fault.
    held: Option<Vec<u8>>,
    /// Heal instant of the active partition.
    partition_until: Option<u64>,
    /// A partition fires at most once per direction.
    partition_done: bool,
}

impl DirState {
    fn new(rng: u64) -> DirState {
        DirState {
            rng,
            chunks_sent: 0,
            queue: VecDeque::new(),
            queued: 0,
            held: None,
            partition_until: None,
            partition_done: false,
        }
    }

    fn enqueue(&mut self, chunk: Vec<u8>) {
        self.queued += chunk.len();
        self.queue.push_back(chunk);
    }

    /// When this direction next has bytes to move: the heal instant of an
    /// open partition, else the next tick; `None` when nothing waits.
    fn next_bytes_at(&self, now: u64) -> Option<u64> {
        if self.queue.is_empty() && self.held.is_none() {
            return None;
        }
        Some(self.partition_until.unwrap_or(0).max(now + 1))
    }
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// High-water mark of `advance_to` across both ends.
    now: u64,
    link_dropped: bool,
    /// Index 0 = client→service, 1 = service→client.
    dirs: [DirState; 2],
    log: Vec<FaultEvent>,
    /// Flight-recorder handle, when the caller wants injections on the
    /// session's causal stream.
    journal: Option<SessionJournal>,
}

impl FaultState {
    /// Appends to the deterministic tape and, for actual faults, to the
    /// session's flight recorder.
    fn log_event(&mut self, ev: FaultEvent) {
        if let (Some(journal), Some(label)) = (&self.journal, ev.kind.journal_label()) {
            journal.record(label);
        }
        self.log.push(ev);
    }
}

/// Read-side handle onto the fault log of one wrapped pair.
#[derive(Debug)]
pub struct FaultLog {
    state: Rc<RefCell<FaultState>>,
}

impl FaultLog {
    /// Every fault event so far, in injection order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.state.borrow().log.clone()
    }

    /// An FNV-1a fingerprint of the event sequence — two runs injected
    /// identical faults iff their fingerprints match.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        for e in self.state.borrow().log.iter() {
            eat(e.dir as u64);
            eat(e.chunk);
            let (tag, arg) = match e.kind {
                FaultKind::Delivered => (0u64, 0u64),
                FaultKind::Dropped => (1, 0),
                FaultKind::Duplicated => (2, 0),
                FaultKind::Corrupted { offset } => (3, offset as u64),
                FaultKind::Reordered => (4, 0),
                FaultKind::PartitionStart => (5, 0),
                FaultKind::PartitionHeal => (6, 0),
                FaultKind::LinkDropped => (7, 0),
            };
            eat(tag);
            eat(arg);
        }
        h
    }
}

/// One end of a fault-wrapped pair.
pub struct FaultTransport {
    state: Rc<RefCell<FaultState>>,
    inner: Box<dyn Transport>,
    /// The direction this end *sends* on: 0 = to-service, 1 = to-client.
    dir: usize,
}

impl FaultTransport {
    fn dir_tag(&self) -> FaultDir {
        if self.dir == 0 {
            FaultDir::ToService
        } else {
            FaultDir::ToClient
        }
    }

    /// Moves the queue into the inner transport, one `send` per chunk,
    /// until the inner window refuses part of one. Moves nothing before
    /// the heal instant of an open partition, and logs the heal once its
    /// backlog has drained.
    fn flush(&mut self, now: u64) -> Result<(), TransportError> {
        let dir_tag = self.dir_tag();
        let mut st = self.state.borrow_mut();
        let d = &mut st.dirs[self.dir];
        if d.partition_until.is_some_and(|t| now < t) {
            return Ok(());
        }
        while let Some(chunk) = d.queue.front_mut() {
            let taken = self.inner.send(chunk)?;
            d.queued -= taken;
            if taken < chunk.len() {
                chunk.drain(..taken);
                return Ok(());
            }
            d.queue.pop_front();
        }
        if d.partition_until.take().is_some() {
            d.partition_done = true;
            let chunk = d.chunks_sent;
            st.log_event(FaultEvent { dir: dir_tag, chunk, kind: FaultKind::PartitionHeal });
        }
        Ok(())
    }
}

impl Transport for FaultTransport {
    fn writable(&self) -> usize {
        let st = self.state.borrow();
        let d = &st.dirs[self.dir];
        if st.link_dropped {
            0
        } else if d.partition_until.is_some() {
            PARK_CAP.saturating_sub(d.queued)
        } else if !d.queue.is_empty() {
            0
        } else {
            self.inner.writable()
        }
    }

    fn readable(&self) -> usize {
        self.inner.readable()
    }

    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        if self.state.borrow().link_dropped {
            return Err(TransportError::Closed);
        }
        if bytes.is_empty() {
            return self.inner.send(bytes);
        }
        // What is already queued goes first, so the new chunk queues
        // behind it, never ahead.
        let now = self.now_us();
        self.flush(now)?;
        let n = bytes.len().min(self.writable());
        if n == 0 {
            return Ok(0);
        }

        let plan = self.state.borrow().plan;
        let dir_tag = self.dir_tag();
        let mut st = self.state.borrow_mut();
        let d = &mut st.dirs[self.dir];
        d.chunks_sent += 1;
        let chunk_no = d.chunks_sent;

        if plan.drop_link_after_chunks.is_some_and(|k| chunk_no > k) {
            st.link_dropped = true;
            st.log_event(FaultEvent {
                dir: dir_tag,
                chunk: chunk_no,
                kind: FaultKind::LinkDropped,
            });
            drop(st);
            self.inner.close();
            return Err(TransportError::Closed);
        }

        if let Some(p) = plan.partition {
            let d = &mut st.dirs[self.dir];
            if !d.partition_done && d.partition_until.is_none() && chunk_no > p.after_chunks {
                d.partition_until = Some(now + p.heal_after_us.max(1));
                st.log_event(FaultEvent {
                    dir: dir_tag,
                    chunk: chunk_no,
                    kind: FaultKind::PartitionStart,
                });
            }
        }

        // One roll walks the cumulative thresholds; a corruption's offset
        // is a second draw.
        let d = &mut st.dirs[self.dir];
        let roll = (next_rand(&mut d.rng) % 1000) as u16;
        let mut edge = 0;
        let fate = [
            (plan.drop_per_mille, FaultKind::Dropped),
            (plan.dup_per_mille, FaultKind::Duplicated),
            (plan.corrupt_per_mille, FaultKind::Corrupted { offset: 0 }),
            (plan.reorder_per_mille, FaultKind::Reordered),
        ]
        .into_iter()
        .find(|&(rate, _)| {
            edge += rate;
            roll < edge
        })
        .map_or(FaultKind::Delivered, |(_, kind)| kind);

        let mut chunk = bytes[..n].to_vec();
        let kind = match fate {
            FaultKind::Corrupted { .. } => {
                let offset = (next_rand(&mut d.rng) as usize) % chunk.len();
                chunk[offset] ^= 0xA5;
                FaultKind::Corrupted { offset }
            }
            // One hold at a time, and none in a partitioned direction: its
            // queue already waits for the heal.
            FaultKind::Reordered if d.held.is_some() || d.partition_until.is_some() => {
                FaultKind::Delivered
            }
            kind => kind,
        };
        st.log_event(FaultEvent { dir: dir_tag, chunk: chunk_no, kind });
        let d = &mut st.dirs[self.dir];
        match kind {
            FaultKind::Dropped => return Ok(n),
            FaultKind::Reordered => {
                d.held = Some(chunk);
                return Ok(n);
            }
            FaultKind::Duplicated => d.enqueue(chunk.clone()),
            _ => {}
        }
        d.enqueue(chunk);
        // A chunk already held for reordering releases after this one.
        if let Some(held) = d.held.take() {
            d.enqueue(held);
        }
        drop(st);
        self.flush(now)?;
        Ok(n)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        self.inner.recv(buf)
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.state.borrow().link_dropped || self.inner.is_closed()
    }

    fn now_us(&self) -> u64 {
        self.state.borrow().now.max(self.inner.now_us())
    }

    fn next_ready_at(&self) -> Option<u64> {
        let now = self.now_us();
        let st = self.state.borrow();
        // The inbound direction's bytes become readable at THIS end; our
        // outbound ones keep the pair live too, since the stall round
        // advances both ends and that flushes them toward the peer.
        let [a, b] = &st.dirs;
        [self.inner.next_ready_at(), a.next_bytes_at(now), b.next_bytes_at(now)]
            .into_iter()
            .flatten()
            .min()
    }

    fn advance_to(&mut self, t_us: u64) {
        {
            let mut st = self.state.borrow_mut();
            st.now = st.now.max(t_us);
            // A hold no later send released goes out behind the queue.
            let d = &mut st.dirs[self.dir];
            if let Some(held) = d.held.take() {
                d.enqueue(held);
            }
        }
        self.inner.advance_to(t_us);
        let now = self.now_us();
        // Errors here resurface on the next send/recv.
        let _ = self.flush(now);
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        self.inner.raw_fd()
    }

    fn set_ready(&mut self, readable: bool, writable: bool) {
        self.inner.set_ready(readable, writable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackTransport;

    fn drain(t: &mut dyn Transport) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n) = t.recv(&mut buf) {
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        out
    }

    #[test]
    fn clean_plan_is_transparent() {
        let plan = FaultPlan::new(1);
        let (mut pair, log) = plan.wrap_pair(LoopbackTransport::pair(64));
        assert_eq!(pair.client.send(b"hello").unwrap(), 5);
        assert_eq!(drain(pair.service.as_mut()), b"hello");
        assert_eq!(
            log.events(),
            vec![FaultEvent { dir: FaultDir::ToService, chunk: 1, kind: FaultKind::Delivered }]
        );
    }

    #[test]
    fn same_seed_same_event_log() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed)
                .with_drop(100)
                .with_dup(100)
                .with_corrupt(100)
                .with_reorder(100);
            let (mut pair, log) = plan.wrap_pair(LoopbackTransport::pair(1 << 16));
            for i in 0..200u8 {
                pair.client.send(&[i; 16]).unwrap();
                pair.service.send(&[i; 8]).unwrap();
            }
            (log.events(), log.fingerprint())
        };
        let (ev1, fp1) = run(7);
        let (ev2, fp2) = run(7);
        assert_eq!(ev1, ev2);
        assert_eq!(fp1, fp2);
        let (_, fp3) = run(8);
        assert_ne!(fp1, fp3, "different seed, different faults");
        assert!(ev1.iter().any(|e| e.kind == FaultKind::Dropped));
        assert!(ev1.iter().any(|e| matches!(e.kind, FaultKind::Corrupted { .. })));
    }

    #[test]
    fn corruption_always_flips_exactly_one_byte() {
        let plan = FaultPlan::new(3).with_corrupt(1000);
        let (mut pair, log) = plan.wrap_pair(LoopbackTransport::pair(1 << 16));
        let sent = [0x11u8; 100];
        pair.client.send(&sent).unwrap();
        let got = drain(pair.service.as_mut());
        assert_eq!(got.len(), 100);
        let diffs = got.iter().zip(sent.iter()).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
        assert!(matches!(log.events()[0].kind, FaultKind::Corrupted { .. }));
    }

    #[test]
    fn reorder_swaps_adjacent_chunks() {
        let plan = FaultPlan::new(5).with_reorder(1000);
        let (mut pair, _log) = plan.wrap_pair(LoopbackTransport::pair(1 << 16));
        pair.client.send(&[0xAA; 4]).unwrap();
        assert_eq!(pair.service.readable(), 0, "first chunk held");
        pair.client.send(&[0xBB; 4]).unwrap();
        let got = drain(pair.service.as_mut());
        assert_eq!(got, [0xBB, 0xBB, 0xBB, 0xBB, 0xAA, 0xAA, 0xAA, 0xAA]);
    }

    #[test]
    fn held_chunk_releases_on_advance() {
        let plan = FaultPlan::new(5).with_reorder(1000);
        let (mut pair, _log) = plan.wrap_pair(LoopbackTransport::pair(1 << 16));
        pair.client.send(&[0xAA; 4]).unwrap();
        assert_eq!(pair.service.readable(), 0);
        let at = pair.service.next_ready_at().expect("held chunk keeps the pair live");
        pair.client.advance_to(at);
        assert_eq!(drain(pair.service.as_mut()), [0xAA; 4]);
    }

    #[test]
    fn a_duplicate_the_window_cannot_take_arrives_whole_later() {
        let plan = FaultPlan::new(5).with_dup(1000);
        let (mut pair, log) = plan.wrap_pair(LoopbackTransport::pair(10));
        let chunk: Vec<u8> = (1..=8).collect();
        assert_eq!(pair.client.send(&chunk).unwrap(), 8);
        let mut got = drain(pair.service.as_mut());
        assert_eq!(got.len(), 10, "the chunk and the first two bytes of its copy");
        assert_eq!(pair.client.writable(), 0, "the rest of the copy goes first");
        let at = pair.service.next_ready_at().expect("the queued copy keeps the pair live");
        pair.client.advance_to(at);
        got.extend(drain(pair.service.as_mut()));
        assert_eq!(got, [chunk.as_slice(), chunk.as_slice()].concat());
        assert_eq!(log.events()[0].kind, FaultKind::Duplicated);
    }

    #[test]
    fn a_hold_released_part_way_finishes_before_the_next_chunk() {
        let plan = FaultPlan::new(5).with_reorder(1000);
        let (mut pair, _log) = plan.wrap_pair(LoopbackTransport::pair(10));
        let sends: [&[u8]; 5] = [&[0xA; 4], &[0xB; 4], &[0xC; 8], &[0xD; 8], &[0xE; 4]];
        let mut wire = Vec::new();
        for bytes in sends {
            assert_eq!(pair.client.send(bytes).unwrap(), bytes.len());
            wire.extend(drain(pair.service.as_mut()));
        }
        while let Some(at) = pair.service.next_ready_at() {
            pair.client.advance_to(at);
            wire.extend(drain(pair.service.as_mut()));
        }
        let expect: Vec<u8> = [sends[1], sends[0], sends[3], sends[2], sends[4]].concat();
        assert_eq!(wire, expect, "B, A, D, then C whole, then E");
    }

    #[test]
    fn partition_parks_then_heals() {
        let plan = FaultPlan::new(9).with_partition(1, 500);
        let (mut pair, log) = plan.wrap_pair(LoopbackTransport::pair(1 << 16));
        pair.client.send(b"one").unwrap();
        pair.client.send(b"two").unwrap();
        pair.client.send(b"three").unwrap();
        assert_eq!(drain(pair.service.as_mut()), b"one", "post-partition chunks parked");
        let heal = pair.service.next_ready_at().expect("partition must advertise its heal");
        assert!(heal >= 500);
        pair.client.advance_to(heal);
        pair.service.advance_to(heal);
        assert_eq!(drain(pair.service.as_mut()), b"twothree", "backlog flushed in order");
        let kinds: Vec<FaultKind> = log.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultKind::PartitionStart));
        assert!(kinds.contains(&FaultKind::PartitionHeal));
    }

    #[test]
    fn a_hold_waits_out_a_partition_opened_by_a_dropped_chunk() {
        let plan = FaultPlan::new(0).with_reorder(500).with_drop(500).with_partition(1, 1000);
        let (mut pair, log) = plan.wrap_pair(LoopbackTransport::pair(1 << 16));
        pair.client.send(&[0xAA; 4]).unwrap();
        pair.client.send(&[0xBB; 4]).unwrap();
        let kinds: Vec<FaultKind> = log.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [FaultKind::Reordered, FaultKind::PartitionStart, FaultKind::Dropped],
            "chunk 1 held, chunk 2 opens the partition and is lost"
        );
        pair.client.advance_to(1);
        assert_eq!(drain(pair.service.as_mut()), [], "the hold must not cross the partition");
        let heal = pair.service.next_ready_at().expect("the hold keeps the pair live");
        assert_eq!(heal, 1000);
        pair.client.advance_to(heal);
        assert_eq!(drain(pair.service.as_mut()), [0xAA; 4]);
        assert_eq!(log.events().last().unwrap().kind, FaultKind::PartitionHeal);
    }

    #[test]
    fn link_drop_closes_both_ends() {
        let plan = FaultPlan::new(11).with_link_drop_after(2);
        let (mut pair, log) = plan.wrap_pair(LoopbackTransport::pair(1 << 16));
        pair.client.send(b"aa").unwrap();
        pair.client.send(b"bb").unwrap();
        assert_eq!(pair.client.send(b"cc"), Err(TransportError::Closed));
        assert!(pair.client.is_closed());
        assert_eq!(drain(pair.service.as_mut()), b"aabb", "backlog drains before Closed");
        let mut buf = [0u8; 8];
        assert_eq!(pair.service.recv(&mut buf), Err(TransportError::Closed));
        assert!(log.events().iter().any(|e| e.kind == FaultKind::LinkDropped));
    }

    #[test]
    fn for_session_derives_distinct_streams() {
        let base = FaultPlan::new(42).with_drop(500);
        let run = |plan: FaultPlan| {
            let (mut pair, log) = plan.wrap_pair(LoopbackTransport::pair(1 << 16));
            for i in 0..64u8 {
                pair.client.send(&[i; 4]).unwrap();
            }
            log.fingerprint()
        };
        assert_ne!(run(base.for_session(0)), run(base.for_session(1)));
        assert_eq!(run(base.for_session(3)), run(base.for_session(3)));
    }

    #[test]
    fn journaled_wrap_mirrors_injected_faults_onto_the_flight_recorder() {
        use fractal_telemetry::{Journal, VirtualClock};
        use std::sync::Arc;
        let journal = Arc::new(Journal::new(128, VirtualClock::shared(1)));
        let plan = FaultPlan::new(7).with_drop(300).with_dup(200).with_corrupt(200);
        let (mut pair, log) =
            plan.wrap_pair_journaled(LoopbackTransport::pair(1 << 16), journal.session(42));
        for i in 0..64u8 {
            pair.client.send(&[i; 8]).unwrap();
        }
        let injected =
            log.events().iter().filter(|e| e.kind != FaultKind::Delivered).count() as u64;
        assert!(injected > 0, "rates that high must inject something");
        let snap = journal.snapshot();
        assert_eq!(snap.recorded, injected, "one journal event per injected fault");
        let tail = snap.tail(42, usize::MAX);
        assert_eq!(tail.len() as u64, injected.min(128));
        assert!(tail.iter().all(|e| e.kind.starts_with("fault:")), "{tail:?}");
        // Clean deliveries never hit the ring.
        assert!(log.events().iter().any(|e| e.kind == FaultKind::Delivered));
    }
}
