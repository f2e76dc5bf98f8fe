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
//! A second copy or a released hold that the inner window cannot take
//! whole waits in a per-direction queue and goes out before any later
//! chunk, so no fault tears a chunk.
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
    /// Chunks parked by an active partition, oldest first.
    parked: VecDeque<Vec<u8>>,
    parked_bytes: usize,
    /// A chunk held back by a reorder fault.
    held: Option<Vec<u8>>,
    /// Bytes the inner window did not take (the rest of a duplicate's
    /// second copy or of a released hold): they go out whole, in order,
    /// ahead of any later chunk.
    unsent: Vec<u8>,
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
            parked: VecDeque::new(),
            parked_bytes: 0,
            held: None,
            unsent: Vec::new(),
            partition_until: None,
            partition_done: false,
        }
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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Decision {
    Deliver,
    Drop,
    Dup,
    Corrupt,
    Reorder,
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

    /// Pushes `chunk` into the inner transport; a remainder the inner
    /// window rejects is returned to the caller to re-park.
    fn push_inner(&mut self, chunk: Vec<u8>) -> Result<Option<Vec<u8>>, TransportError> {
        let taken = self.inner.send(&chunk)?;
        if taken == chunk.len() {
            Ok(None)
        } else {
            Ok(Some(chunk[taken..].to_vec()))
        }
    }

    /// Queues `chunk` behind the unsent bytes and sends as much of the
    /// queue as the inner window takes, so the fault layer never tears a
    /// chunk.
    fn push_queued(&mut self, chunk: &[u8]) -> Result<(), TransportError> {
        self.state.borrow_mut().dirs[self.dir].unsent.extend_from_slice(chunk);
        self.flush_unsent().map(drop)
    }

    /// Sends as much of the unsent queue as the inner window takes;
    /// `true` once it is empty.
    fn flush_unsent(&mut self) -> Result<bool, TransportError> {
        let mut unsent = std::mem::take(&mut self.state.borrow_mut().dirs[self.dir].unsent);
        if !unsent.is_empty() {
            let taken = self.inner.send(&unsent)?;
            unsent.drain(..taken);
        }
        let empty = unsent.is_empty();
        self.state.borrow_mut().dirs[self.dir].unsent = unsent;
        Ok(empty)
    }

    /// Flushes the unsent queue, a healed partition's backlog and any
    /// reorder-held chunk whose release is due (time passed without
    /// another send), oldest first.
    fn flush_due(&mut self, now: u64) -> Result<(), TransportError> {
        if !self.flush_unsent()? {
            return Ok(());
        }
        let healed = {
            let st = self.state.borrow();
            let d = &st.dirs[self.dir];
            d.partition_until.is_some_and(|t| now >= t)
        };
        if healed {
            loop {
                let Some(chunk) = self.state.borrow_mut().dirs[self.dir].parked.pop_front() else {
                    break;
                };
                let len = chunk.len();
                let leftover = self.push_inner(chunk)?;
                let mut st = self.state.borrow_mut();
                let d = &mut st.dirs[self.dir];
                match leftover {
                    None => d.parked_bytes -= len,
                    Some(rest) => {
                        d.parked_bytes -= len - rest.len();
                        d.parked.push_front(rest);
                        return Ok(());
                    }
                }
            }
            let mut st = self.state.borrow_mut();
            let dir_tag = self.dir_tag();
            let d = &mut st.dirs[self.dir];
            if d.parked.is_empty() && d.partition_until.is_some() {
                d.partition_until = None;
                d.partition_done = true;
                let chunk = d.chunks_sent;
                st.log_event(FaultEvent { dir: dir_tag, chunk, kind: FaultKind::PartitionHeal });
            }
        }
        // A held chunk released by time (no follow-up send arrived).
        let held = self.state.borrow_mut().dirs[self.dir].held.take();
        if let Some(chunk) = held {
            self.push_queued(&chunk)?;
        }
        Ok(())
    }
}

impl Transport for FaultTransport {
    fn writable(&self) -> usize {
        let st = self.state.borrow();
        if st.link_dropped {
            return 0;
        }
        let d = &st.dirs[self.dir];
        if !d.unsent.is_empty() {
            0
        } else if d.partition_until.is_some() {
            PARK_CAP.saturating_sub(d.parked_bytes)
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
        if !self.flush_unsent()? {
            return Ok(0);
        }
        let now = self.now_us();
        // A heal that came due since the last call flushes first, so the
        // new chunk queues behind the parked backlog, not ahead of it.
        let due_heal = {
            let st = self.state.borrow();
            st.dirs[self.dir].partition_until.is_some_and(|t| now >= t)
        };
        if due_heal {
            self.flush_due(now)?;
        }
        let plan = self.state.borrow().plan;
        let partitioned = self.state.borrow().dirs[self.dir].partition_until.is_some();
        let budget = if partitioned {
            PARK_CAP.saturating_sub(self.state.borrow().dirs[self.dir].parked_bytes)
        } else {
            self.inner.writable()
        };
        let n = bytes.len().min(budget);
        if n == 0 {
            return Ok(0);
        }

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

        let d = &mut st.dirs[self.dir];
        let partitioned = d.partition_until.is_some();
        let roll = (next_rand(&mut d.rng) % 1000) as u16;
        let mut edge = plan.drop_per_mille;
        let mut decision = if roll < edge { Decision::Drop } else { Decision::Deliver };
        if decision == Decision::Deliver {
            edge += plan.dup_per_mille;
            if roll < edge {
                decision = Decision::Dup;
            }
        }
        if decision == Decision::Deliver {
            edge += plan.corrupt_per_mille;
            if roll < edge {
                decision = Decision::Corrupt;
            }
        }
        if decision == Decision::Deliver {
            edge += plan.reorder_per_mille;
            if roll < edge {
                decision = Decision::Reorder;
            }
        }

        let mut chunk = bytes[..n].to_vec();
        if decision == Decision::Corrupt {
            let offset = (next_rand(&mut d.rng) as usize) % chunk.len();
            chunk[offset] ^= 0xA5;
            st.log_event(FaultEvent {
                dir: dir_tag,
                chunk: chunk_no,
                kind: FaultKind::Corrupted { offset },
            });
        }
        if decision == Decision::Drop {
            st.log_event(FaultEvent { dir: dir_tag, chunk: chunk_no, kind: FaultKind::Dropped });
            return Ok(n);
        }

        // A chunk already held for reordering releases after this one.
        let prev_held = st.dirs[self.dir].held.take();
        let hold_current = decision == Decision::Reorder && prev_held.is_none() && !partitioned;
        let dup = decision == Decision::Dup;
        if decision != Decision::Corrupt {
            let kind = if dup {
                FaultKind::Duplicated
            } else if hold_current {
                FaultKind::Reordered
            } else {
                FaultKind::Delivered
            };
            st.log_event(FaultEvent { dir: dir_tag, chunk: chunk_no, kind });
        }
        if partitioned {
            let d = &mut st.dirs[self.dir];
            d.parked_bytes += chunk.len();
            if dup {
                d.parked_bytes += chunk.len();
                d.parked.push_back(chunk.clone());
            }
            d.parked.push_back(chunk);
            if let Some(h) = prev_held {
                d.parked_bytes += h.len();
                d.parked.push_back(h);
            }
            return Ok(n);
        }
        drop(st);

        if hold_current {
            self.state.borrow_mut().dirs[self.dir].held = Some(chunk);
            return Ok(n);
        }
        // The budget was measured against the inner window, so the first
        // copy always fits; what a dup copy or a released hold does not
        // fit waits in the unsent queue.
        self.push_queued(&chunk)?;
        if dup {
            self.push_queued(&chunk)?;
        }
        if let Some(h) = prev_held {
            self.push_queued(&h)?;
        }
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
        let mut at = self.inner.next_ready_at();
        let mut propose = |t: u64| {
            at = Some(at.map_or(t, |cur: u64| cur.min(t)));
        };
        // Readability of THIS end is gated on the opposite direction's
        // parked/held/unsent chunks — they surface once the peer's send
        // side heals, releases or finds room.
        let inbound = &st.dirs[1 - self.dir];
        if !inbound.parked.is_empty() {
            propose(inbound.partition_until.unwrap_or(now + 1).max(now + 1));
        }
        if inbound.held.is_some() || !inbound.unsent.is_empty() {
            propose(now + 1);
        }
        // And OUR parked backlog keeps the pair live too: the stall
        // round advances both ends, which flushes it toward the peer.
        let outbound = &st.dirs[self.dir];
        if !outbound.parked.is_empty() {
            propose(outbound.partition_until.unwrap_or(now + 1).max(now + 1));
        }
        if outbound.held.is_some() || !outbound.unsent.is_empty() {
            propose(now + 1);
        }
        at
    }

    fn advance_to(&mut self, t_us: u64) {
        {
            let mut st = self.state.borrow_mut();
            st.now = st.now.max(t_us);
        }
        self.inner.advance_to(t_us);
        let now = self.now_us();
        // Errors here resurface on the next send/recv.
        let _ = self.flush_due(now);
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
