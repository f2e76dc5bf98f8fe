//! Narrow OS bindings for the socket-backed reactor: `poll(2)` readiness
//! and the `RLIMIT_NOFILE` file-descriptor ceiling.
//!
//! crates.io is offline for this build, so there is no `libc`/`mio`: the
//! two syscall surfaces the C100k path needs are declared here by hand.
//! This module is the **only** place in the crate where `unsafe` is
//! permitted (the crate root carries `#![deny(unsafe_code)]`); everything
//! it exports is a safe wrapper with the invariants discharged locally:
//!
//! * [`Poller`] — a level-triggered readiness poll over registered file
//!   descriptors. One `wait` call is one `poll(2)`; `EINTR` retries
//!   internally, and the returned [`Event`]s carry the caller's tokens so
//!   a reactor wakes **only** the sessions the kernel marked ready instead
//!   of round-robin scanning every slot.
//! * [`raise_nofile_limit`] — lifts the soft `RLIMIT_NOFILE` toward the
//!   hard ceiling so thousands of concurrent sockets (two per session)
//!   fit; returns the limit actually in force so callers can size their
//!   admission window instead of dying on `EMFILE` mid-run.
//!
//! Everything here is Unix-only (`poll(2)` semantics); the module is
//! compiled out elsewhere along with the TCP transport that needs it.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_ulong};
use std::time::Duration;

/// `poll(2)`'s per-descriptor request/response record.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// `getrlimit(2)`/`setrlimit(2)` resource record (Linux x86-64 layout:
/// two 64-bit words).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// `RLIMIT_NOFILE` on Linux.
const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

/// What a registration wants to be woken for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest {
    /// Wake when the descriptor has bytes (or EOF/error) to read.
    pub readable: bool,
    /// Wake when the descriptor can accept more bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the default for an idle session socket.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Read + write interest — for sessions with queued outbound frames.
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };
}

/// One readiness result from [`Poller::wait`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: usize,
    /// Bytes, EOF, or a pending error are readable (`POLLIN | POLLHUP |
    /// POLLERR` — errors surface through the next `read`, which is how
    /// the transport turns them into typed failures).
    pub readable: bool,
    /// The descriptor can accept bytes (`POLLOUT`, or an error that the
    /// next `write` should discover).
    pub writable: bool,
}

/// A level-triggered readiness poller over `poll(2)`.
///
/// Registrations last one wait: callers [`clear`](Self::clear), re-register
/// the descriptors they currently care about, then [`wait`](Self::wait).
/// That fits the reactor's loop (the interest set changes as sessions
/// finish and send queues drain) and keeps the wrapper allocation-free
/// after warm-up — the `pollfd` vector is reused across rounds.
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
    events: Vec<Event>,
}

impl Poller {
    /// An empty poller.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Drops every registration (the buffers are kept for reuse).
    pub fn clear(&mut self) {
        self.fds.clear();
        self.tokens.clear();
    }

    /// Registers `fd` under `token` for the given interest. Tokens are
    /// caller-defined and echoed back in [`Event`]s; duplicates are
    /// allowed (each registration reports separately).
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) {
        let mut events = 0i16;
        if interest.readable {
            events |= POLLIN;
        }
        if interest.writable {
            events |= POLLOUT;
        }
        self.fds.push(PollFd { fd, events, revents: 0 });
        self.tokens.push(token);
    }

    /// Number of current registrations.
    pub fn registered(&self) -> usize {
        self.fds.len()
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses (`None` = wait indefinitely). Returns the ready
    /// events — empty exactly when the wait timed out. `EINTR` is retried
    /// internally; every other `poll(2)` failure surfaces as the OS error.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<&[Event]> {
        self.events.clear();
        if self.fds.is_empty() {
            // poll(2) with no fds is just a sleep; do it without the
            // syscall so an empty reactor round costs nothing.
            if let Some(t) = timeout {
                std::thread::sleep(t);
            }
            return Ok(&self.events);
        }
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Rounded up: a sub-millisecond timeout truncated to 0 would
            // make poll(2) return at once instead of waiting.
            Some(t) => t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int,
        };
        for pfd in &mut self.fds {
            pfd.revents = 0;
        }
        let n = loop {
            // SAFETY: `fds` is a live, correctly-sized buffer of
            // `#[repr(C)]` pollfd records for the duration of the call;
            // poll(2) writes only the `revents` fields.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        };
        if n > 0 {
            for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
                let r = pfd.revents;
                if r == 0 {
                    continue;
                }
                let readable = r & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0;
                let writable = r & (POLLOUT | POLLERR | POLLNVAL) != 0;
                if readable || writable {
                    self.events.push(Event { token, readable, writable });
                }
            }
        }
        Ok(&self.events)
    }
}

/// Raises the soft `RLIMIT_NOFILE` toward the hard ceiling until at least
/// `needed` descriptors fit (no-op if they already do). Returns the soft
/// limit in force afterwards — possibly *below* `needed` when the hard
/// ceiling is lower; callers should size their concurrency to the return
/// value rather than assume the request was met.
pub fn raise_nofile_limit(needed: u64) -> io::Result<u64> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live `#[repr(C)]` rlimit record the kernel fills.
    let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.cur >= needed {
        return Ok(lim.cur);
    }
    let raised = RLimit { cur: needed.min(lim.max), max: lim.max };
    // SAFETY: passes a valid rlimit record by const pointer.
    let rc = unsafe { setrlimit(RLIMIT_NOFILE, &raised) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(raised.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn fresh_socket_is_writable_not_readable() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut p = Poller::new();
        p.register(a.as_raw_fd(), 7, Interest::READ_WRITE);
        let evs = p.wait(Some(Duration::from_millis(100))).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0], Event { token: 7, readable: false, writable: true });
    }

    #[test]
    fn bytes_make_the_peer_readable() {
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"ping").unwrap();
        let mut p = Poller::new();
        p.register(b.as_raw_fd(), 3, Interest::READ);
        let evs = p.wait(Some(Duration::from_millis(500))).unwrap();
        assert_eq!(evs.len(), 1);
        assert!(evs[0].readable);
        assert_eq!(evs[0].token, 3);
    }

    #[test]
    fn timeout_returns_no_events() {
        let (_a, b) = UnixStream::pair().unwrap();
        let mut p = Poller::new();
        p.register(b.as_raw_fd(), 0, Interest::READ);
        let t0 = std::time::Instant::now();
        let evs = p.wait(Some(Duration::from_millis(30))).unwrap();
        assert!(evs.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn peer_close_reports_readable_eof() {
        let (a, mut b) = UnixStream::pair().unwrap();
        drop(a);
        let mut p = Poller::new();
        p.register(b.as_raw_fd(), 1, Interest::READ);
        let evs = p.wait(Some(Duration::from_millis(500))).unwrap();
        assert!(!evs.is_empty() && evs[0].readable, "EOF must wake readers: {evs:?}");
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 0, "readable EOF reads as 0");
    }

    #[test]
    fn sub_millisecond_timeout_still_waits() {
        let (_a, b) = UnixStream::pair().unwrap();
        let mut p = Poller::new();
        p.register(b.as_raw_fd(), 0, Interest::READ);
        let t0 = std::time::Instant::now();
        let evs = p.wait(Some(Duration::from_micros(300))).unwrap();
        assert!(evs.is_empty());
        assert!(t0.elapsed() >= Duration::from_micros(300), "returned after {:?}", t0.elapsed());
    }

    #[test]
    fn empty_poller_wait_is_a_bounded_sleep() {
        let mut p = Poller::new();
        let t0 = std::time::Instant::now();
        let evs = p.wait(Some(Duration::from_millis(20))).unwrap();
        assert!(evs.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn clear_keeps_buffers_but_drops_registrations() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut p = Poller::new();
        p.register(a.as_raw_fd(), 0, Interest::READ);
        assert_eq!(p.registered(), 1);
        p.clear();
        assert_eq!(p.registered(), 0);
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotone() {
        let now = raise_nofile_limit(64).expect("query limit");
        assert!(now >= 64, "any sane environment allows 64 fds, got {now}");
        let again = raise_nofile_limit(now).expect("idempotent");
        assert_eq!(again, now);
    }
}
