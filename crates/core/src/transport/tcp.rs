//! A live OS socket behind the [`Transport`] contract (unix only).

use super::{Transport, TransportError, TransportPair};

/// Bytes [`TcpTransport::send`]/[`recv`](TcpTransport::recv) will move per
/// call once the kernel has signalled readiness. The kernel's socket
/// buffers are the real window; this is just the per-call budget the
/// `writable()`/`readable()` hints report.
pub const TCP_IO_HINT: usize = 64 * 1024;

/// A live OS socket behind the [`Transport`] contract: a
/// [`std::net::TcpStream`] in nonblocking mode, readiness driven from the
/// outside (a [`sys::Poller`](crate::sys::Poller)) through
/// [`set_ready`](Transport::set_ready).
///
/// The mapping is 1:1 and level-triggered-safe:
///
/// * `writable()`/`readable()` report [`TCP_IO_HINT`] while the last
///   kernel edge said ready, `0` after an `EWOULDBLOCK` cleared the flag —
///   the next `poll(2)` round re-arms it (level-triggered, so a cleared
///   flag can never lose an edge);
/// * `send` retries `EINTR` internally, treats `EWOULDBLOCK` and short
///   writes as "window closed" (`Ok(n)`, flag cleared), and maps
///   disconnects to [`TransportError::Closed`];
/// * `recv` drains until `EWOULDBLOCK`; a `read` of 0 is the peer's FIN —
///   the OS already drained the backlog to us, so it surfaces as
///   [`TransportError::Closed`] exactly per the trait contract;
/// * `close` is `shutdown(Both)`: the peer sees FIN, drains, then gets
///   `Closed` — the same teardown shape as the in-memory pairs.
///
/// Unlike the simulated transports there is no shared pair state: each end
/// owns its own socket, so the two ends of a connection can live on
/// different threads (acceptor hands the service end to a shard while the
/// client end stays with the driver).
#[derive(Debug)]
pub struct TcpTransport {
    stream: std::net::TcpStream,
    can_read: bool,
    can_write: bool,
    closed: bool,
}

impl TcpTransport {
    /// Wraps a connected stream: nonblocking, Nagle off (INP frames are
    /// latency-bound request/response, not bulk).
    pub fn new(stream: std::net::TcpStream) -> std::io::Result<TcpTransport> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        // A fresh connection has empty socket buffers: optimistically
        // writable, not readable until the kernel says so.
        Ok(TcpTransport { stream, can_read: false, can_write: true, closed: false })
    }

    /// Builds a connected pair over a loopback TCP socket (listener on an
    /// ephemeral port, connect, accept). The conformance-test convenience;
    /// the sharded server wires accepted streams itself.
    pub fn pair() -> std::io::Result<TransportPair> {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
        let client = std::net::TcpStream::connect(listener.local_addr()?)?;
        let (service, _) = listener.accept()?;
        Ok(TransportPair {
            client: Box::new(TcpTransport::new(client)?),
            service: Box::new(TcpTransport::new(service)?),
        })
    }

    /// The local address of this end's socket.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.stream.local_addr()
    }

    fn disconnect(kind: std::io::ErrorKind) -> bool {
        matches!(
            kind,
            std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::NotConnected
                | std::io::ErrorKind::UnexpectedEof
        )
    }
}

impl Transport for TcpTransport {
    fn writable(&self) -> usize {
        if self.closed || !self.can_write {
            0
        } else {
            TCP_IO_HINT
        }
    }

    fn readable(&self) -> usize {
        if self.can_read {
            TCP_IO_HINT
        } else {
            0
        }
    }

    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        use std::io::Write;
        if self.closed {
            return Err(TransportError::Closed);
        }
        if !self.can_write || bytes.is_empty() {
            return Ok(0);
        }
        let budget = bytes.len().min(TCP_IO_HINT);
        let mut sent = 0;
        while sent < budget {
            match self.stream.write(&bytes[sent..budget]) {
                Ok(0) => {
                    self.can_write = false;
                    break;
                }
                Ok(n) => {
                    sent += n;
                    if sent < budget {
                        // Short write: the socket buffer filled mid-call.
                        self.can_write = false;
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.can_write = false;
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if Self::disconnect(e.kind()) => {
                    self.closed = true;
                    return Err(TransportError::Closed);
                }
                Err(e) => return Err(TransportError::Io(e.kind())),
            }
        }
        Ok(sent)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        use std::io::Read;
        if !self.can_read || buf.is_empty() {
            return if self.closed { Err(TransportError::Closed) } else { Ok(0) };
        }
        let budget = buf.len().min(TCP_IO_HINT);
        let mut read = 0;
        while read < budget {
            match self.stream.read(&mut buf[read..budget]) {
                Ok(0) => {
                    // Peer FIN: the kernel has no more bytes for us. The
                    // backlog (everything before the FIN) was returned by
                    // earlier iterations/calls, so Closed is now exact.
                    self.closed = true;
                    self.can_read = false;
                    return if read > 0 { Ok(read) } else { Err(TransportError::Closed) };
                }
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.can_read = false;
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if Self::disconnect(e.kind()) => {
                    self.closed = true;
                    self.can_read = false;
                    return if read > 0 { Ok(read) } else { Err(TransportError::Closed) };
                }
                Err(e) => return Err(TransportError::Io(e.kind())),
            }
        }
        Ok(read)
    }

    fn close(&mut self) {
        self.closed = true;
        // Deliver FIN; errors here mean the peer is already gone.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn is_closed(&self) -> bool {
        self.closed
    }

    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        use std::os::fd::AsRawFd;
        Some(self.stream.as_raw_fd())
    }

    fn set_ready(&mut self, readable: bool, writable: bool) {
        self.can_read |= readable;
        self.can_write |= writable;
    }
}
