//! Error types for the core framework.

use fractal_pads::PadError;
use fractal_vm::{ModuleError, VerifyError};

/// Wire-format decode errors for metadata and INP messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Message ends before a declared field.
    Truncated,
    /// An enum discriminant that is not defined.
    BadEnum(&'static str),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Bytes left over after a complete parse.
    TrailingBytes,
    /// The INP header is malformed.
    BadHeader,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadEnum(what) => write!(f, "invalid {what} discriminant"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::BadHeader => write!(f, "malformed INP header"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<fractal_crypto::wire::Truncated> for WireError {
    fn from(_: fractal_crypto::wire::Truncated) -> Self {
        WireError::Truncated
    }
}

/// Top-level framework errors.
#[derive(Clone, PartialEq, Debug)]
pub enum FractalError {
    /// Wire decode failure.
    Wire(WireError),
    /// The proxy knows no such application.
    UnknownApp(crate::meta::AppId),
    /// The path search found no feasible path (all paths hit an ∞ ratio).
    NoFeasiblePath,
    /// The CDN could not supply a PAD.
    PadUnavailable(crate::meta::PadId),
    /// Downloaded PAD failed the integrity/signature/verification gauntlet.
    PadRejected(ModuleError),
    /// Downloaded PAD failed static bytecode verification.
    PadUnverifiable(VerifyError),
    /// The PAD's statically proven minimum fuel exceeds the client's
    /// sandbox budget: it could never complete, so it is rejected before
    /// instantiation instead of wasting a download and a doomed run.
    PadInfeasible {
        /// Fuel the PAD provably needs for an entry to complete.
        min_fuel: u64,
        /// The client's sandbox fuel budget.
        budget: u64,
    },
    /// A deployed PAD failed at run time.
    PadRuntime(PadError),
    /// The server does not hold the requested content.
    UnknownContent(u32),
    /// Protocol mismatch between `APP_REQ` and the server's PAD set.
    ProtocolNotDeployed(fractal_protocols::ProtocolId),
}

impl core::fmt::Display for FractalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FractalError::Wire(e) => write!(f, "wire error: {e}"),
            FractalError::UnknownApp(id) => write!(f, "unknown application {id}"),
            FractalError::NoFeasiblePath => write!(f, "no feasible adaptation path"),
            FractalError::PadUnavailable(id) => write!(f, "PAD {id} unavailable from CDN"),
            FractalError::PadRejected(e) => write!(f, "PAD rejected: {e}"),
            FractalError::PadUnverifiable(e) => write!(f, "PAD failed verification: {e}"),
            FractalError::PadInfeasible { min_fuel, budget } => {
                write!(f, "PAD needs at least {min_fuel} fuel but the budget is {budget}")
            }
            FractalError::PadRuntime(e) => write!(f, "PAD runtime failure: {e}"),
            FractalError::UnknownContent(id) => write!(f, "unknown content {id}"),
            FractalError::ProtocolNotDeployed(p) => {
                write!(f, "protocol {p} not deployed at server")
            }
        }
    }
}

impl std::error::Error for FractalError {}

impl From<WireError> for FractalError {
    fn from(e: WireError) -> Self {
        FractalError::Wire(e)
    }
}

impl From<ModuleError> for FractalError {
    fn from(e: ModuleError) -> Self {
        FractalError::PadRejected(e)
    }
}

impl From<VerifyError> for FractalError {
    fn from(e: VerifyError) -> Self {
        FractalError::PadUnverifiable(e)
    }
}

impl From<PadError> for FractalError {
    fn from(e: PadError) -> Self {
        FractalError::PadRuntime(e)
    }
}

/// The unified error surface of the event-driven INP stack.
///
/// The INP core's state machines ([`SessionError`], client and service
/// side alike), the byte transport ([`TransportError`] / [`FrameError`]),
/// and the reactor's stall diagnostic ([`ReactorStalled`]) each keep
/// their own precise type — but callers of the
/// [`Reactor`](crate::reactor::Reactor) should not have to triple-match.
/// Everything that crosses the reactor's public signatures (including
/// [`InpSession::error`](crate::reactor::InpSession::error)) converges
/// here via `From`.
///
/// [`SessionError`]: crate::reactor::SessionError
/// [`TransportError`]: crate::transport::TransportError
/// [`FrameError`]: crate::transport::FrameError
/// [`ReactorStalled`]: crate::reactor::ReactorStalled
#[derive(Clone, PartialEq, Debug)]
pub enum InpError {
    /// The INP core failed or rejected a message (Figure 4 order).
    Session(crate::reactor::SessionError),
    /// The byte transport failed (e.g. closed mid-session).
    Transport(crate::transport::TransportError),
    /// Frame reassembly failed (garbage, oversized, malformed).
    Frame(crate::transport::FrameError),
    /// The reactor quiesced with live sessions.
    Stalled(crate::reactor::ReactorStalled),
}

impl core::fmt::Display for InpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InpError::Session(e) => write!(f, "session error: {e}"),
            InpError::Transport(e) => write!(f, "transport error: {e}"),
            InpError::Frame(e) => write!(f, "framing error: {e}"),
            InpError::Stalled(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for InpError {}

impl From<crate::reactor::SessionError> for InpError {
    fn from(e: crate::reactor::SessionError) -> Self {
        InpError::Session(e)
    }
}

impl From<crate::transport::TransportError> for InpError {
    fn from(e: crate::transport::TransportError) -> Self {
        InpError::Transport(e)
    }
}

impl From<crate::transport::FrameError> for InpError {
    fn from(e: crate::transport::FrameError) -> Self {
        InpError::Frame(e)
    }
}

impl From<crate::reactor::ReactorStalled> for InpError {
    fn from(e: crate::reactor::ReactorStalled) -> Self {
        InpError::Stalled(e)
    }
}

impl From<FractalError> for InpError {
    fn from(e: FractalError) -> Self {
        InpError::Session(crate::reactor::SessionError::Fractal(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inp_error_unifies_the_layer_errors() {
        let s: InpError = crate::reactor::SessionError::AlreadyStarted.into();
        assert!(matches!(s, InpError::Session(_)));
        assert!(s.to_string().contains("already started"));
        let t: InpError = crate::transport::TransportError::Closed.into();
        assert!(matches!(t, InpError::Transport(_)));
        let fr: InpError = crate::transport::FrameError::BadPrefix.into();
        assert!(fr.to_string().contains("INP header"));
        let fe: InpError = FractalError::NoFeasiblePath.into();
        assert!(matches!(
            fe,
            InpError::Session(crate::reactor::SessionError::Fractal(FractalError::NoFeasiblePath))
        ));
    }

    #[test]
    fn display_strings() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(FractalError::NoFeasiblePath.to_string().contains("feasible"));
        let e: FractalError = WireError::BadUtf8.into();
        assert!(matches!(e, FractalError::Wire(WireError::BadUtf8)));
    }
}
