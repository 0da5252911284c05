//! Typed protocol errors.
//!
//! Everything a peer can do wrong — vanish, send a message out of order or
//! of the wrong shape or range, send HE bytes that do not parse — is a
//! [`ProtocolError`] returned by the party that noticed
//! ([`crate::ServiceClient::run`], [`crate::serve::session::drive_sync`], a
//! [`crate::serve::SessionHandle`]), never a panic: a misbehaving or
//! vanished client aborts exactly one session of a shared server. Only the
//! in-process wrappers ([`crate::private_inference`]) panic on a protocol
//! failure, since both parties are then this program.

use crate::channel::ChannelError;

/// A per-session protocol failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The transport failed (peer dropped mid-protocol).
    Channel(ChannelError),
    /// The peer sent a message of another kind than the one the protocol
    /// body was waiting for.
    UnexpectedMsg {
        /// The [`crate::msg::Msg`] variant the body was waiting for.
        expected: &'static str,
        /// The [`crate::msg::Msg::kind`] actually received.
        got: &'static str,
    },
    /// A message violated the session contract (bad lengths or shapes,
    /// unreduced field elements, missing key material) — the peer's fault.
    BadRequest(&'static str),
    /// An HE wire frame failed to deserialize (truncated, corrupted, or
    /// under mismatched parameters) — the peer's bytes, the peer's fault.
    Wire(pi_he::WireError),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Channel(e) => write!(f, "channel failure: {e}"),
            ProtocolError::UnexpectedMsg { expected, got } => {
                write!(f, "protocol violation: expected {expected}, got {got}")
            }
            ProtocolError::BadRequest(what) => write!(f, "bad request: {what}"),
            ProtocolError::Wire(e) => write!(f, "wire format error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Channel(e) => Some(e),
            ProtocolError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChannelError> for ProtocolError {
    fn from(e: ChannelError) -> Self {
        ProtocolError::Channel(e)
    }
}

impl From<pi_ot::base::BaseOtError> for ProtocolError {
    fn from(e: pi_ot::base::BaseOtError) -> Self {
        ProtocolError::BadRequest(e.as_str())
    }
}

impl From<pi_he::WireError> for ProtocolError {
    fn from(e: pi_he::WireError) -> Self {
        ProtocolError::Wire(e)
    }
}
