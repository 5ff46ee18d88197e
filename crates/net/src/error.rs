//! Transport- and protocol-level error types.

use std::fmt;
use std::io;
use std::sync::{LockResult, PoisonError};

use crate::wire::{ErrorCode, WireError};

/// Why a transport operation or a protocol exchange failed.
#[derive(Debug)]
pub enum NetError {
    /// A frame failed to encode or decode.
    Wire(WireError),
    /// The underlying byte transport failed.
    Io(io::Error),
    /// The peer closed the connection (or the in-memory pipe was
    /// dropped).
    Closed,
    /// No frame arrived within the transport's receive timeout.
    Timeout,
    /// The peer answered with a protocol [`ErrorCode`] frame.
    Protocol(ErrorCode),
    /// The peer sent a frame that is valid on the wire but makes no
    /// sense in the current exchange.
    Unexpected(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(err) => write!(f, "wire codec error: {err}"),
            NetError::Io(err) => write!(f, "transport I/O error: {err}"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::Timeout => write!(f, "timed out waiting for a frame"),
            NetError::Protocol(code) => write!(f, "peer reported protocol error: {code}"),
            NetError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Wire(err) => Some(err),
            NetError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WireError> for NetError {
    fn from(err: WireError) -> Self {
        NetError::Wire(err)
    }
}

impl From<io::Error> for NetError {
    fn from(err: io::Error) -> Self {
        match err.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => NetError::Timeout,
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionAborted => NetError::Closed,
            _ => NetError::Io(err),
        }
    }
}

/// The guard of a lock, whether or not another thread panicked while
/// holding it. Every lock in this crate guards state a panic cannot
/// leave half-written: the device registry and the key shards cache
/// entries that are inserted whole, a cohort's golden state is
/// replaced in one promotion, and the scan waker holds one flag. So a
/// poisoned lock must not turn every later caller into a panic too.
pub(crate) fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}
