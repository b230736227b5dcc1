//! Typed errors for the serve layer.
//!
//! The error taxonomy mirrors the protocol layers: [`ServeError::Io`] for
//! the socket, [`ServeError::Frame`] for the fixed binary header,
//! [`ServeError::Payload`] for the JSON body, [`ServeError::Remote`] for
//! an error *frame* the server answered with, and
//! [`ServeError::Disconnected`] when the peer (or the scheduler thread
//! behind it) went away mid-conversation. None of these ever takes the
//! server process down: a request fails, the service keeps accepting.

use std::fmt;
use std::io;

/// Anything that can go wrong speaking the wire protocol.
#[derive(Debug)]
pub enum ServeError {
    /// The socket failed (connect, read, write).
    Io(io::Error),
    /// The fixed frame header was violated: wrong magic, unsupported
    /// version, unknown frame kind, or an oversized payload length.
    /// Framing errors are unrecoverable for the connection — the byte
    /// stream can no longer be trusted — so the server answers one error
    /// frame and closes.
    Frame {
        /// What the header got wrong.
        detail: String,
    },
    /// The frame arrived intact but its JSON payload did not decode.
    /// Payload errors are recoverable: the server answers an error frame
    /// and keeps the connection open for the next request.
    Payload {
        /// What the payload got wrong.
        detail: String,
    },
    /// The server answered with an error response (client side): the
    /// request failed server-side — unknown class, inconsistent plan —
    /// while the connection stays usable.
    Remote {
        /// The server's error message, verbatim.
        message: String,
    },
    /// The peer hung up (or the scheduler thread behind the server is
    /// gone) before answering.
    Disconnected,
}

/// Shorthand result for serve-layer operations.
pub(crate) type ServeResult<T> = Result<T, ServeError>;

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Frame { detail } => write!(f, "malformed frame: {detail}"),
            ServeError::Payload { detail } => write!(f, "malformed payload: {detail}"),
            ServeError::Remote { message } => write!(f, "server error: {message}"),
            ServeError::Disconnected => write!(f, "peer disconnected before answering"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_protocol_layer() {
        assert!(ServeError::Frame {
            detail: "bad magic".into()
        }
        .to_string()
        .contains("malformed frame"));
        assert!(ServeError::Payload {
            detail: "not json".into()
        }
        .to_string()
        .contains("malformed payload"));
        assert!(ServeError::Remote {
            message: "unknown class".into()
        }
        .to_string()
        .contains("unknown class"));
        let io: ServeError = io::Error::new(io::ErrorKind::ConnectionReset, "reset").into();
        assert!(io.to_string().contains("socket error"));
    }
}
