//! The binary frame: a fixed 8-byte header plus an opaque payload.
//!
//! Layout (all integers big-endian):
//!
//! | offset | size | field       | value                                  |
//! |-------:|-----:|-------------|----------------------------------------|
//! |      0 |    2 | magic       | `0x5744` (`"WD"`)                      |
//! |      2 |    1 | version     | `1`                                    |
//! |      3 |    1 | kind        | [`FrameKind`] discriminant             |
//! |      4 |    4 | payload len | at most 4 MiB                          |
//! |      8 |    n | payload     | JSON body (see [`crate::wire`])        |
//!
//! The header is validated field by field on read; any violation is a
//! [`ServeError::Frame`] — the stream can no longer be trusted, so the
//! server answers one error frame and closes the connection. A connection
//! that closes *between* frames is a clean [`FrameRead::Eof`]; one that
//! closes *inside* a frame is an I/O error (truncated frame).

use std::io::{self, Read, Write};

use byteorder::{BigEndian, ReadBytesExt, WriteBytesExt};

use crate::error::{ServeError, ServeResult};

/// `"WD"` — the first two bytes of every frame.
pub(crate) const MAGIC: u16 = 0x5744;

/// Protocol version this build speaks. A peer announcing any other
/// version is rejected with a framing error.
pub(crate) const VERSION: u8 = 1;

/// Upper bound on a frame's payload, guarding the server against a
/// hostile or corrupt length field allocating gigabytes.
pub(crate) const MAX_PAYLOAD: u32 = 4 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A client-to-server [`crate::wire::Request`].
    Request,
    /// A server-to-client [`crate::wire::Response`].
    Response,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            _ => None,
        }
    }
}

/// The outcome of one [`read_frame`] attempt.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete, well-formed frame.
    Frame(FrameKind, Vec<u8>),
    /// The peer closed the connection cleanly (EOF before a header byte).
    Eof,
    /// A read timeout fired before any header byte arrived — the
    /// connection is idle, not broken. Only seen on sockets with a read
    /// timeout set (the server's shutdown-poll tick).
    Idle,
}

/// Writes one frame: header then payload, single flush.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_PAYLOAD as u64);
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.write_u16::<BigEndian>(MAGIC)?;
    buf.write_u8(VERSION)?;
    buf.write_u8(kind.to_byte())?;
    buf.write_u32::<BigEndian>(payload.len() as u32)?;
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame, distinguishing a clean close ([`FrameRead::Eof`]) and
/// an idle poll tick ([`FrameRead::Idle`]) from real failures. Header
/// violations come back as [`ServeError::Frame`]; a connection that dies
/// mid-frame (truncation) is [`ServeError::Io`].
pub fn read_frame(r: &mut impl Read) -> ServeResult<FrameRead> {
    // The first byte decides whether this is a frame, a clean close, or
    // an idle tick; everything after it must arrive in full.
    let first = match r.read_u8() {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(FrameRead::Eof),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            return Ok(FrameRead::Idle)
        }
        Err(e) => return Err(ServeError::Io(e)),
    };
    let second = r.read_u8()?;
    let magic = u16::from_be_bytes([first, second]);
    if magic != MAGIC {
        return Err(ServeError::Frame {
            detail: format!("bad magic {magic:#06x} (expected {MAGIC:#06x})"),
        });
    }
    let version = r.read_u8()?;
    if version != VERSION {
        return Err(ServeError::Frame {
            detail: format!("unsupported protocol version {version} (this build speaks {VERSION})"),
        });
    }
    let kind_byte = r.read_u8()?;
    let Some(kind) = FrameKind::from_byte(kind_byte) else {
        return Err(ServeError::Frame {
            detail: format!("unknown frame kind {kind_byte}"),
        });
    };
    let len = r.read_u32::<BigEndian>()?;
    if len > MAX_PAYLOAD {
        return Err(ServeError::Frame {
            detail: format!("payload length {len} exceeds the {MAX_PAYLOAD}-byte cap"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(FrameRead::Frame(kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"{\"Metrics\":null}").unwrap();
        write_frame(&mut buf, FrameKind::Response, b"").unwrap();
        let mut r = &buf[..];
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(FrameKind::Request, p) => {
                assert_eq!(p, b"{\"Metrics\":null}")
            }
            other => panic!("expected a request frame, got {other:?}"),
        }
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(FrameKind::Response, p) => assert!(p.is_empty()),
            other => panic!("expected a response frame, got {other:?}"),
        }
        assert!(matches!(read_frame(&mut r).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn bad_magic_is_a_framing_error() {
        let mut r = &[0xFFu8, 0xFF, 1, 1, 0, 0, 0, 0][..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ServeError::Frame { detail }) if detail.contains("magic")
        ));
    }

    #[test]
    fn wrong_version_and_kind_are_framing_errors() {
        let mut r = &[0x57u8, 0x44, 9, 1, 0, 0, 0, 0][..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ServeError::Frame { detail }) if detail.contains("version")
        ));
        let mut r = &[0x57u8, 0x44, VERSION, 42, 0, 0, 0, 0][..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ServeError::Frame { detail }) if detail.contains("kind")
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut header = Vec::new();
        header.write_u16::<BigEndian>(MAGIC).unwrap();
        header.write_u8(VERSION).unwrap();
        header.write_u8(1).unwrap();
        header.write_u32::<BigEndian>(u32::MAX).unwrap();
        let mut r = &header[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ServeError::Frame { detail }) if detail.contains("cap")
        ));
    }

    #[test]
    fn truncated_frames_are_io_errors_not_eof() {
        // Header promises 100 payload bytes; the stream dies after 3.
        let mut buf = Vec::new();
        buf.write_u16::<BigEndian>(MAGIC).unwrap();
        buf.write_u8(VERSION).unwrap();
        buf.write_u8(1).unwrap();
        buf.write_u32::<BigEndian>(100).unwrap();
        buf.extend_from_slice(b"abc");
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(ServeError::Io(_))));
    }
}
