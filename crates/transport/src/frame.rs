//! The transport frame: the one datagram format both backends speak.
//!
//! A frame is a length-prefixed header plus an opaque payload. On the
//! socket backend one frame is one UDP datagram; the length prefix is
//! still present (and validated) so the same codec works unchanged over a
//! byte stream. On the sim backend the encoded length drives the netsim
//! link model, so a message costs the same simulated bytes it would cost
//! real ones.

use p2p::wire::{Reader, WireError, Writer};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Logical address of a transport endpoint. Stable across backends: the
/// sim maps it to a `netsim::HostId`, the socket backend to a
/// `SocketAddr` through its peer directory — so the same endpoint ids
/// name the same nodes in a parity run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint(pub u64);

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Frame discriminator; its wire code is the discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Application payload, sequenced and retransmitted until acked.
    Data = 0,
    /// Acknowledges receipt of the data frame with the carried `seq`.
    Ack = 1,
    /// Liveness probe (sent on idle channels).
    Ping = 2,
    /// Liveness reply.
    Pong = 3,
}

impl FrameKind {
    fn from_code(code: u8) -> Option<FrameKind> {
        Some(match code {
            0 => FrameKind::Data,
            1 => FrameKind::Ack,
            2 => FrameKind::Ping,
            3 => FrameKind::Pong,
            _ => return None,
        })
    }
}

/// Wire magic ("TG") and codec version.
pub const MAGIC: u16 = 0x5447;
pub const VERSION: u8 = 1;

/// Header bytes before the payload: len(4) + magic(2) + version(1) +
/// kind(1) + src(8) + dst(8) + seq(8) + payload_len(4).
pub const HEADER_LEN: usize = 36;

/// Largest payload a single frame may carry. Kept under the classic
/// 64 KiB UDP datagram bound with room for the header.
pub const MAX_PAYLOAD: usize = 60 * 1024;

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Too short for a fixed-width field or a declared length.
    Truncated { need: usize, have: usize },
    /// First two header bytes are not [`MAGIC`].
    BadMagic(u16),
    /// Unknown codec version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// The leading length prefix disagrees with the bytes present.
    LengthMismatch { declared: usize, actual: usize },
    /// Payload length exceeds [`MAX_PAYLOAD`].
    PayloadOverflow { declared: usize },
    /// Malformed interior field (shares the p2p wire error taxonomy).
    Wire(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "frame truncated: need {need}, have {have}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "frame length prefix {declared} != {actual} bytes on the wire"
                )
            }
            FrameError::PayloadOverflow { declared } => {
                write!(f, "payload length {declared} exceeds {MAX_PAYLOAD}")
            }
            FrameError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// A frame's payload bytes: owned, or shared with the copy a channel
/// keeps for retransmission. Only [`PeerChannel::send_data`] shares one,
/// so a retransmit is a reference bump instead of a copy; decoded and
/// control frames stay owned and cost no extra allocation. Compares and
/// prints as its bytes.
///
/// [`PeerChannel::send_data`]: crate::reliab::PeerChannel::send_data
#[derive(Clone)]
pub enum Payload {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Payload {
    /// Make an owned payload shared, moving (not copying) its buffer, so
    /// that cloning it from then on bumps a reference count.
    pub(crate) fn share(&mut self) {
        if let Payload::Owned(bytes) = self {
            *self = Payload::Shared(Arc::new(std::mem::take(bytes)));
        }
    }

    /// The bytes as a `Vec`: a move when owned or no longer shared, and a
    /// copy only while another handle still holds the buffer.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(bytes) => bytes,
            Payload::Shared(bytes) => Arc::try_unwrap(bytes).unwrap_or_else(|b| b.to_vec()),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Owned(bytes) => bytes,
            Payload::Shared(bytes) => bytes,
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One transport frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub src: Endpoint,
    pub dst: Endpoint,
    /// Data: the frame's sequence number. Ack: the acknowledged sequence.
    /// Ping/Pong: a probe nonce echoed back.
    pub seq: u64,
    pub payload: Payload,
}

impl Frame {
    pub fn data(src: Endpoint, dst: Endpoint, seq: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            src,
            dst,
            seq,
            payload: Payload::Owned(payload),
        }
    }

    pub fn control(kind: FrameKind, src: Endpoint, dst: Endpoint, seq: u64) -> Frame {
        Frame {
            kind,
            src,
            dst,
            seq,
            payload: Payload::Owned(Vec::new()),
        }
    }

    /// Encoded size without materialising the bytes (drives the sim's
    /// link model).
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode into a caller-owned buffer, appending. Both backends' send
    /// paths use this with recycled buffers (the sim's payload arena, the
    /// socket's scratch pool) so a steady stream of frames encodes without
    /// touching the allocator.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        debug_assert!(self.payload.len() <= MAX_PAYLOAD, "payload too large");
        let mut w = Writer::over(std::mem::take(out));
        w.u32(self.wire_len() as u32);
        w.u16(MAGIC);
        w.u8(VERSION);
        w.u8(self.kind as u8);
        w.u64(self.src.0);
        w.u64(self.dst.0);
        w.u64(self.seq);
        w.bytes(&self.payload);
        *out = w.into_bytes();
    }

    /// Decode one frame, consuming the entire buffer (a datagram carries
    /// exactly one frame; trailing bytes mean corruption).
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        let mut r = Reader::new(buf);
        let declared = map_trunc(r.u32())? as usize;
        if declared != buf.len() {
            return Err(FrameError::LengthMismatch {
                declared,
                actual: buf.len(),
            });
        }
        let magic = map_trunc(r.u16())?;
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = map_trunc(r.u8())?;
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind_code = map_trunc(r.u8())?;
        let kind = FrameKind::from_code(kind_code).ok_or(FrameError::BadKind(kind_code))?;
        let src = Endpoint(map_trunc(r.u64())?);
        let dst = Endpoint(map_trunc(r.u64())?);
        let seq = map_trunc(r.u64())?;
        let payload = r.bytes("frame payload")?;
        if payload.len() > MAX_PAYLOAD {
            return Err(FrameError::PayloadOverflow {
                declared: payload.len(),
            });
        }
        r.finish()?;
        Ok(Frame {
            kind,
            src,
            dst,
            seq,
            payload: Payload::Owned(payload),
        })
    }
}

fn map_trunc<T>(r: Result<T, WireError>) -> Result<T, FrameError> {
    r.map_err(|e| match e {
        WireError::Truncated { need, have } => FrameError::Truncated { need, have },
        other => FrameError::Wire(other),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::data(Endpoint(3), Endpoint(9), 42, vec![1, 2, 3, 4, 5])
    }

    #[test]
    fn frame_round_trips() {
        for f in [
            sample(),
            Frame::control(FrameKind::Ack, Endpoint(1), Endpoint(2), 7),
            Frame::control(FrameKind::Ping, Endpoint(0), Endpoint(0), 0),
            Frame::control(FrameKind::Pong, Endpoint(u64::MAX), Endpoint(5), u64::MAX),
        ] {
            let bytes = f.encode();
            assert_eq!(bytes.len(), f.wire_len());
            assert_eq!(Frame::decode(&bytes), Ok(f));
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_version_kind_rejected() {
        let mut b = sample().encode();
        b[4] ^= 0xFF;
        assert!(matches!(Frame::decode(&b), Err(FrameError::BadMagic(_))));
        let mut b = sample().encode();
        b[6] = 99;
        assert_eq!(Frame::decode(&b), Err(FrameError::BadVersion(99)));
        let mut b = sample().encode();
        b[7] = 44;
        assert_eq!(Frame::decode(&b), Err(FrameError::BadKind(44)));
    }

    #[test]
    fn length_prefix_must_match_datagram() {
        let mut b = sample().encode();
        b[0] = b[0].wrapping_add(1);
        assert!(matches!(
            Frame::decode(&b),
            Err(FrameError::LengthMismatch { .. })
        ));
        // Trailing garbage also shows up as a length mismatch.
        let mut b = sample().encode();
        b.push(0xAB);
        assert!(matches!(
            Frame::decode(&b),
            Err(FrameError::LengthMismatch { .. })
        ));
    }
}
