//! Binary wire codec for overlay messages.
//!
//! The sim-only world never needed real bytes: `Message::wire_size` fed
//! the link model and the enum value itself travelled through the event
//! queue. A socket transport does need real bytes, so this module gives
//! every [`Message`] (and the [`Advertisement`]s they carry) a canonical
//! little-endian encoding with a strict decoder: truncated, corrupted or
//! trailing input is rejected with a typed [`WireError`], never a panic.
//!
//! Format conventions: fixed-width integers are little-endian; strings
//! and vectors are `u32` length-prefixed; enums are one `u8` tag followed
//! by the variant's fields; `f64` travels as its IEEE-754 bit pattern.

use crate::advert::{Advertisement, BlobAdvert, ModuleAdvert, PeerAdvert, PipeAdvert};
use crate::message::{LookupId, Message, QueryId, QueryKind};
use crate::overlay::PeerId;
use crate::pipe::PipeId;
use crate::sym::Sym;
use netsim::SimTime;
use std::cell::RefCell;
use std::fmt;

/// Decoder failure. Every malformed input maps to one of these; the
/// decoder never panics and never reads past the buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a fixed-width field or declared length.
    Truncated { need: usize, have: usize },
    /// An enum tag byte is outside the known range.
    BadTag { what: &'static str, tag: u8 },
    /// A declared length exceeds the sanity bound (corrupt or hostile).
    LengthOverflow { what: &'static str, len: u64 },
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
    /// Decoding finished with bytes left over.
    TrailingBytes { extra: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated: need {need} bytes, have {have}")
            }
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            WireError::LengthOverflow { what, len } => {
                write!(f, "{what} length {len} exceeds sanity bound")
            }
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::TrailingBytes { extra } => write!(f, "{extra} trailing byte(s)"),
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on any single length prefix (strings, vectors, chunk
/// payloads). Generous for real traffic, small enough that a corrupt
/// length cannot drive a huge allocation.
pub const MAX_LEN: u64 = 16 << 20;

/// Little-endian byte writer over a growable buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer that appends to an existing buffer (pooled encode paths;
    /// the buffer is *not* cleared, so framing layers can prefix bytes).
    pub fn over(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `xs` back to back with no length prefix — the bytes of one
    /// [`Writer::f64`] per element, written with one reservation.
    pub fn f64s(&mut self, xs: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + xs.len() * 8, 0);
        for (slot, x) in self.buf[start..].chunks_exact_mut(8).zip(xs) {
            slot.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Bounds-checked little-endian byte reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `n` values written by [`Writer::f64s`]. The `n * 8` bytes are
    /// bounds-checked once, before the vector is allocated, so a hostile
    /// count is `Truncated` and costs nothing.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        let raw = self.take(n.saturating_mul(8))?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    /// A `u32` length prefix, validated against [`MAX_LEN`] *and* the
    /// bytes actually remaining, so corrupt lengths fail fast instead of
    /// allocating.
    pub fn length(&mut self, what: &'static str) -> Result<usize, WireError> {
        let len = self.u32()? as u64;
        if len > MAX_LEN {
            return Err(WireError::LengthOverflow { what, len });
        }
        if len as usize > self.remaining() {
            return Err(WireError::Truncated {
                need: len as usize,
                have: self.remaining(),
            });
        }
        Ok(len as usize)
    }

    /// A `u32` element count, validated against [`MAX_LEN`], with a
    /// vector sized for it once — but for no more elements than the bytes
    /// remaining could hold at `min_elem` bytes each, so a lying count
    /// reserves at most the buffer's worth before it runs out of input.
    pub fn list<T>(
        &mut self,
        what: &'static str,
        min_elem: usize,
    ) -> Result<(usize, Vec<T>), WireError> {
        let len = self.u32()? as u64;
        if len > MAX_LEN {
            return Err(WireError::LengthOverflow { what, len });
        }
        let room = self.remaining() / min_elem;
        Ok((len as usize, Vec::with_capacity(room.min(len as usize))))
    }

    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let len = self.length(what)?;
        Ok(self.take(len)?.to_vec())
    }

    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| WireError::BadUtf8)
    }

    /// A length-prefixed string, interned. Text the intern table already
    /// holds decodes without allocating — which is the common case, since
    /// wire traffic repeats the same few service/module names endlessly.
    pub fn sym(&mut self, what: &'static str) -> Result<Sym, WireError> {
        let len = self.length(what)?;
        let raw = self.take(len)?;
        let text = std::str::from_utf8(raw).map_err(|_| WireError::BadUtf8)?;
        Ok(Sym::new(text))
    }

    /// Decoding must consume the whole buffer; anything left is an error.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

// ---- QueryKind ----

const QK_SERVICE: u8 = 0;
const QK_PIPE: u8 = 1;
const QK_MODULE: u8 = 2;
const QK_CAPABILITY: u8 = 3;
const QK_BLOB: u8 = 4;

pub fn encode_query_kind(w: &mut Writer, k: &QueryKind) {
    match k {
        QueryKind::ByService(s) => {
            w.u8(QK_SERVICE);
            w.str(s);
        }
        QueryKind::ByPipeName(s) => {
            w.u8(QK_PIPE);
            w.str(s);
        }
        QueryKind::ByModule { name, min_version } => {
            w.u8(QK_MODULE);
            w.str(name);
            w.u32(*min_version);
        }
        QueryKind::ByCapability {
            min_cpu_ghz,
            min_ram_mib,
        } => {
            w.u8(QK_CAPABILITY);
            w.f64(*min_cpu_ghz);
            w.u32(*min_ram_mib);
        }
        QueryKind::ByBlob { hash } => {
            w.u8(QK_BLOB);
            w.u64(*hash);
        }
    }
}

pub fn decode_query_kind(r: &mut Reader) -> Result<QueryKind, WireError> {
    Ok(match r.u8()? {
        QK_SERVICE => QueryKind::ByService(r.sym("service name")?),
        QK_PIPE => QueryKind::ByPipeName(r.sym("pipe name")?),
        QK_MODULE => QueryKind::ByModule {
            name: r.sym("module name")?,
            min_version: r.u32()?,
        },
        QK_CAPABILITY => QueryKind::ByCapability {
            min_cpu_ghz: r.f64()?,
            min_ram_mib: r.u32()?,
        },
        QK_BLOB => QueryKind::ByBlob { hash: r.u64()? },
        tag => {
            return Err(WireError::BadTag {
                what: "query kind",
                tag,
            })
        }
    })
}

// ---- Advertisement ----

const AD_PEER: u8 = 0;
const AD_PIPE: u8 = 1;
const AD_MODULE: u8 = 2;
const AD_BLOB: u8 = 3;

/// Fewest bytes a string, an advert and a `closer` contact encode to —
/// what [`Reader::list`] divides the remaining input by. A string is at
/// least its length prefix; the smallest advert is a pipe's with an empty
/// name (expiry, tag, pipe ID, name, peer).
const MIN_STR_WIRE: usize = 4;
const MIN_ADVERT_WIRE: usize = 8 + 1 + 8 + MIN_STR_WIRE + 4;
const CONTACT_WIRE: usize = 8 + 4;

pub fn encode_advert(w: &mut Writer, ad: &Advertisement) {
    w.u64(ad.expires.0);
    match &ad.body {
        crate::advert::AdvertBody::Peer(a) => {
            w.u8(AD_PEER);
            w.u32(a.peer.0);
            w.f64(a.cpu_ghz);
            w.u32(a.free_ram_mib);
            w.u32(a.services.len() as u32);
            for s in &a.services {
                w.str(s);
            }
        }
        crate::advert::AdvertBody::Pipe(a) => {
            w.u8(AD_PIPE);
            w.u64(a.pipe.0);
            w.str(&a.name);
            w.u32(a.peer.0);
        }
        crate::advert::AdvertBody::Module(a) => {
            w.u8(AD_MODULE);
            w.str(&a.name);
            w.u32(a.version);
            w.u64(a.hash);
            w.u64(a.size_bytes);
            w.u32(a.owner.0);
        }
        crate::advert::AdvertBody::Blob(a) => {
            w.u8(AD_BLOB);
            w.u64(a.blob);
            w.u64(a.size_bytes);
            w.u32(a.chunks);
            w.u32(a.provider.0);
        }
    }
}

pub fn decode_advert(r: &mut Reader) -> Result<Advertisement, WireError> {
    let expires = SimTime(r.u64()?);
    let body = match r.u8()? {
        AD_PEER => {
            let peer = PeerId(r.u32()?);
            let cpu_ghz = r.f64()?;
            let free_ram_mib = r.u32()?;
            let (n, mut services) = r.list("service list", MIN_STR_WIRE)?;
            for _ in 0..n {
                services.push(r.sym("service name")?);
            }
            crate::advert::AdvertBody::Peer(PeerAdvert {
                peer,
                cpu_ghz,
                free_ram_mib,
                services,
            })
        }
        AD_PIPE => crate::advert::AdvertBody::Pipe(PipeAdvert {
            pipe: PipeId(r.u64()?),
            name: r.sym("pipe name")?,
            peer: PeerId(r.u32()?),
        }),
        AD_MODULE => crate::advert::AdvertBody::Module(ModuleAdvert {
            name: r.sym("module name")?,
            version: r.u32()?,
            hash: r.u64()?,
            size_bytes: r.u64()?,
            owner: PeerId(r.u32()?),
        }),
        AD_BLOB => crate::advert::AdvertBody::Blob(BlobAdvert {
            blob: r.u64()?,
            size_bytes: r.u64()?,
            chunks: r.u32()?,
            provider: PeerId(r.u32()?),
        }),
        tag => {
            return Err(WireError::BadTag {
                what: "advert body",
                tag,
            })
        }
    };
    Ok(Advertisement { body, expires })
}

// ---- Message ----

const MSG_QUERY: u8 = 0;
const MSG_QUERY_HIT: u8 = 1;
const MSG_PUBLISH: u8 = 2;
const MSG_PIPE_DATA: u8 = 3;
const MSG_ORCH_DELTA: u8 = 4;
const MSG_ORCH_SYNC: u8 = 5;
const MSG_FIND_NODE: u8 = 6;
const MSG_FIND_NODE_REPLY: u8 = 7;
const MSG_FIND_VALUE: u8 = 8;
const MSG_FIND_VALUE_REPLY: u8 = 9;
const MSG_STORE_PROVIDER: u8 = 10;

fn encode_closer(w: &mut Writer, closer: &[(u64, PeerId)]) {
    w.u32(closer.len() as u32);
    for (id, peer) in closer {
        w.u64(*id);
        w.u32(peer.0);
    }
}

fn decode_closer(r: &mut Reader) -> Result<Vec<(u64, PeerId)>, WireError> {
    let (n, mut closer) = r.list("contact list", CONTACT_WIRE)?;
    for _ in 0..n {
        let id = r.u64()?;
        let peer = PeerId(r.u32()?);
        closer.push((id, peer));
    }
    Ok(closer)
}

impl Message {
    /// Canonical byte encoding of this message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_body(&mut w);
        w.into_bytes()
    }

    /// Encode into a caller-owned buffer, appending; with a pooled or
    /// recycled buffer this is the zero-allocation encode path.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::over(std::mem::take(out));
        self.encode_body(&mut w);
        *out = w.into_bytes();
    }

    fn encode_body(&self, w: &mut Writer) {
        match self {
            Message::Query {
                id,
                origin,
                prev_hop,
                ttl,
                kind,
            } => {
                w.u8(MSG_QUERY);
                w.u64(id.0);
                w.u32(origin.0);
                w.u32(prev_hop.0);
                w.u8(*ttl);
                encode_query_kind(w, kind);
            }
            Message::QueryHit { id, advert } => {
                w.u8(MSG_QUERY_HIT);
                w.u64(id.0);
                encode_advert(w, advert);
            }
            Message::Publish { advert } => {
                w.u8(MSG_PUBLISH);
                encode_advert(w, advert);
            }
            Message::PipeData { pipe, tag, bytes } => {
                w.u8(MSG_PIPE_DATA);
                w.u64(pipe.0);
                w.u64(*tag);
                w.u64(*bytes);
            }
            Message::OrchDelta { seq, bytes } => {
                w.u8(MSG_ORCH_DELTA);
                w.u64(*seq);
                w.u64(*bytes);
            }
            Message::OrchSync {
                from_seq,
                count,
                bytes,
            } => {
                w.u8(MSG_ORCH_SYNC);
                w.u64(*from_seq);
                w.u64(*count);
                w.u64(*bytes);
            }
            Message::FindNode { lid, from, key } => {
                w.u8(MSG_FIND_NODE);
                w.u64(lid.0);
                w.u32(from.0);
                w.u64(*key);
            }
            Message::FindNodeReply { lid, from, closer } => {
                w.u8(MSG_FIND_NODE_REPLY);
                w.u64(lid.0);
                w.u32(from.0);
                encode_closer(w, closer);
            }
            Message::FindValue {
                lid,
                from,
                key,
                kind,
            } => {
                w.u8(MSG_FIND_VALUE);
                w.u64(lid.0);
                w.u32(from.0);
                w.u64(*key);
                encode_query_kind(w, kind);
            }
            Message::FindValueReply {
                lid,
                from,
                closer,
                providers,
            } => {
                w.u8(MSG_FIND_VALUE_REPLY);
                w.u64(lid.0);
                w.u32(from.0);
                encode_closer(w, closer);
                w.u32(providers.len() as u32);
                for ad in providers {
                    encode_advert(w, ad);
                }
            }
            Message::StoreProvider { from, key, advert } => {
                w.u8(MSG_STORE_PROVIDER);
                w.u32(from.0);
                w.u64(*key);
                encode_advert(w, advert);
            }
        }
    }

    /// Decode a message, consuming the entire buffer.
    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(buf);
        let msg = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(msg)
    }

    /// Decode a message from a reader (leaves trailing bytes untouched,
    /// for embedding inside larger frames).
    pub fn decode_from(r: &mut Reader) -> Result<Message, WireError> {
        Ok(match r.u8()? {
            MSG_QUERY => Message::Query {
                id: QueryId(r.u64()?),
                origin: PeerId(r.u32()?),
                prev_hop: PeerId(r.u32()?),
                ttl: r.u8()?,
                kind: decode_query_kind(r)?,
            },
            MSG_QUERY_HIT => Message::QueryHit {
                id: QueryId(r.u64()?),
                advert: decode_advert(r)?,
            },
            MSG_PUBLISH => Message::Publish {
                advert: decode_advert(r)?,
            },
            MSG_PIPE_DATA => Message::PipeData {
                pipe: PipeId(r.u64()?),
                tag: r.u64()?,
                bytes: r.u64()?,
            },
            MSG_ORCH_DELTA => Message::OrchDelta {
                seq: r.u64()?,
                bytes: r.u64()?,
            },
            MSG_ORCH_SYNC => Message::OrchSync {
                from_seq: r.u64()?,
                count: r.u64()?,
                bytes: r.u64()?,
            },
            MSG_FIND_NODE => Message::FindNode {
                lid: LookupId(r.u64()?),
                from: PeerId(r.u32()?),
                key: r.u64()?,
            },
            MSG_FIND_NODE_REPLY => Message::FindNodeReply {
                lid: LookupId(r.u64()?),
                from: PeerId(r.u32()?),
                closer: decode_closer(r)?,
            },
            MSG_FIND_VALUE => Message::FindValue {
                lid: LookupId(r.u64()?),
                from: PeerId(r.u32()?),
                key: r.u64()?,
                kind: decode_query_kind(r)?,
            },
            MSG_FIND_VALUE_REPLY => {
                let lid = LookupId(r.u64()?);
                let from = PeerId(r.u32()?);
                let closer = decode_closer(r)?;
                let (n, mut providers) = r.list("provider list", MIN_ADVERT_WIRE)?;
                for _ in 0..n {
                    providers.push(decode_advert(r)?);
                }
                Message::FindValueReply {
                    lid,
                    from,
                    closer,
                    providers,
                }
            }
            MSG_STORE_PROVIDER => Message::StoreProvider {
                from: PeerId(r.u32()?),
                key: r.u64()?,
                advert: decode_advert(r)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "message",
                    tag,
                })
            }
        })
    }
}

// ---- scratch-buffer pool ----

/// Running totals for the thread-local scratch-buffer pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufPoolStats {
    /// `with_buf` calls served by a recycled buffer.
    pub hits: u64,
    /// `with_buf` calls that had to create a buffer.
    pub misses: u64,
}

thread_local! {
    static BUF_POOL: RefCell<(Vec<Vec<u8>>, BufPoolStats)> =
        const { RefCell::new((Vec::new(), BufPoolStats { hits: 0, misses: 0 })) };
}

/// Run `f` with a cleared scratch buffer drawn from the thread-local pool,
/// returning the buffer to the pool afterwards. Encode-then-transmit call
/// sites that only need the bytes transiently (datagram sends, digests,
/// size probes) go through here so steady-state encoding never allocates:
/// after warm-up every call is a pool hit reusing retained capacity.
///
/// Calls may nest (an encode inside an encode draws a second buffer).
pub fn with_buf<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let mut buf = BUF_POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.0.pop() {
            Some(b) => {
                p.1.hits += 1;
                b
            }
            None => {
                p.1.misses += 1;
                Vec::new()
            }
        }
    });
    buf.clear();
    let r = f(&mut buf);
    BUF_POOL.with(|p| p.borrow_mut().0.push(buf));
    r
}

/// Current pool counters for this thread.
pub fn buf_pool_stats() -> BufPoolStats {
    BUF_POOL.with(|p| p.borrow().1)
}

/// Reset the pool counters (the buffers themselves stay pooled), so a
/// deterministic run can snapshot exactly its own traffic.
pub fn buf_pool_stats_reset() {
    BUF_POOL.with(|p| p.borrow_mut().1 = BufPoolStats::default());
}

/// Drop every pooled buffer *and* reset the counters. Deterministic
/// harnesses call this at a run boundary so repeated runs on one thread
/// see an identical cold pool (same miss count), not whatever capacity a
/// previous run left behind.
pub fn buf_pool_reset() {
    BUF_POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.0.clear();
        p.1 = BufPoolStats::default();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advert::AdvertBody;

    fn sample_adverts() -> Vec<Advertisement> {
        vec![
            Advertisement {
                body: AdvertBody::Peer(PeerAdvert {
                    peer: PeerId(7),
                    cpu_ghz: 2.4,
                    free_ram_mib: 512,
                    services: vec!["triana".into(), "data-access".into()],
                }),
                expires: SimTime(1_000),
            },
            Advertisement {
                body: AdvertBody::Pipe(PipeAdvert {
                    pipe: PipeId(9),
                    name: "gw-channel-3".into(),
                    peer: PeerId(2),
                }),
                expires: SimTime(2_000),
            },
            Advertisement {
                body: AdvertBody::Module(ModuleAdvert {
                    name: "FFT".into(),
                    version: 3,
                    hash: 0xDEAD_BEEF,
                    size_bytes: 4_096,
                    owner: PeerId(1),
                }),
                expires: SimTime(3_000),
            },
            Advertisement {
                body: AdvertBody::Blob(BlobAdvert {
                    blob: 0xABCD,
                    size_bytes: 10_000,
                    chunks: 3,
                    provider: PeerId(4),
                }),
                expires: SimTime(4_000),
            },
        ]
    }

    fn sample_messages() -> Vec<Message> {
        let ads = sample_adverts();
        vec![
            Message::Query {
                id: QueryId(1),
                origin: PeerId(2),
                prev_hop: PeerId(3),
                ttl: 7,
                kind: QueryKind::ByService("triana".into()),
            },
            Message::Query {
                id: QueryId(2),
                origin: PeerId(0),
                prev_hop: PeerId(0),
                ttl: 0,
                kind: QueryKind::ByCapability {
                    min_cpu_ghz: 1.5,
                    min_ram_mib: 256,
                },
            },
            Message::Query {
                id: QueryId(3),
                origin: PeerId(5),
                prev_hop: PeerId(5),
                ttl: 4,
                kind: QueryKind::ByModule {
                    name: "FFT".into(),
                    min_version: 2,
                },
            },
            Message::Query {
                id: QueryId(4),
                origin: PeerId(5),
                prev_hop: PeerId(6),
                ttl: 4,
                kind: QueryKind::ByBlob { hash: 42 },
            },
            Message::Query {
                id: QueryId(5),
                origin: PeerId(5),
                prev_hop: PeerId(6),
                ttl: 4,
                kind: QueryKind::ByPipeName("p".into()),
            },
            Message::QueryHit {
                id: QueryId(9),
                advert: ads[0].clone(),
            },
            Message::Publish {
                advert: ads[1].clone(),
            },
            Message::PipeData {
                pipe: PipeId(3),
                tag: 77,
                bytes: 1_000_000,
            },
            Message::OrchDelta { seq: 12, bytes: 48 },
            Message::OrchSync {
                from_seq: 3,
                count: 5,
                bytes: 120,
            },
            Message::FindNode {
                lid: LookupId(8),
                from: PeerId(1),
                key: 0xF00D,
            },
            Message::FindNodeReply {
                lid: LookupId(8),
                from: PeerId(2),
                closer: vec![(1, PeerId(10)), (2, PeerId(20))],
            },
            Message::FindValue {
                lid: LookupId(9),
                from: PeerId(1),
                key: 0xF00D,
                kind: QueryKind::ByBlob { hash: 0xF00D },
            },
            Message::FindValueReply {
                lid: LookupId(9),
                from: PeerId(2),
                closer: vec![(3, PeerId(30))],
                providers: vec![ads[2].clone(), ads[3].clone()],
            },
            Message::StoreProvider {
                from: PeerId(6),
                key: 0xBEE,
                advert: ads[3].clone(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            let back = Message::decode(&bytes).expect("decodes");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_truncation_is_rejected_without_panic() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let err = Message::decode(&bytes[..cut]);
                assert!(err.is_err(), "truncation at {cut} must fail: {msg:?}");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_messages()[0].encode();
        bytes.push(0);
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(
            Message::decode(&[0xFF]),
            Err(WireError::BadTag {
                what: "message",
                tag: 0xFF
            })
        );
        // Corrupt the query-kind tag inside an otherwise valid message.
        let msg = Message::Query {
            id: QueryId(1),
            origin: PeerId(2),
            prev_hop: PeerId(3),
            ttl: 7,
            kind: QueryKind::ByBlob { hash: 42 },
        };
        let mut bytes = msg.encode();
        let kind_tag = 1 + 8 + 4 + 4 + 1; // msg tag + id + origin + prev_hop + ttl
        bytes[kind_tag] = 0xEE;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::BadTag {
                what: "query kind",
                tag: 0xEE
            })
        );
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // A Publish whose advert claims a 4 GiB service list.
        let mut w = Writer::new();
        w.u8(super::MSG_PUBLISH);
        w.u64(123); // expires
        w.u8(super::AD_PEER);
        w.u32(1); // peer
        w.f64(1.0);
        w.u32(64);
        w.u32(u32::MAX); // service count
        let err = Message::decode(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::LengthOverflow { .. }));
    }

    #[test]
    fn a_lying_list_length_reserves_no_more_than_the_buffer_holds() {
        let mut w = Writer::new();
        w.u32(MAX_LEN as u32);
        w.f64s(&[0.0; 2]);
        w.u32(0);
        let buf = w.into_bytes();
        let (n, list) = Reader::new(&buf)
            .list::<(u64, PeerId)>("contact list", super::CONTACT_WIRE)
            .unwrap();
        assert_eq!(
            n, MAX_LEN as usize,
            "the count is the caller's to run out on"
        );
        assert_eq!(list.capacity(), 20 / super::CONTACT_WIRE);
        // And through the message decoder: a FIND_NODE reply claiming
        // `MAX_LEN` contacts over 20 bytes is truncated, not allocated.
        let mut w = Writer::new();
        w.u8(super::MSG_FIND_NODE_REPLY);
        w.u64(1);
        w.u32(2);
        w.u32(MAX_LEN as u32);
        w.f64s(&[0.0; 2]);
        w.u32(0);
        let err = Message::decode(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn string_length_is_validated_against_remaining() {
        let mut w = Writer::new();
        w.u8(super::MSG_QUERY);
        w.u64(1);
        w.u32(2);
        w.u32(3);
        w.u8(7);
        w.u8(super::QK_SERVICE);
        w.u32(1_000); // claims 1000 bytes, provides none
        let err = Message::decode(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }
}
