//! The small grid protocol the node runtime speaks over [`crate::Transport`].
//!
//! Messages reuse the `p2p::wire` binary codec — including the
//! [`Advertisement`] codec for provider announcements, so the swarm layer
//! speaks the same advert format whether it rides the in-sim overlay or a
//! real socket. Every decode path is total: truncated or corrupted input
//! yields a typed [`WireError`], never a panic.

use p2p::wire::{decode_advert, encode_advert, Reader, WireError, Writer};
use p2p::Advertisement;

/// Identity of a module the orchestrator can dispatch: enough for a
/// worker to fetch, verify and cache the blob.
#[derive(Clone, Debug, PartialEq)]
pub struct ModuleInfo {
    pub name: String,
    pub version: u32,
    /// FNV-1a 64 content hash: the blob's swarm address.
    pub hash: u64,
    pub blob_len: u64,
}

/// One message of the worker/orchestrator protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum GridMsg {
    /// Worker → orchestrator: I exist; these blob hashes are already in
    /// my (recovered) store.
    Hello { have: Vec<u64> },
    /// Orchestrator → worker: handshake confirmation with the total job
    /// count of this farm.
    Welcome { jobs_total: u64 },
    /// Orchestrator → worker: peers that can serve chunks of `blob`
    /// (blob adverts carrying provider peer ids = endpoint ids).
    Providers {
        blob: u64,
        adverts: Vec<Advertisement>,
    },
    /// Orchestrator → worker: run `job` through `module` on `input`.
    Dispatch {
        job: u64,
        module: ModuleInfo,
        input: Vec<f64>,
    },
    /// Fetcher → provider: send chunk `index` of `blob`.
    ChunkRequest {
        blob: u64,
        blob_len: u64,
        index: u32,
    },
    /// Provider → fetcher: the chunk bytes.
    ChunkData {
        blob: u64,
        blob_len: u64,
        index: u32,
        bytes: Vec<u8>,
    },
    /// Worker → orchestrator: `blob` is now fully held and servable.
    HaveBlob { blob: u64 },
    /// Worker → orchestrator: outputs of a completed job.
    JobResult { job: u64, outputs: Vec<Vec<f64>> },
    /// Orchestrator → worker: the farm is finished; stop.
    Shutdown,
}

const TAG_HELLO: u8 = 0;
const TAG_WELCOME: u8 = 1;
const TAG_PROVIDERS: u8 = 2;
const TAG_DISPATCH: u8 = 3;
const TAG_CHUNK_REQ: u8 = 4;
const TAG_CHUNK_DATA: u8 = 5;
const TAG_HAVE_BLOB: u8 = 6;
const TAG_JOB_RESULT: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;

fn encode_module(w: &mut Writer, m: &ModuleInfo) {
    w.str(&m.name);
    w.u32(m.version);
    w.u64(m.hash);
    w.u64(m.blob_len);
}

fn decode_module(r: &mut Reader<'_>) -> Result<ModuleInfo, WireError> {
    Ok(ModuleInfo {
        name: r.str("module name")?,
        version: r.u32()?,
        hash: r.u64()?,
        blob_len: r.u64()?,
    })
}

fn encode_f64s(w: &mut Writer, xs: &[f64]) {
    w.u32(xs.len() as u32);
    w.f64s(xs);
}

fn decode_f64s(r: &mut Reader<'_>) -> Result<Vec<f64>, WireError> {
    let n = r.length("f64 vector")?;
    r.f64s(n)
}

fn encode_dispatch(w: &mut Writer, job: u64, module: &ModuleInfo, input: &[f64]) {
    w.u8(TAG_DISPATCH);
    w.u64(job);
    encode_module(w, module);
    encode_f64s(w, input);
}

/// Allowance for a message's fixed-width fields when sizing its buffer.
const FIXED_HINT: usize = 64;

fn dispatch_hint(module: &ModuleInfo, input: &[f64]) -> usize {
    FIXED_HINT + module.name.len() + 8 * input.len()
}

impl GridMsg {
    /// Roughly the bytes [`GridMsg::encode`] produces — exact in the bulk
    /// fields, a flat allowance for the rest — so a message that carries
    /// kilobytes allocates its buffer once instead of regrowing it.
    fn size_hint(&self) -> usize {
        match self {
            GridMsg::Dispatch { module, input, .. } => dispatch_hint(module, input),
            GridMsg::ChunkData { bytes, .. } => FIXED_HINT + bytes.len(),
            GridMsg::JobResult { outputs, .. } => {
                FIXED_HINT + outputs.iter().map(|o| 4 + 8 * o.len()).sum::<usize>()
            }
            _ => FIXED_HINT,
        }
    }

    /// The bytes of `GridMsg::Dispatch { job, module, input }.encode()`
    /// from borrowed parts: a sender that keeps its job list need not
    /// copy an input vector just to encode it.
    pub fn encode_dispatch(job: u64, module: &ModuleInfo, input: &[f64]) -> Vec<u8> {
        let mut w = Writer::over(Vec::with_capacity(dispatch_hint(module, input)));
        encode_dispatch(&mut w, job, module, input);
        w.into_bytes()
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::over(Vec::with_capacity(self.size_hint()));
        match self {
            GridMsg::Hello { have } => {
                w.u8(TAG_HELLO);
                w.u32(have.len() as u32);
                for &h in have {
                    w.u64(h);
                }
            }
            GridMsg::Welcome { jobs_total } => {
                w.u8(TAG_WELCOME);
                w.u64(*jobs_total);
            }
            GridMsg::Providers { blob, adverts } => {
                w.u8(TAG_PROVIDERS);
                w.u64(*blob);
                w.u32(adverts.len() as u32);
                for a in adverts {
                    encode_advert(&mut w, a);
                }
            }
            GridMsg::Dispatch { job, module, input } => {
                encode_dispatch(&mut w, *job, module, input);
            }
            GridMsg::ChunkRequest {
                blob,
                blob_len,
                index,
            } => {
                w.u8(TAG_CHUNK_REQ);
                w.u64(*blob);
                w.u64(*blob_len);
                w.u32(*index);
            }
            GridMsg::ChunkData {
                blob,
                blob_len,
                index,
                bytes,
            } => {
                w.u8(TAG_CHUNK_DATA);
                w.u64(*blob);
                w.u64(*blob_len);
                w.u32(*index);
                w.bytes(bytes);
            }
            GridMsg::HaveBlob { blob } => {
                w.u8(TAG_HAVE_BLOB);
                w.u64(*blob);
            }
            GridMsg::JobResult { job, outputs } => {
                w.u8(TAG_JOB_RESULT);
                w.u64(*job);
                w.u32(outputs.len() as u32);
                for o in outputs {
                    encode_f64s(&mut w, o);
                }
            }
            GridMsg::Shutdown => {
                w.u8(TAG_SHUTDOWN);
            }
        }
        w.into_bytes()
    }

    pub fn decode(buf: &[u8]) -> Result<GridMsg, WireError> {
        let mut r = Reader::new(buf);
        let msg = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(msg)
    }

    pub fn decode_from(r: &mut Reader<'_>) -> Result<GridMsg, WireError> {
        let tag = r.u8()?;
        Ok(match tag {
            TAG_HELLO => {
                let n = r.length("hello have")?;
                let mut have = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    have.push(r.u64()?);
                }
                GridMsg::Hello { have }
            }
            TAG_WELCOME => GridMsg::Welcome {
                jobs_total: r.u64()?,
            },
            TAG_PROVIDERS => {
                let blob = r.u64()?;
                let n = r.length("provider adverts")?;
                let mut adverts = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    adverts.push(decode_advert(r)?);
                }
                GridMsg::Providers { blob, adverts }
            }
            TAG_DISPATCH => GridMsg::Dispatch {
                job: r.u64()?,
                module: decode_module(r)?,
                input: decode_f64s(r)?,
            },
            TAG_CHUNK_REQ => GridMsg::ChunkRequest {
                blob: r.u64()?,
                blob_len: r.u64()?,
                index: r.u32()?,
            },
            TAG_CHUNK_DATA => GridMsg::ChunkData {
                blob: r.u64()?,
                blob_len: r.u64()?,
                index: r.u32()?,
                bytes: r.bytes("chunk bytes")?,
            },
            TAG_HAVE_BLOB => GridMsg::HaveBlob { blob: r.u64()? },
            TAG_JOB_RESULT => {
                let job = r.u64()?;
                let n = r.length("job outputs")?;
                let mut outputs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    outputs.push(decode_f64s(r)?);
                }
                GridMsg::JobResult { job, outputs }
            }
            TAG_SHUTDOWN => GridMsg::Shutdown,
            other => {
                return Err(WireError::BadTag {
                    what: "grid message",
                    tag: other,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;
    use p2p::advert::{AdvertBody, BlobAdvert};
    use p2p::PeerId;

    fn samples() -> Vec<GridMsg> {
        vec![
            GridMsg::Hello {
                have: vec![1, u64::MAX],
            },
            GridMsg::Welcome { jobs_total: 12 },
            GridMsg::Providers {
                blob: 77,
                adverts: vec![Advertisement {
                    body: AdvertBody::Blob(BlobAdvert {
                        blob: 77,
                        size_bytes: 4_096,
                        chunks: 2,
                        provider: PeerId(3),
                    }),
                    expires: SimTime(9),
                }],
            },
            GridMsg::Dispatch {
                job: 5,
                module: ModuleInfo {
                    name: "scale".into(),
                    version: 1,
                    hash: 0xDEAD,
                    blob_len: 321,
                },
                input: vec![1.5, -2.0, f64::MIN_POSITIVE],
            },
            GridMsg::ChunkRequest {
                blob: 9,
                blob_len: 100,
                index: 1,
            },
            GridMsg::ChunkData {
                blob: 9,
                blob_len: 100,
                index: 1,
                bytes: vec![7; 36],
            },
            GridMsg::HaveBlob { blob: 9 },
            GridMsg::JobResult {
                job: 5,
                outputs: vec![vec![2.25], vec![]],
            },
            GridMsg::Shutdown,
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in samples() {
            let bytes = msg.encode();
            assert_eq!(GridMsg::decode(&bytes), Ok(msg));
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(GridMsg::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = GridMsg::Shutdown.encode();
        bytes.push(0);
        assert!(matches!(
            GridMsg::decode(&bytes),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(matches!(
            GridMsg::decode(&[200]),
            Err(WireError::BadTag { .. })
        ));
    }
}
