//! Typed trace events.
//!
//! An [`Event`] is a small `Copy` value that names what happened and the
//! ids it concerns. Recording one stores it as it is; its dotted
//! [`Event::kind`] and its `key=value` detail text (the [`fmt::Display`]
//! impl) are rendered only when a snapshot is taken. A full event ring
//! therefore records without a heap call, and the events it pushes out
//! free nothing.

use std::fmt;

/// One structured trace event. Ids are the raw numbers of the layer's
/// newtypes (`JobId`, `WorkerId`, `PeerId`, `QueryId`, `BlobId`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// `farm.dispatch`: a job's primary copy went to a worker.
    FarmDispatch { job: u64, worker: u32 },
    /// `farm.worker_up`: a worker joined or came back.
    FarmWorkerUp { worker: u32 },
    /// `farm.worker_down`: a worker left.
    FarmWorkerDown { worker: u32 },
    /// `farm.complete`: a job's primary copy returned its result.
    FarmComplete { job: u64, latency_us: u64 },
    /// `trust.speculate`: a backup copy of a straggling job was dispatched.
    Speculate {
        job: u64,
        straggler: u32,
        backup: u32,
    },
    /// `trust.speculative_win`: a backup copy returned first.
    SpeculativeWin {
        job: u64,
        worker: u32,
        latency_us: u64,
    },
    /// `store.verify_failure`: an assembled blob failed its hash check.
    VerifyFailure { job: u64, worker: u32, blob: u64 },
    /// `pipeline.emit`: a token entered the pipeline.
    PipelineEmit { token: u64, attempt: u32 },
    /// `pipeline.stage_down`: a pipeline stage went offline.
    PipelineStageDown { stage: u32 },
    /// `pipeline.token_done`: a token left the last stage.
    PipelineTokenDone { token: u64, attempt: u32 },
    /// `p2p.query`: a discovery query was issued.
    P2pQuery { id: u64, origin: u32, ttl: u8 },
    /// `p2p.query_hit`: a query hit reached the query's origin.
    P2pQueryHit { id: u64, provider: u32 },
}

impl Event {
    /// The dotted kind the snapshot prints, e.g. `"farm.dispatch"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::FarmDispatch { .. } => "farm.dispatch",
            Event::FarmWorkerUp { .. } => "farm.worker_up",
            Event::FarmWorkerDown { .. } => "farm.worker_down",
            Event::FarmComplete { .. } => "farm.complete",
            Event::Speculate { .. } => "trust.speculate",
            Event::SpeculativeWin { .. } => "trust.speculative_win",
            Event::VerifyFailure { .. } => "store.verify_failure",
            Event::PipelineEmit { .. } => "pipeline.emit",
            Event::PipelineStageDown { .. } => "pipeline.stage_down",
            Event::PipelineTokenDone { .. } => "pipeline.token_done",
            Event::P2pQuery { .. } => "p2p.query",
            Event::P2pQueryHit { .. } => "p2p.query_hit",
        }
    }
}

/// The detail text the snapshot prints, e.g. `job=3 worker=1`.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::FarmDispatch { job, worker } => write!(f, "job={job} worker={worker}"),
            Event::FarmWorkerUp { worker } | Event::FarmWorkerDown { worker } => {
                write!(f, "worker={worker}")
            }
            Event::FarmComplete { job, latency_us } => {
                write!(f, "job={job} latency_us={latency_us}")
            }
            Event::Speculate {
                job,
                straggler,
                backup,
            } => write!(f, "job={job} straggler={straggler} backup={backup}"),
            Event::SpeculativeWin {
                job,
                worker,
                latency_us,
            } => write!(f, "job={job} worker={worker} latency_us={latency_us}"),
            Event::VerifyFailure { job, worker, blob } => {
                write!(f, "job={job} worker={worker} blob=b{blob:016x}")
            }
            Event::PipelineEmit { token, attempt }
            | Event::PipelineTokenDone { token, attempt } => {
                write!(f, "token={token} attempt={attempt}")
            }
            Event::PipelineStageDown { stage } => write!(f, "stage={stage}"),
            Event::P2pQuery { id, origin, ttl } => write!(f, "id={id} origin={origin} ttl={ttl}"),
            Event::P2pQueryHit { id, provider } => write!(f, "id={id} provider={provider}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Event::*;

    /// Every variant's kind and detail, pinned to the text the stringly
    /// call sites printed before events were typed. The quick golden
    /// (`quick.metrics.json`) pins five of these kinds end to end; this
    /// covers all twelve.
    #[test]
    fn each_variant_renders_its_kind_and_detail() {
        let cases = [
            (
                FarmDispatch { job: 0, worker: 3 },
                "farm.dispatch",
                "job=0 worker=3",
            ),
            (FarmWorkerUp { worker: 5 }, "farm.worker_up", "worker=5"),
            (FarmWorkerDown { worker: 6 }, "farm.worker_down", "worker=6"),
            (
                FarmComplete {
                    job: 7,
                    latency_us: 1_250_000,
                },
                "farm.complete",
                "job=7 latency_us=1250000",
            ),
            (
                Speculate {
                    job: 9,
                    straggler: 4,
                    backup: 11,
                },
                "trust.speculate",
                "job=9 straggler=4 backup=11",
            ),
            (
                SpeculativeWin {
                    job: 7,
                    worker: 2,
                    latency_us: 830,
                },
                "trust.speculative_win",
                "job=7 worker=2 latency_us=830",
            ),
            (
                VerifyFailure {
                    job: 12,
                    worker: 40,
                    blob: 0x00ab_cdef_0123,
                },
                "store.verify_failure",
                "job=12 worker=40 blob=b000000abcdef0123",
            ),
            (
                PipelineEmit {
                    token: 3,
                    attempt: 0,
                },
                "pipeline.emit",
                "token=3 attempt=0",
            ),
            (
                PipelineStageDown { stage: 2 },
                "pipeline.stage_down",
                "stage=2",
            ),
            (
                PipelineTokenDone {
                    token: 3,
                    attempt: 1,
                },
                "pipeline.token_done",
                "token=3 attempt=1",
            ),
            (
                P2pQuery {
                    id: 17,
                    origin: 95,
                    ttl: 4,
                },
                "p2p.query",
                "id=17 origin=95 ttl=4",
            ),
            (
                P2pQueryHit {
                    id: 17,
                    provider: 8,
                },
                "p2p.query_hit",
                "id=17 provider=8",
            ),
        ];
        for (event, kind, detail) in cases {
            assert_eq!(event.kind(), kind, "{event:?}");
            assert_eq!(event.to_string(), detail, "{event:?}");
        }
    }

    /// The blob id keeps `BlobId`'s fixed-width form at both extremes.
    #[test]
    fn blob_ids_render_sixteen_hex_digits() {
        let at = |blob| VerifyFailure {
            job: 0,
            worker: 0,
            blob,
        };
        assert_eq!(at(0).to_string(), "job=0 worker=0 blob=b0000000000000000");
        assert_eq!(
            at(u64::MAX).to_string(),
            "job=0 worker=0 blob=bffffffffffffffff"
        );
    }
}
