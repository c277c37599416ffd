//! Cross-layer invariants a correct grid must uphold *under any plan the
//! generator can produce* — the oracle side of the harness.
//!
//! Each check runs after the world drains and returns the violations it
//! found. The identities lean on the observability counters, which makes
//! them double as a consistency audit of the obs layer itself: a counter
//! that drifts from the scheduler's ground truth fails the same check as
//! a genuine scheduling bug.

use obs::Registry;
use orch::{Delta, OrchestratorHandle};
use std::collections::BTreeSet;
use std::fmt;
use triana_core::grid::farm::FarmScheduler;
use triana_core::grid::pipeline::PipelineScheduler;
use triana_core::grid::redundancy::{Behaviour, Verdict, VotingFarm};
use triana_core::grid::{GridWorld, JobId, WorkerId};

use crate::oracle::ChaosCounters;

/// One broken invariant, with enough detail to debug from the report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable identifier of the invariant (used in reports and tests).
    pub invariant: &'static str,
    pub detail: String,
}

impl Violation {
    pub fn new(invariant: &'static str, detail: String) -> Self {
        Violation { invariant, detail }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Every job completes-or-stays-queued exactly once: the completion
/// counter, the per-job completion records, and the stats aggregate must
/// all agree.
pub fn check_exactly_once(farm: &FarmScheduler, reg: &Registry, out: &mut Vec<Violation>) {
    let by_latency = (0..farm.n_jobs())
        .filter(|&j| farm.job_latency(JobId(j as u64)).is_some())
        .count() as u64;
    let counter = reg.counter_value("farm.completions");
    if counter != by_latency {
        out.push(Violation::new(
            "exactly-once",
            format!("farm.completions={counter} but {by_latency} jobs have a completion record"),
        ));
    }
    let stats_done = farm.stats().jobs_done;
    if stats_done != by_latency {
        out.push(Violation::new(
            "exactly-once",
            format!("stats.jobs_done={stats_done} but {by_latency} jobs completed"),
        ));
    }
}

/// Every iterative overlay lookup must resolve by drain: each in-flight
/// DHT request either completes, fails over to the next candidate, or is
/// reaped by its scheduled timeout — a lookup still open once the event
/// queue is empty is wedged forever. Trivially green in flooding mode
/// (no lookups ever start), so safe to run on every scenario.
pub fn check_overlay_converged(p2p: &p2p::P2p, out: &mut Vec<Violation>) {
    let open = p2p.active_lookups();
    if open != 0 {
        out.push(Violation::new(
            "overlay-lookup-converges",
            format!("{open} iterative lookup(s) still active at drain"),
        ));
    }
}

/// No job may be stranded at drain: once the event queue is empty, every
/// job is either done or back in the pending queue — never still assigned
/// to a worker with no event left to move it.
pub fn check_no_stranded_jobs(farm: &FarmScheduler, out: &mut Vec<Violation>) {
    for j in 0..farm.n_jobs() {
        let job = JobId(j as u64);
        if farm.job_is_done(job) {
            continue;
        }
        if let Some(w) = farm.job_assignment(job) {
            out.push(Violation::new(
                "stranded-job",
                format!("job {j} still assigned to worker {} at drain", w.0),
            ));
        }
    }
}

/// No starvation at drain: a pending job while an up, non-blacklisted
/// worker has a free slot means the scheduler stopped scheduling. Only
/// sound when jobs carry no placement conflicts (the farm scenario);
/// voting replicas may legitimately starve when conflicts exclude every
/// free worker.
pub fn check_no_starvation(farm: &FarmScheduler, out: &mut Vec<Violation>) {
    let any_pending = (0..farm.n_jobs()).any(|j| farm.job_is_pending(JobId(j as u64)));
    if !any_pending {
        return;
    }
    for w in 0..farm.n_workers() {
        let wid = WorkerId(w as u32);
        if farm.worker_is_up(wid)
            && !farm.worker_blacklisted(wid)
            && farm.worker_active(wid) < farm.worker_capacity(wid)
        {
            out.push(Violation::new(
                "starvation",
                format!("pending jobs at drain while worker {w} is up with a free slot"),
            ));
            return;
        }
    }
}

/// Assignment-flow conservation: every dispatch ends in exactly one of
/// completion, requeue, or migration (a speculative win both completes
/// the job and retires its primary assignment, so the terms cancel).
/// Only exact once nothing is stranded — check after
/// [`check_no_stranded_jobs`] passes.
pub fn check_dispatch_conservation(reg: &Registry, out: &mut Vec<Violation>) {
    let dispatches = reg.counter_value("farm.dispatches");
    let completions = reg.counter_value("farm.completions");
    let requeues = reg.counter_value("farm.requeues");
    let migrations = reg.counter_value("farm.migrations");
    if dispatches != completions + requeues + migrations {
        out.push(Violation::new(
            "dispatch-conservation",
            format!(
                "dispatches={dispatches} != completions={completions} \
                 + requeues={requeues} + migrations={migrations}"
            ),
        ));
    }
    let spec = reg.counter_value("trust.speculative_dispatches");
    let wins = reg.counter_value("trust.speculative_wins");
    let cancelled = reg.counter_value("trust.speculative_cancelled");
    if spec != wins + cancelled {
        out.push(Violation::new(
            "speculation-conservation",
            format!("speculative_dispatches={spec} != wins={wins} + cancelled={cancelled}"),
        ));
    }
}

/// Overlay message conservation: at drain, every sent message was either
/// received or lost; oracle-injected duplicates add to the delivered side,
/// oracle-filtered sends were never counted as sent.
pub fn check_message_conservation(reg: &Registry, chaos: ChaosCounters, out: &mut Vec<Violation>) {
    let sent = reg.counter_value("p2p.messages_sent");
    let received = reg.counter_value("p2p.messages_received");
    let lost = reg.counter_value("p2p.messages_lost");
    if sent + chaos.dups != received + lost {
        out.push(Violation::new(
            "message-conservation",
            format!(
                "sent={sent} + injected_dups={} != received={received} + lost={lost}",
                chaos.dups
            ),
        ));
    }
}

/// Module-cache integrity: no worker's cache may hold bytes whose content
/// hash disagrees with the controller library's blob for that key, and no
/// prepared (verify-once) module may outlive or disagree with the blob it
/// was prepared from. Chunk corruption and Byzantine providers must be
/// stopped at swarm-assembly verification, before the cache.
pub fn check_cache_integrity(farm: &FarmScheduler, world: &GridWorld, out: &mut Vec<Violation>) {
    let _ = world;
    for w in 0..farm.n_workers() {
        let wid = WorkerId(w as u32);
        for (key, blob) in farm.worker_cache(wid).entries() {
            let cached = store::BlobId::of_blob(blob);
            if let Some(p) = farm.worker_cache(wid).prepared_of(key) {
                if p.source_hash() != cached.0 {
                    out.push(Violation::new(
                        "cache-integrity",
                        format!(
                            "worker {w} holds a prepared module for {key:?} built from hash \
                             {:#018x} but the resident blob is {cached}",
                            p.source_hash()
                        ),
                    ));
                }
                // Admission must be deterministic: re-admitting the resident
                // blob reproduces the same translated regions. A divergence
                // means region detection or translation depends on
                // something besides the blob bytes — a nondeterminism no
                // chaos schedule is allowed to surface.
                match tvm::PreparedModule::from_blob(blob) {
                    Ok(again)
                        if again.regions_translated() == p.regions_translated()
                            && again.source_hash() == p.source_hash() => {}
                    Ok(again) => out.push(Violation::new(
                        "cache-integrity",
                        format!(
                            "worker {w} prepared module for {key:?} is not reproducible: \
                             resident {} regions vs re-admitted {}",
                            p.regions_translated(),
                            again.regions_translated()
                        ),
                    )),
                    Err(e) => out.push(Violation::new(
                        "cache-integrity",
                        format!(
                            "worker {w} holds a prepared module for {key:?} whose blob no \
                             longer re-admits: {e:?}"
                        ),
                    )),
                }
            }
            let Some(truth) = farm.library.fetch(key) else {
                continue; // library republished under us; nothing to compare
            };
            let expect = store::BlobId::of_blob(truth);
            if cached != expect {
                out.push(Violation::new(
                    "cache-integrity",
                    format!(
                        "worker {w} caches {key:?} with hash {cached} but the library says {expect}"
                    ),
                ));
            }
        }
    }
}

/// A drained pipeline with every stage up must have finished every token,
/// and the obs counter must agree with the per-token records.
pub fn check_pipeline(
    pl: &PipelineScheduler,
    n_tokens: u64,
    reg: &Registry,
    out: &mut Vec<Violation>,
) {
    let all_up = (0..pl.n_stages()).all(|s| pl.stage_is_up(s));
    if all_up && !pl.all_done() {
        out.push(Violation::new(
            "pipeline-liveness",
            "drained with all stages up but not all tokens done".to_string(),
        ));
    }
    let by_latency = (0..n_tokens)
        .filter(|&t| pl.token_latency(t).is_some())
        .count() as u64;
    let counter = reg.counter_value("pipeline.tokens_done");
    if counter != by_latency {
        out.push(Violation::new(
            "pipeline-exactly-once",
            format!("pipeline.tokens_done={counter} but {by_latency} tokens have latency records"),
        ));
    }
    let stats = pl.stats();
    if stats.tokens_done != by_latency {
        out.push(Violation::new(
            "pipeline-exactly-once",
            format!(
                "stats.tokens_done={} but {by_latency} tokens completed",
                stats.tokens_done
            ),
        ));
    }
}

/// With at most `quorum - 1` cheaters among the volunteers, no accepted
/// unit may carry a wrong digest: a minority cannot form a quorum.
pub fn check_voting(voting: &VotingFarm, farm: &FarmScheduler, out: &mut Vec<Violation>) {
    let cheaters = voting
        .behaviours()
        .iter()
        .filter(|b| matches!(b, Behaviour::Cheater { .. }))
        .count();
    if cheaters >= voting.config.quorum {
        return; // cheaters could legitimately out-vote honesty
    }
    for u in 0..voting.units.len() {
        if let Verdict::Accepted { .. } = voting.verdict(farm, u) {
            if voting.accepted_digest_is_wrong(farm, u) {
                out.push(Violation::new(
                    "voting-soundness",
                    format!(
                        "unit {u}: a wrong digest won the vote with only {cheaters} cheater(s)"
                    ),
                ));
            }
        }
    }
}

/// Replicated exactly-once: the authoritative delta log records each
/// unit's completion exactly once, and the set of completions agrees with
/// the scheduler's ground truth (`done` — finished job ids for a farm,
/// finished token ids for a pipeline). A double `Complete` means a
/// failover re-ran a finished unit; a missing one means a handoff lost a
/// completion the old leader had already accepted.
pub fn check_orch_exactly_once(orch: &OrchestratorHandle, done: &[u64], out: &mut Vec<Violation>) {
    let o = orch.inner();
    let mut completed: BTreeSet<u64> = BTreeSet::new();
    for d in o.log() {
        if let Delta::Complete { job } = *d {
            if !completed.insert(job) {
                out.push(Violation::new(
                    "orch-exactly-once",
                    format!("unit {job} completed more than once in the replicated log"),
                ));
            }
        }
    }
    let truth: BTreeSet<u64> = done.iter().copied().collect();
    if completed != truth {
        let logged_only: Vec<u64> = completed.difference(&truth).copied().collect();
        let truth_only: Vec<u64> = truth.difference(&completed).copied().collect();
        out.push(Violation::new(
            "orch-exactly-once",
            format!(
                "replicated completion set disagrees with the scheduler: \
                 log-only={logged_only:?} scheduler-only={truth_only:?}"
            ),
        ));
    }
}

/// No orphaned partition of the task graph at drain: every unfinished
/// unit's data-plane owner is an up member, and every up member's replica
/// has converged onto the full authoritative log (anti-entropy finished
/// its job before the tick stopped).
pub fn check_orch_replication(orch: &OrchestratorHandle, out: &mut Vec<Violation>) {
    let o = orch.inner();
    let auth = o.authority();
    for (&job, &owner) in &auth.owners {
        if auth.done.contains(&job) {
            continue;
        }
        if !o.member_up(owner as usize) {
            out.push(Violation::new(
                "orch-orphaned-owner",
                format!("unit {job} still owned by down orchestrator {owner} at drain"),
            ));
        }
    }
    let log_len = o.log_len();
    for i in 0..o.n_members() {
        if !o.member_up(i) {
            continue;
        }
        let r = o.replica(i);
        if r.applied() != log_len || r.buffered() != 0 {
            out.push(Violation::new(
                "orch-replication-divergence",
                format!(
                    "up orchestrator {i} drained with applied={}/{log_len} \
                     and {} buffered deliveries",
                    r.applied(),
                    r.buffered()
                ),
            ));
        } else if r.owners != auth.owners || r.dispatch != auth.dispatch || r.done != auth.done {
            out.push(Violation::new(
                "orch-replication-divergence",
                format!("up orchestrator {i} applied the full log but disagrees with authority"),
            ));
        }
    }
}

/// No new assignment may go to a blacklisted worker. The driver calls this
/// after every step with the assignments it saw before the step; a fresh
/// `(job, worker)` pairing on a currently-blacklisted worker is a breach.
pub fn check_blacklist_respected(
    farm: &FarmScheduler,
    before: &[Option<WorkerId>],
    out: &mut Vec<Violation>,
) {
    for (j, prev) in before.iter().enumerate().take(farm.n_jobs()) {
        let now = farm.job_assignment(JobId(j as u64));
        if let Some(w) = now {
            if *prev != now && farm.worker_blacklisted(w) {
                out.push(Violation::new(
                    "blacklist",
                    format!("job {j} newly assigned to blacklisted worker {}", w.0),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_formats_with_invariant_tag() {
        let v = Violation::new("stranded-job", "job 3".to_string());
        assert_eq!(v.to_string(), "[stranded-job] job 3");
    }
}
