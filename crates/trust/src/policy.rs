//! Pluggable worker-selection policies for the farm scheduler.
//!
//! The scheduler builds the list of *eligible idle* workers for a job (in
//! worker-id order, so every policy is deterministic) and asks the policy
//! to pick one. Three strategies ship:
//!
//! * [`FirstIdle`] — the legacy memoryless behaviour: highest advertised
//!   clock wins, ties broken by worker id. What the paper's controller
//!   does with its "machine type, speed, memory" adverts (§3.7).
//! * [`FastestProfiled`] — minimise the *learned* expected runtime
//!   ([`ProfileRegistry`] EWMA), falling back to the advertised clock for
//!   unobserved peers.
//! * [`ReliabilityWeighted`] — discount learned speed by trust and
//!   availability, preferring the worker with the best expected *useful*
//!   throughput; flaky or dishonest peers sink in the ranking even when
//!   their clocks are fast.

use std::fmt;
use std::sync::Arc;

use crate::profile::ProfileRegistry;

/// One eligible idle worker, as the scheduler presents it to a policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Worker id (index into the scheduler's worker table and the
    /// [`ProfileRegistry`]).
    pub worker: u32,
    /// Advertised CPU clock in GHz.
    pub cpu_ghz: f64,
}

/// A worker-selection strategy. Implementations must be deterministic:
/// same inputs, same choice.
pub trait SchedulingPolicy: Send + Sync {
    /// Policy name for configs, reports and metrics labels.
    fn name(&self) -> &'static str;

    /// Pick the index *into `candidates`* of the worker to assign a job of
    /// `work_gigacycles` to, or `None` to leave the job queued.
    /// `candidates` is non-empty and sorted by worker id; the scheduler
    /// does not call a policy when nobody is eligible.
    fn choose(
        &self,
        work_gigacycles: f64,
        candidates: &[Candidate],
        profiles: &ProfileRegistry,
    ) -> Option<usize>;
}

/// Legacy behaviour: fastest advertised clock among the idle workers,
/// first-listed on ties. History is ignored entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstIdle;

impl SchedulingPolicy for FirstIdle {
    fn name(&self) -> &'static str {
        "first-idle"
    }

    fn choose(
        &self,
        _work_gigacycles: f64,
        candidates: &[Candidate],
        _profiles: &ProfileRegistry,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, c) in candidates.iter().enumerate() {
            let better = match best {
                None => true,
                Some(b) => c.cpu_ghz > candidates[b].cpu_ghz,
            };
            if better {
                best = Some(i);
            }
        }
        best
    }
}

/// Minimise the profiled expected runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastestProfiled;

impl SchedulingPolicy for FastestProfiled {
    fn name(&self) -> &'static str {
        "fastest-profiled"
    }

    fn choose(
        &self,
        work_gigacycles: f64,
        candidates: &[Candidate],
        profiles: &ProfileRegistry,
    ) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            let est = profiles
                .expected_runtime(c.worker, work_gigacycles)
                .as_micros();
            if best.is_none_or(|(_, b)| est < b) {
                best = Some((i, est));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Maximise trust- and availability-discounted speed: the score of a
/// candidate is `trust × availability / expected_runtime`, i.e. expected
/// useful work per second, where "useful" means the peer stays up and its
/// result survives verification.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReliabilityWeighted;

impl SchedulingPolicy for ReliabilityWeighted {
    fn name(&self) -> &'static str {
        "reliability-weighted"
    }

    fn choose(
        &self,
        work_gigacycles: f64,
        candidates: &[Candidate],
        profiles: &ProfileRegistry,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            let secs = profiles
                .expected_runtime(c.worker, work_gigacycles)
                .as_secs_f64()
                .max(1e-9);
            let score = profiles.trust(c.worker) * profiles.availability(c.worker) / secs;
            // Strict > keeps the first-listed candidate on exact ties,
            // mirroring FirstIdle's deterministic tie-break.
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((i, score));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Cloneable, debuggable handle around a policy object, so scheduler
/// configs stay plain-old-data.
#[derive(Clone)]
pub struct PolicyHandle(Arc<dyn SchedulingPolicy>);

impl PolicyHandle {
    pub fn new(policy: impl SchedulingPolicy + 'static) -> Self {
        PolicyHandle(Arc::new(policy))
    }

    pub fn first_idle() -> Self {
        PolicyHandle::new(FirstIdle)
    }

    pub fn fastest_profiled() -> Self {
        PolicyHandle::new(FastestProfiled)
    }

    pub fn reliability_weighted() -> Self {
        PolicyHandle::new(ReliabilityWeighted)
    }

    pub fn name(&self) -> &'static str {
        self.0.name()
    }

    pub fn choose(
        &self,
        work_gigacycles: f64,
        candidates: &[Candidate],
        profiles: &ProfileRegistry,
    ) -> Option<usize> {
        debug_assert!(
            !candidates.is_empty(),
            "SchedulingPolicy::choose takes a non-empty candidate list"
        );
        self.0.choose(work_gigacycles, candidates, profiles)
    }
}

impl fmt::Debug for PolicyHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PolicyHandle({})", self.0.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TrustConfig;
    use netsim::{Duration, SimTime};

    fn registry(clocks: &[f64]) -> ProfileRegistry {
        let mut r = ProfileRegistry::new(TrustConfig::default());
        for (i, &ghz) in clocks.iter().enumerate() {
            r.register(i as u32, ghz, true);
        }
        r
    }

    fn candidates(clocks: &[f64]) -> Vec<Candidate> {
        clocks
            .iter()
            .enumerate()
            .map(|(i, &cpu_ghz)| Candidate {
                worker: i as u32,
                cpu_ghz,
            })
            .collect()
    }

    #[test]
    fn first_idle_picks_highest_advertised_clock_first_on_ties() {
        let r = registry(&[2.0, 3.0, 3.0, 1.0]);
        let cands = candidates(&[2.0, 3.0, 3.0, 1.0]);
        assert_eq!(FirstIdle.choose(10.0, &cands, &r), Some(1));
    }

    #[test]
    fn fastest_profiled_prefers_learned_speed_over_advert() {
        let mut r = registry(&[3.0, 2.0]);
        let cands = candidates(&[3.0, 2.0]);
        // Unobserved: the 3 GHz advert wins.
        assert_eq!(FastestProfiled.choose(100.0, &cands, &r), Some(0));
        // Worker 0 turns out to deliver only 1 Gc/s.
        for _ in 0..20 {
            r.record_completion(0, 100.0, Duration::from_secs(100));
        }
        assert_eq!(FastestProfiled.choose(100.0, &cands, &r), Some(1));
    }

    #[test]
    fn reliability_weighted_demotes_flaky_and_dishonest_peers() {
        let mut r = registry(&[3.0, 2.0]);
        let cands = candidates(&[3.0, 2.0]);
        // Equal (neutral) history: the faster advert wins.
        assert_eq!(ReliabilityWeighted.choose(100.0, &cands, &r), Some(0));
        // Worker 0 keeps abandoning jobs and dissenting in votes.
        for _ in 0..6 {
            r.record_abandon(0);
            r.record_vote(0, false);
        }
        for _ in 0..6 {
            r.record_completion(1, 100.0, Duration::from_secs(50));
            r.record_vote(1, true);
        }
        assert_eq!(ReliabilityWeighted.choose(100.0, &cands, &r), Some(1));
    }

    #[test]
    fn reliability_weighted_uses_availability() {
        let mut r = registry(&[2.0, 2.0]);
        let cands = candidates(&[2.0, 2.0]);
        // Worker 0 was observed down for most of a long stretch.
        r.mark_down(0, SimTime::ZERO);
        r.mark_up(0, SimTime::from_secs(90_000));
        r.mark_down(1, SimTime::from_secs(90_000)); // long up stretch first
        r.mark_up(1, SimTime::from_secs(91_000));
        assert_eq!(ReliabilityWeighted.choose(10.0, &cands, &r), Some(1));
    }

    #[test]
    fn handle_is_cloneable_and_debuggable() {
        let h = PolicyHandle::reliability_weighted();
        let h2 = h.clone();
        assert_eq!(h2.name(), "reliability-weighted");
        assert_eq!(format!("{h:?}"), "PolicyHandle(reliability-weighted)");
    }

    #[test]
    fn empty_candidate_list_yields_none() {
        let r = registry(&[]);
        assert_eq!(FirstIdle.choose(1.0, &[], &r), None);
        assert_eq!(FastestProfiled.choose(1.0, &[], &r), None);
        assert_eq!(ReliabilityWeighted.choose(1.0, &[], &r), None);
    }
}
