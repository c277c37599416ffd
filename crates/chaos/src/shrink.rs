//! Plan shrinking: reduce a failing fault plan to a minimal reproducer.
//!
//! Two passes run to a fixpoint. First a ddmin-style structural pass
//! removes contiguous chunks of events, largest chunks first, keeping any
//! removal that still fails. Then a weakening pass replaces each surviving
//! event with a strictly weaker version (see
//! [`FaultEvent::weaken`](crate::plan::FaultEvent::weaken)) while the plan
//! keeps failing. The predicate is re-run on every candidate, so
//! the result is 1-minimal: deleting any single remaining event, or
//! weakening any remaining event one more notch, makes the failure vanish.

use crate::plan::FaultPlan;

/// Shrink `plan` against `fails` (returns `true` while the failure still
/// reproduces). `fails(plan)` must be deterministic; the original plan is
/// assumed to fail.
pub fn shrink_plan(plan: &FaultPlan, mut fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut cur = plan.clone();
    loop {
        let before = cur.clone();
        cur = remove_chunks(cur, &mut fails);
        cur = weaken_events(cur, &mut fails);
        if cur == before {
            return cur;
        }
    }
}

/// ddmin-style pass: try dropping contiguous chunks, halving the chunk
/// size whenever no chunk of the current size can be removed.
fn remove_chunks(mut plan: FaultPlan, fails: &mut impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut chunk = plan.len().max(1);
    while chunk >= 1 && !plan.is_empty() {
        let mut removed_any = false;
        let mut start = 0;
        while start < plan.len() {
            let end = (start + chunk).min(plan.len());
            let mut candidate = plan.clone();
            candidate.events.drain(start..end);
            if fails(&candidate) {
                plan = candidate;
                removed_any = true;
                // Same `start` now points at the next chunk.
            } else {
                start = end;
            }
        }
        if !removed_any {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        } else {
            chunk = chunk.min(plan.len().max(1));
        }
    }
    plan
}

/// Weakening pass: repeatedly weaken individual events while the plan
/// still fails, so the reproducer carries the mildest intensities that
/// trigger the bug.
fn weaken_events(mut plan: FaultPlan, fails: &mut impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    loop {
        let mut progressed = false;
        for i in 0..plan.len() {
            while let Some(weaker) = plan.events[i].weaken() {
                let mut candidate = plan.clone();
                candidate.events[i] = weaker.clone();
                if fails(&candidate) {
                    plan.events[i] = weaker;
                    progressed = true;
                } else {
                    break;
                }
            }
        }
        if !progressed {
            return plan;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultKind};

    fn ev(at_ms: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at_ms, kind }
    }

    #[test]
    fn shrinks_to_the_single_culprit() {
        // "Fails" iff the plan still contains the crash of worker 2.
        let plan = FaultPlan {
            events: vec![
                ev(100, FaultKind::Lie { worker: 0 }),
                ev(200, FaultKind::Drop { pct: 50, secs: 5 }),
                ev(300, FaultKind::Crash { worker: 2 }),
                ev(400, FaultKind::Skew { worker: 1, pct: 30 }),
                ev(500, FaultKind::Restart { worker: 2 }),
            ],
        };
        let culprit = |p: &FaultPlan| {
            p.events
                .iter()
                .any(|e| e.kind == FaultKind::Crash { worker: 2 })
        };
        let min = shrink_plan(&plan, culprit);
        assert_eq!(min.len(), 1);
        assert_eq!(min.events[0].kind, FaultKind::Crash { worker: 2 });
    }

    #[test]
    fn weakens_intensities_to_the_threshold() {
        // "Fails" while the drop percentage is at least 20.
        let plan = FaultPlan {
            events: vec![ev(0, FaultKind::Drop { pct: 80, secs: 8 })],
        };
        let min = shrink_plan(&plan, |p| {
            p.events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::Drop { pct, .. } if pct >= 20))
        });
        assert_eq!(min.len(), 1);
        let FaultKind::Drop { pct, .. } = min.events[0].kind else {
            panic!("kind changed during shrink");
        };
        assert!((20..40).contains(&pct), "pct={pct} not minimal");
    }

    #[test]
    fn shrink_is_deterministic() {
        let plan = FaultPlan::generate(99, 5, 60_000);
        let pred = |p: &FaultPlan| p.len() >= 2;
        let a = shrink_plan(&plan, pred);
        let b = shrink_plan(&plan, pred);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }
}
