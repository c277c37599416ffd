//! Distributed group execution: real results, simulated timing.
//!
//! "Triana can seamlessly distribute modules and entire jobs across a
//! network of compute resources" (§2). This module is the seam: it takes a
//! validated task graph, a group, a distribution plan, and a stream of
//! input tokens, then
//!
//! * computes the group's **actual outputs** by running the member units'
//!   real `process` implementations (a per-clone mini-engine over the
//!   group's internal topology), and
//! * obtains the **timing** by driving the corresponding scheduler in the
//!   discrete-event world (farm jobs sized by the units' calibrated work
//!   estimates, transfers by real token sizes).
//!
//! The result pairs every output token with the simulated instant it would
//! have arrived back at the controller.

use netsim::{Duration, SimTime};

use crate::data::TrianaData;
use crate::graph::{GraphError, GroupId, TaskGraph, TaskId};
use crate::grid::farm::{run_farm, FarmConfig, FarmScheduler, JobSpec};
use crate::grid::pipeline::{run_pipeline, PipelineScheduler, StageSpec};
use crate::grid::{GridWorld, JobId, WorkerSetup};
use crate::rewrite::{
    group_job_spec, plan_parallel, plan_peer_to_peer, DistributedPlan, PlanError,
};
use crate::unit::{UnitError, UnitRegistry};

/// One completed token: the real output values plus simulated latency.
#[derive(Debug)]
pub struct TokenResult {
    /// Outputs at the group's boundary output ports, in boundary order.
    pub outputs: Vec<TrianaData>,
    /// Simulated controller-to-controller latency.
    pub latency: Duration,
    /// Simulated completion instant.
    pub completed_at: SimTime,
}

/// Outcome of a distributed group run.
#[derive(Debug)]
pub struct GroupRun {
    pub tokens: Vec<TokenResult>,
    pub makespan: SimTime,
    pub plan: DistributedPlan,
}

/// Execution failure.
#[derive(Debug)]
pub enum ExecError {
    Plan(PlanError),
    Unit(UnitError),
    /// The group must have exactly one incoming boundary cable to accept a
    /// token stream.
    BadBoundary {
        incoming: usize,
    },
    /// The simulation ended before every token completed.
    Incomplete {
        done: usize,
        total: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Plan(e) => write!(f, "{e}"),
            ExecError::Unit(e) => write!(f, "{e}"),
            ExecError::BadBoundary { incoming } => {
                write!(f, "group needs exactly 1 incoming cable, has {incoming}")
            }
            ExecError::Incomplete { done, total } => {
                write!(f, "only {done}/{total} tokens completed")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

impl From<UnitError> for ExecError {
    fn from(e: UnitError) -> Self {
        ExecError::Unit(e)
    }
}

/// Run the group's member units on one token, following internal cables
/// from the boundary input; returns boundary outputs. Fresh unit instances
/// per call (farmed clones are stateless by construction — each clone
/// processes disjoint tokens).
fn compute_group_output(
    graph: &TaskGraph,
    registry: &UnitRegistry,
    gid: GroupId,
    entry: (TaskId, usize),
    token: &TrianaData,
) -> Result<Vec<TrianaData>, ExecError> {
    let group = graph.group(gid).expect("validated by caller");
    let members: Vec<TaskId> = group.members.clone();
    let internal = graph.group_internal_cables(gid);
    let (_, outgoing) = graph.group_boundary(gid);
    // Token buffers per (task, input port).
    let mut inbox: std::collections::BTreeMap<(TaskId, usize), TrianaData> =
        std::collections::BTreeMap::new();
    inbox.insert(entry, token.clone());
    // Fire members in topological order.
    let order: Vec<TaskId> = graph
        .topo_order()
        .map_err(PlanError::from)?
        .into_iter()
        .filter(|t| members.contains(t))
        .collect();
    let mut boundary_out: Vec<TrianaData> = Vec::new();
    for tid in order {
        let task = graph.task(tid).expect("validated");
        let mut unit = registry.create(&task.unit_type, &task.params)?;
        let mut inputs = Vec::with_capacity(task.n_in);
        for port in 0..task.n_in {
            let tok = inbox.remove(&(tid, port)).ok_or_else(|| {
                ExecError::Unit(UnitError::Runtime(format!(
                    "group member {}:{port} has no token (multi-entry groups \
                     need one token per boundary input)",
                    task.name
                )))
            })?;
            inputs.push(tok);
        }
        let outputs = unit.process(inputs)?;
        for (port, out_tok) in outputs.into_iter().enumerate() {
            let mut consumed = false;
            for c in &internal {
                if c.from == (tid, port) {
                    inbox.insert(c.to, out_tok.clone());
                    consumed = true;
                }
            }
            for c in &outgoing {
                if c.from == (tid, port) {
                    boundary_out.push(out_tok.clone());
                    consumed = true;
                }
            }
            if !consumed {
                // Unconnected member output: still part of the result.
                boundary_out.push(out_tok);
            }
        }
    }
    Ok(boundary_out)
}

/// Validate the graph and resolve the group's single token-entry port.
fn single_entry(graph: &TaskGraph, gid: GroupId) -> Result<(TaskId, usize), ExecError> {
    graph.validate().map_err(PlanError::from)?;
    let (incoming, _) = graph.group_boundary(gid);
    if incoming.len() != 1 {
        return Err(ExecError::BadBoundary {
            incoming: incoming.len(),
        });
    }
    Ok(incoming[0].to)
}

/// Run every token through the group's real units up front (both policies
/// compute results eagerly; only the timing differs).
fn compute_all_outputs(
    graph: &TaskGraph,
    registry: &UnitRegistry,
    gid: GroupId,
    entry: (TaskId, usize),
    tokens: &[TrianaData],
) -> Result<Vec<Vec<TrianaData>>, ExecError> {
    let mut outputs = Vec::with_capacity(tokens.len());
    for t in tokens {
        outputs.push(compute_group_output(graph, registry, gid, entry, t)?);
    }
    Ok(outputs)
}

/// Pair each token's real outputs with its simulated latency. All tokens
/// enter at t=0, so the completion instant equals the latency; a missing
/// latency means the simulation ended before that token finished.
fn collect_results(
    outputs: Vec<Vec<TrianaData>>,
    latency_of: impl Fn(usize) -> Option<Duration>,
) -> Result<Vec<TokenResult>, ExecError> {
    let total = outputs.len();
    let mut results = Vec::with_capacity(total);
    for (i, outs) in outputs.into_iter().enumerate() {
        match latency_of(i) {
            Some(latency) => results.push(TokenResult {
                outputs: outs,
                latency,
                completed_at: SimTime::ZERO + latency,
            }),
            None => {
                return Err(ExecError::Incomplete {
                    done: results.len(),
                    total,
                })
            }
        }
    }
    Ok(results)
}

/// Farm a parallel group over `workers` (already enrolled in the world),
/// computing real outputs and simulated latencies for `tokens`.
#[allow(clippy::too_many_arguments)] // one call site per experiment; a builder would obscure the seam
pub fn execute_group_parallel(
    world: &mut GridWorld,
    graph: &TaskGraph,
    registry: &UnitRegistry,
    gid: GroupId,
    controller: p2p::PeerId,
    workers: Vec<WorkerSetup>,
    tokens: Vec<TrianaData>,
    cfg: FarmConfig,
) -> Result<GroupRun, ExecError> {
    let entry = single_entry(graph, gid)?;
    let peers: Vec<p2p::PeerId> = workers.iter().map(|w| w.peer).collect();
    let plan = plan_parallel(graph, gid, &peers)?;

    // Real results, computed up front (clone semantics: stateless).
    let outputs = compute_all_outputs(graph, registry, gid, entry, &tokens)?;

    // Simulated timing via the farm.
    let mut farm = FarmScheduler::new(world, controller, cfg);
    for w in workers {
        farm.add_worker(world, w);
    }
    let mut job_ids: Vec<JobId> = Vec::with_capacity(tokens.len());
    for (t, outs) in tokens.iter().zip(&outputs) {
        let mut spec: JobSpec = group_job_spec(graph, registry, gid, t)?;
        spec.output_bytes = outs.iter().map(TrianaData::wire_size).sum::<u64>().max(1);
        job_ids.push(farm.submit(world, spec));
    }
    run_farm(world, &mut farm);

    let results = collect_results(outputs, |i| farm.job_latency(job_ids[i]))?;
    let makespan = farm.stats().makespan;
    Ok(GroupRun {
        tokens: results,
        makespan,
        plan,
    })
}

/// Run a peer-to-peer group as a pipeline over `stage_peers` (one per
/// member task, in topological order), computing real outputs and simulated
/// per-token latencies.
pub fn execute_group_pipeline(
    world: &mut GridWorld,
    graph: &TaskGraph,
    registry: &UnitRegistry,
    gid: GroupId,
    controller: p2p::PeerId,
    stage_peers: &[p2p::PeerId],
    tokens: Vec<TrianaData>,
) -> Result<GroupRun, ExecError> {
    let entry = single_entry(graph, gid)?;
    let plan = plan_peer_to_peer(graph, gid, stage_peers)?;

    // Real results, token by token (chain semantics are per-token).
    let outputs = compute_all_outputs(graph, registry, gid, entry, &tokens)?;

    // Simulated timing: one stage per assignment, work from the member
    // unit's calibrated estimate on the first token (uniform stream).
    let probe = tokens.first().cloned().unwrap_or(TrianaData::Scalar(0.0));
    let mut stages = Vec::with_capacity(plan.assignments.len());
    for a in &plan.assignments {
        let task = graph.task(a.tasks[0]).map_err(PlanError::from)?;
        let unit = registry
            .create(&task.unit_type, &task.params)
            .map_err(GraphError::Unit)
            .map_err(PlanError::from)?;
        let inputs: Vec<TrianaData> = (0..task.n_in.max(1)).map(|_| probe.clone()).collect();
        let spec = world.net.spec(world.p2p.host_of(a.peer)).clone();
        stages.push(StageSpec {
            peer: a.peer,
            spec,
            work_gigacycles: unit.work_estimate(&inputs),
        });
    }
    let token_bytes = tokens.iter().map(TrianaData::wire_size).max().unwrap_or(1);
    let mut pl = PipelineScheduler::new(
        world,
        controller,
        &format!("{}-{}", graph.name, gid.0),
        stages,
        token_bytes,
    );
    pl.emit_tokens(world, tokens.len() as u64, Duration::ZERO);
    run_pipeline(world, &mut pl);

    let results = collect_results(outputs, |i| pl.token_latency(i as u64))?;
    let makespan = pl.stats().last_done;
    Ok(GroupRun {
        tokens: results,
        makespan,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_graph, EngineConfig};
    use crate::graph::DistributionPolicy;
    use crate::unit::test_units::test_registry;
    use crate::unit::Params;
    use netsim::avail::AvailabilityTrace;
    use netsim::HostSpec;
    use p2p::DiscoveryMode;

    /// Counter -> [Scale x2 -> Scale x10] (group) -> sink
    fn build() -> (TaskGraph, GroupId, UnitRegistry) {
        let reg = test_registry();
        let mut g = TaskGraph::new("dist");
        let c = g.add_task(&reg, "Counter", "src", Params::new()).unwrap();
        let s1 = g
            .add_task(
                &reg,
                "Scale",
                "x2",
                Params::from([("k".to_string(), "2".to_string())]),
            )
            .unwrap();
        let s2 = g
            .add_task(
                &reg,
                "Scale",
                "x10",
                Params::from([("k".to_string(), "10".to_string())]),
            )
            .unwrap();
        let sink = g.add_task(&reg, "Scale", "sink", Params::new()).unwrap();
        g.connect(c, 0, s1, 0).unwrap();
        g.connect(s1, 0, s2, 0).unwrap();
        g.connect(s2, 0, sink, 0).unwrap();
        let gid = g
            .add_group("grp", vec![s1, s2], DistributionPolicy::Parallel)
            .unwrap();
        (g, gid, reg)
    }

    fn lan_workers(world: &mut GridWorld, k: usize) -> Vec<WorkerSetup> {
        let horizon = SimTime::from_secs(1_000_000);
        (0..k)
            .map(|_| {
                let spec = HostSpec::lan_workstation();
                let (peer, _) = world.add_peer(spec.clone());
                WorkerSetup {
                    peer,
                    spec,
                    trace: AvailabilityTrace::always(horizon),
                    cache_bytes: 1 << 20,
                }
            })
            .collect()
    }

    #[test]
    fn distributed_results_match_local_engine() {
        let (g, gid, reg) = build();
        // Local reference: run the full graph 5 iterations; the group maps
        // i -> 20*i, so sink sees 0,20,40,60,80.
        let local = run_graph(
            &g,
            &reg,
            &EngineConfig {
                iterations: 5,
                threaded: false,
            },
        )
        .unwrap();
        let expected: Vec<&TrianaData> = local.of(&g, "sink").iter().collect();

        // Distributed: same tokens through the farmed group.
        let mut world = GridWorld::new(61, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
        let workers = lan_workers(&mut world, 3);
        let tokens: Vec<TrianaData> = (0..5).map(|i| TrianaData::Scalar(i as f64)).collect();
        let run = execute_group_parallel(
            &mut world,
            &g,
            &reg,
            gid,
            ctrl,
            workers,
            tokens,
            FarmConfig::default(),
        )
        .unwrap();
        assert_eq!(run.tokens.len(), 5);
        for (i, tr) in run.tokens.iter().enumerate() {
            assert_eq!(tr.outputs.len(), 1);
            assert_eq!(&&tr.outputs[0], &expected[i], "token {i}");
            assert!(tr.latency > Duration::ZERO);
        }
        assert!(run.makespan > SimTime::ZERO);
        assert_eq!(run.plan.assignments.len(), 3);
    }

    #[test]
    fn more_workers_shrink_makespan_with_same_results() {
        let (g, gid, reg) = build();
        let run_with = |k: usize| {
            let mut world = GridWorld::new(62, DiscoveryMode::Flooding);
            let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
            let workers = lan_workers(&mut world, k);
            let tokens: Vec<TrianaData> = (0..12)
                .map(|i| TrianaData::SampleSet {
                    rate_hz: 1.0,
                    samples: vec![i as f64; 50_000],
                })
                .collect();
            execute_group_parallel(
                &mut world,
                &g,
                &reg,
                gid,
                ctrl,
                workers,
                tokens,
                FarmConfig::default(),
            )
        };
        // Scale expects scalars, not sample sets: the computation itself
        // fails — which proves result computation is real, not faked.
        assert!(matches!(run_with(2), Err(ExecError::Unit(_))));
        // With scalar tokens it works, and 4 workers beat 1.
        let scalar_run = |k: usize| {
            let mut world = GridWorld::new(63, DiscoveryMode::Flooding);
            let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
            let workers = lan_workers(&mut world, k);
            let tokens: Vec<TrianaData> = (0..12).map(|i| TrianaData::Scalar(i as f64)).collect();
            execute_group_parallel(
                &mut world,
                &g,
                &reg,
                gid,
                ctrl,
                workers,
                tokens,
                FarmConfig::default(),
            )
            .unwrap()
            .makespan
        };
        let m1 = scalar_run(1);
        let m4 = scalar_run(4);
        assert!(m4 < m1, "4 workers {m4:?} vs 1 worker {m1:?}");
    }

    #[test]
    fn multi_entry_group_rejected() {
        let reg = test_registry();
        let mut g = TaskGraph::new("multi");
        let c1 = g.add_task(&reg, "Counter", "c1", Params::new()).unwrap();
        let c2 = g.add_task(&reg, "Counter", "c2", Params::new()).unwrap();
        let add = g.add_task(&reg, "Add", "add", Params::new()).unwrap();
        g.connect(c1, 0, add, 0).unwrap();
        g.connect(c2, 0, add, 1).unwrap();
        let gid = g
            .add_group("grp", vec![add], DistributionPolicy::Parallel)
            .unwrap();
        let mut world = GridWorld::new(64, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
        let workers = lan_workers(&mut world, 1);
        let r = execute_group_parallel(
            &mut world,
            &g,
            &reg,
            gid,
            ctrl,
            workers,
            vec![TrianaData::Scalar(1.0)],
            FarmConfig::default(),
        );
        assert!(matches!(r, Err(ExecError::BadBoundary { incoming: 2 })));
    }
}

#[cfg(test)]
mod pipeline_exec_tests {
    use super::*;
    use crate::engine::{run_graph, EngineConfig};
    use crate::graph::DistributionPolicy;
    use crate::unit::test_units::test_registry;
    use crate::unit::Params;
    use netsim::HostSpec;
    use p2p::DiscoveryMode;

    #[test]
    fn pipeline_results_match_local_engine() {
        let reg = test_registry();
        let mut g = TaskGraph::new("chainjob");
        let c = g.add_task(&reg, "Counter", "src", Params::new()).unwrap();
        let s1 = g
            .add_task(
                &reg,
                "Scale",
                "x3",
                Params::from([("k".to_string(), "3".to_string())]),
            )
            .unwrap();
        let s2 = g
            .add_task(
                &reg,
                "Scale",
                "x7",
                Params::from([("k".to_string(), "7".to_string())]),
            )
            .unwrap();
        let sink = g.add_task(&reg, "Scale", "sink", Params::new()).unwrap();
        g.connect(c, 0, s1, 0).unwrap();
        g.connect(s1, 0, s2, 0).unwrap();
        g.connect(s2, 0, sink, 0).unwrap();
        let gid = g
            .add_group("chain", vec![s1, s2], DistributionPolicy::PeerToPeer)
            .unwrap();

        let local = run_graph(
            &g,
            &reg,
            &EngineConfig {
                iterations: 6,
                threaded: false,
            },
        )
        .unwrap();
        let expected: Vec<&TrianaData> = local.of(&g, "sink").iter().collect();

        let mut world = GridWorld::new(95, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
        let stage_peers: Vec<p2p::PeerId> = (0..2)
            .map(|_| world.add_peer(HostSpec::lan_workstation()).0)
            .collect();
        let tokens: Vec<TrianaData> = (0..6).map(|i| TrianaData::Scalar(i as f64)).collect();
        let run =
            execute_group_pipeline(&mut world, &g, &reg, gid, ctrl, &stage_peers, tokens).unwrap();
        assert_eq!(run.tokens.len(), 6);
        for (i, tr) in run.tokens.iter().enumerate() {
            assert_eq!(&&tr.outputs[0], &expected[i], "token {i}: 21*i expected");
            assert!(tr.latency > Duration::ZERO);
        }
        assert_eq!(run.plan.assignments.len(), 2);
    }

    #[test]
    fn pipeline_exec_requires_enough_stage_peers() {
        let reg = test_registry();
        let mut g = TaskGraph::new("short");
        let c = g.add_task(&reg, "Counter", "src", Params::new()).unwrap();
        let s1 = g.add_task(&reg, "Scale", "a", Params::new()).unwrap();
        let s2 = g.add_task(&reg, "Scale", "b", Params::new()).unwrap();
        g.connect(c, 0, s1, 0).unwrap();
        g.connect(s1, 0, s2, 0).unwrap();
        let gid = g
            .add_group("chain", vec![s1, s2], DistributionPolicy::PeerToPeer)
            .unwrap();
        let mut world = GridWorld::new(96, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
        let (only, _) = world.add_peer(HostSpec::lan_workstation());
        let r = execute_group_pipeline(
            &mut world,
            &g,
            &reg,
            gid,
            ctrl,
            &[only],
            vec![TrianaData::Scalar(1.0)],
        );
        assert!(matches!(
            r,
            Err(ExecError::Plan(
                crate::rewrite::PlanError::NotEnoughPeers { .. }
            ))
        ));
    }
}
