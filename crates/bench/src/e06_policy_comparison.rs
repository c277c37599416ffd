//! E6 — §3.3: the two distribution policies compared.
//!
//! Paper: "There are two distribution policies currently implemented in
//! Triana, parallel and peer to peer. Parallel is a farming out mechanism
//! and generally involves no communication between hosts. Peer to Peer
//! means distributing the group vertically i.e. each unit in the group is
//! distributed onto a separate resource and data is passed between them."
//!
//! Reproduction: the same 4-stage group (fixed total work per token) run
//! both ways on the same LAN peers. Shape to match: both policies reach
//! similar steady-state throughput with k peers; the pipeline adds
//! per-token latency (a token crosses every host) while parallel keeps
//! latency at one group execution; parallel moves less intermediate data.

use crate::table;
use netsim::avail::AvailabilityTrace;
use netsim::{Duration, HostSpec, SimTime};
use p2p::DiscoveryMode;
use triana_core::grid::farm::{run_farm, FarmConfig, FarmScheduler, JobSpec};
use triana_core::grid::pipeline::{run_pipeline, PipelineScheduler, StageSpec};
use triana_core::grid::{GridWorld, WorkerSetup};

/// Results for one policy run.
#[derive(Clone, Copy, Debug)]
pub struct PolicyOutcome {
    pub throughput_tokens_per_s: f64,
    pub mean_latency_s: f64,
    pub bytes_moved: u64,
}

/// Workload: `stages` units of `stage_work` gigacycles each, `tokens`
/// tokens of `token_bytes` each, on `stages` LAN peers.
pub struct Workload {
    pub stages: usize,
    pub stage_work: f64,
    pub tokens: u64,
    pub token_bytes: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            stages: 4,
            stage_work: 2.0, // 1 s per stage on a 2 GHz host
            tokens: 40,
            token_bytes: 100_000,
        }
    }
}

/// Peer-to-peer (vertical pipeline) execution.
pub fn run_peer_to_peer(w: &Workload) -> PolicyOutcome {
    let mut world = GridWorld::new(6, DiscoveryMode::Flooding);
    let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
    let stages: Vec<StageSpec> = (0..w.stages)
        .map(|_| {
            let spec = HostSpec::lan_workstation();
            let (peer, _) = world.add_peer(spec.clone());
            StageSpec {
                peer,
                spec,
                work_gigacycles: w.stage_work,
            }
        })
        .collect();
    let mut pl = PipelineScheduler::new(&mut world, ctrl, "e6", stages, w.token_bytes);
    pl.emit_tokens(&mut world, w.tokens, Duration::ZERO);
    run_pipeline(&mut world, &mut pl);
    assert!(pl.all_done(), "pipeline must drain");
    let st = pl.stats();
    PolicyOutcome {
        throughput_tokens_per_s: st.throughput(),
        mean_latency_s: st.mean_latency().as_secs_f64(),
        bytes_moved: world.net.stats().bytes,
    }
}

/// Parallel (farm-out) execution of whole-group clones.
pub fn run_parallel(w: &Workload) -> PolicyOutcome {
    let mut world = GridWorld::new(7, DiscoveryMode::Flooding);
    let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
    let mut farm = FarmScheduler::new(&world, ctrl, FarmConfig::default());
    let horizon = SimTime::from_secs(1_000_000);
    for _ in 0..w.stages {
        let spec = HostSpec::lan_workstation();
        let (peer, _) = world.add_peer(spec.clone());
        farm.add_worker(
            &mut world,
            WorkerSetup {
                peer,
                spec,
                trace: AvailabilityTrace::always(horizon),
                cache_bytes: 16 << 20,
            },
        );
    }
    for _ in 0..w.tokens {
        farm.submit(
            &mut world,
            JobSpec {
                work_gigacycles: w.stage_work * w.stages as f64,
                input_bytes: w.token_bytes,
                output_bytes: w.token_bytes,
                module: None,
            },
        );
    }
    run_farm(&mut world, &mut farm);
    assert!(farm.all_done(), "farm must drain");
    let st = farm.stats();
    PolicyOutcome {
        throughput_tokens_per_s: st.jobs_done as f64 / st.makespan.as_secs_f64(),
        mean_latency_s: st.total_latency.as_secs_f64() / st.jobs_done as f64,
        bytes_moved: world.net.stats().bytes,
    }
}

/// Sweep over stage counts (both policies get `stages` peers).
pub fn sweep(stage_counts: &[usize]) -> Vec<(usize, PolicyOutcome, PolicyOutcome)> {
    stage_counts
        .iter()
        .map(|&stages| {
            let w = Workload {
                stages,
                ..Workload::default()
            };
            (stages, run_peer_to_peer(&w), run_parallel(&w))
        })
        .collect()
}

pub fn report() -> String {
    let w = Workload::default();
    let p2p = run_peer_to_peer(&w);
    let par = run_parallel(&w);
    let rows = vec![
        vec![
            "peer-to-peer".to_string(),
            table::f(p2p.throughput_tokens_per_s, 3),
            table::f(p2p.mean_latency_s, 2),
            p2p.bytes_moved.to_string(),
        ],
        vec![
            "parallel".to_string(),
            table::f(par.throughput_tokens_per_s, 3),
            table::f(par.mean_latency_s, 2),
            par.bytes_moved.to_string(),
        ],
    ];
    let sweep_rows: Vec<Vec<String>> = sweep(&[2, 4, 8])
        .into_iter()
        .map(|(stages, p, f)| {
            vec![
                stages.to_string(),
                table::f(p.throughput_tokens_per_s, 3),
                table::f(f.throughput_tokens_per_s, 3),
                table::f(p.mean_latency_s, 2),
                table::f(f.mean_latency_s, 2),
                table::f(p.bytes_moved as f64 / f.bytes_moved as f64, 2),
            ]
        })
        .collect();
    format!(
        "E6  Distribution policies: {} stages x {:.1} Gc, {} tokens of {} B on {} LAN peers\n\n{}\n\
         stage-count sweep (same peers for both policies):\n{}",
        w.stages,
        w.stage_work,
        w.tokens,
        w.token_bytes,
        w.stages,
        table::render(
            &["policy", "tokens/s", "mean lat s", "bytes moved"],
            &rows
        ),
        table::render(
            &["stages", "p2p tok/s", "farm tok/s", "p2p lat", "farm lat", "bytes x"],
            &sweep_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughputs_are_comparable_with_equal_peers() {
        let w = Workload::default();
        let p2p = run_peer_to_peer(&w);
        let par = run_parallel(&w);
        let ratio = p2p.throughput_tokens_per_s / par.throughput_tokens_per_s;
        assert!(
            (0.5..2.0).contains(&ratio),
            "throughput ratio {ratio}: p2p {} vs par {}",
            p2p.throughput_tokens_per_s,
            par.throughput_tokens_per_s
        );
    }

    #[test]
    fn pipeline_latency_exceeds_parallel_latency_per_token() {
        // Parallel: a token's latency is queue wait + one group execution.
        // Pipeline under continuous load queues at every stage, so
        // in-flight latency is at least the full pipeline traversal; with
        // burst emission it is strictly larger than the farm's.
        let w = Workload {
            tokens: 12,
            ..Workload::default()
        };
        let p2p = run_peer_to_peer(&w);
        let par = run_parallel(&w);
        assert!(
            p2p.mean_latency_s > par.mean_latency_s,
            "pipeline {} vs parallel {}",
            p2p.mean_latency_s,
            par.mean_latency_s
        );
    }

    #[test]
    fn sweep_shapes_hold_across_stage_counts() {
        for (stages, p2p, par) in sweep(&[2, 8]) {
            let ratio = p2p.throughput_tokens_per_s / par.throughput_tokens_per_s;
            assert!(
                (0.4..2.5).contains(&ratio),
                "{stages} stages: throughput ratio {ratio}"
            );
            assert!(
                p2p.mean_latency_s >= par.mean_latency_s * 0.8,
                "{stages} stages: pipeline latency should not be far below farm"
            );
            let bytes_ratio = p2p.bytes_moved as f64 / par.bytes_moved as f64;
            let expect = (stages as f64 + 1.0) / 2.0;
            assert!(
                (bytes_ratio - expect).abs() / expect < 0.25,
                "{stages} stages: bytes ratio {bytes_ratio} vs {expect}"
            );
        }
    }

    #[test]
    fn parallel_involves_no_inter_host_communication() {
        // The paper: parallel "generally involves no communication between
        // hosts" — all its bytes are controller<->worker. Pipeline moves
        // each token across every stage boundary, so with equal token
        // counts it shifts more intermediate data per token than the
        // farm's 2 transfers (in + out).
        let w = Workload::default();
        let p2p = run_peer_to_peer(&w);
        let par = run_parallel(&w);
        // p2p: (stages + 1) hops per token; parallel: 2 hops per token.
        let expected_ratio = (w.stages as f64 + 1.0) / 2.0;
        let actual = p2p.bytes_moved as f64 / par.bytes_moved as f64;
        assert!(
            (actual - expected_ratio).abs() / expected_ratio < 0.25,
            "bytes ratio {actual}, expected ~{expected_ratio}"
        );
    }
}
