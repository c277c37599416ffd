//! `consumer-grid-bench` — the experiment reproduction harness.
//!
//! One module per experiment in DESIGN.md's index (E1–E15). Each module
//! exposes a structured `rows()`-style function (used by tests to check the
//! *shape* of the result against the paper's claims) and a `report()`
//! string (printed by the `repro` binary). EXPERIMENTS.md records
//! paper-vs-measured for every entry.

pub mod e01_figure2_snr;
pub mod e02_taskgraph_overhead;
pub mod e03_galaxy_speedup;
pub mod e04_inspiral_realtime;
pub mod e05_discovery_scalability;
pub mod e06_policy_comparison;
pub mod e07_seti_aggregate;
pub mod e08_code_on_demand;
pub mod e09_admin_cost;
pub mod e10_checkpointing;
pub mod e11_service_pipeline;
pub mod e12_redundancy;
pub mod e13_adaptive_scheduling;
pub mod e14_decentralised_orch;
pub mod e15_overlay_scale;
pub mod smoke;
pub mod table;
