//! `chaos` — deterministic fault-injection sweeps over the grid.
//!
//! Usage:
//! ```text
//! chaos sweep [--seeds N] [--long] [--orch] [--routed]  # run N seeded plans (default 200)
//! chaos replay --seed S --scenario NAME --plan "PLAN" [--mutate drop-output] [--orch] [--routed]
//! ```
//!
//! `sweep` runs every seed's generated fault plan against its scenario
//! **twice** and insists the two run digests match (the determinism gate)
//! before checking invariants. It prints one `seed=… scenario=… digest=…`
//! line per seed, so two builds compare seed by seed with `cmp`. On the first failure it shrinks the plan to
//! a minimal reproducer, writes `chaos.reproducer.txt`, prints the replay
//! command, and exits 1. `replay` re-executes one exact configuration and
//! prints its full deterministic report: running the printed command twice
//! must produce byte-identical output.

use chaos::{replay_command, run_chaos, shrink_plan, ChaosConfig, FaultPlan, RunOutcome, Scenario};

const DEFAULT_SEEDS: u64 = 200;
const LONG_SEEDS: u64 = 2_000;
const REPRODUCER_FILE: &str = "chaos.reproducer.txt";

fn usage() -> ! {
    eprintln!(
        "usage:\n  chaos sweep [--seeds N] [--long] [--orch] [--routed]\n  chaos replay --seed S \
         --scenario NAME --plan \"PLAN\" [--mutate drop-output] [--orch] [--routed]"
    );
    std::process::exit(2)
}

fn write_reproducer(cfg: &ChaosConfig, out: &RunOutcome, original: Option<&ChaosConfig>) {
    let mut text = String::new();
    if let Some(orig) = original {
        text.push_str(&format!("original plan: {}\n", orig.plan));
    }
    text.push_str(&format!("minimal plan:  {}\n", cfg.plan));
    text.push_str(&format!("replay:        {}\n\n", replay_command(cfg)));
    text.push_str(&out.report);
    if let Err(e) = std::fs::write(REPRODUCER_FILE, &text) {
        eprintln!("cannot write {REPRODUCER_FILE}: {e}");
    } else {
        println!("reproducer written to {REPRODUCER_FILE}");
    }
}

fn sweep(seeds: u64, orch: bool, routed: bool) -> i32 {
    let mut tally = [0u64; 3];
    for seed in 0..seeds {
        let cfg = if orch {
            ChaosConfig::from_seed_orch(seed)
        } else if routed {
            ChaosConfig::from_seed_routed(seed)
        } else {
            ChaosConfig::from_seed(seed)
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        if a.digest != b.digest || a.report != b.report {
            println!(
                "seed {seed} ({}): NON-DETERMINISTIC — digests {:016x} vs {:016x}",
                cfg.scenario.name(),
                a.digest,
                b.digest
            );
            // A nondeterministic run cannot be shrunk reliably; ship the
            // full configuration as the reproducer.
            write_reproducer(&cfg, &a, None);
            println!("replay: {}", replay_command(&cfg));
            return 1;
        }
        println!(
            "seed={seed} scenario={} digest={:016x}",
            cfg.scenario.name(),
            a.digest
        );
        if !a.ok() {
            println!(
                "seed {seed} ({}): {} violation(s)",
                cfg.scenario.name(),
                a.violations.len()
            );
            for v in &a.violations {
                println!("  {v}");
            }
            let shrunk = shrink_plan(&cfg.plan, |p| {
                let candidate = ChaosConfig {
                    plan: p.clone(),
                    ..cfg.clone()
                };
                !run_chaos(&candidate).ok()
            });
            let min_cfg = ChaosConfig {
                plan: shrunk,
                ..cfg.clone()
            };
            let min_out = run_chaos(&min_cfg);
            println!(
                "shrunk {} event(s) -> {} event(s)",
                cfg.plan.len(),
                min_cfg.plan.len()
            );
            write_reproducer(&min_cfg, &min_out, Some(&cfg));
            println!("replay: {}", replay_command(&min_cfg));
            return 1;
        }
        let i = match cfg.scenario {
            Scenario::Farm => 0,
            Scenario::Pipeline => 1,
            Scenario::Voting => 2,
        };
        tally[i] += 1;
    }
    println!(
        "chaos sweep{}: {seeds} seeds green, deterministic (farm={} pipeline={} voting={})",
        match (orch, routed) {
            (true, _) => " [orch]",
            (false, true) => " [routed]",
            (false, false) => "",
        },
        tally[0],
        tally[1],
        tally[2]
    );
    0
}

fn replay(args: &[String]) -> i32 {
    let mut seed: Option<u64> = None;
    let mut scenario: Option<Scenario> = None;
    let mut plan: Option<FaultPlan> = None;
    let mut mutate = false;
    let mut orch = false;
    let mut routed = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok());
                if seed.is_none() {
                    usage();
                }
            }
            "--scenario" => {
                i += 1;
                scenario = args.get(i).and_then(|s| Scenario::parse(s));
                if scenario.is_none() {
                    usage();
                }
            }
            "--plan" => {
                i += 1;
                match args.get(i).map(|s| s.parse::<FaultPlan>()) {
                    Some(Ok(p)) => plan = Some(p),
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        return 2;
                    }
                    None => usage(),
                }
            }
            "--mutate" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("drop-output") => mutate = true,
                    _ => usage(),
                }
            }
            "--orch" => orch = true,
            "--routed" => routed = true,
            _ => usage(),
        }
        i += 1;
    }
    let (Some(seed), Some(scenario), Some(plan)) = (seed, scenario, plan) else {
        usage()
    };
    let cfg = ChaosConfig {
        seed,
        scenario,
        plan,
        mutate_drop_output: mutate,
        orch,
        routed,
    };
    let out = run_chaos(&cfg);
    print!("{}", out.report);
    println!("digest={:016x}", out.digest);
    if out.ok() {
        println!("result: OK");
        0
    } else {
        println!("result: FAIL ({} violation(s))", out.violations.len());
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("sweep") => {
            let rest = &args[1..];
            let mut seeds = DEFAULT_SEEDS;
            let mut orch = false;
            let mut routed = false;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--long" => seeds = seeds.max(LONG_SEEDS),
                    "--orch" => orch = true,
                    "--routed" => routed = true,
                    "--seeds" => {
                        i += 1;
                        match rest.get(i).and_then(|s| s.parse().ok()) {
                            Some(n) => seeds = n,
                            None => usage(),
                        }
                    }
                    _ => usage(),
                }
                i += 1;
            }
            sweep(seeds, orch, routed)
        }
        Some("replay") => replay(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code)
}
