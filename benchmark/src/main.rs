//! `gridbench` — the consumer-grid benchmark: six workloads that price
//! one job, one frame and one lookup, end to end and per layer. See
//! `README.md` beside this package for every metric and how they interact.
//!
//! ```text
//! gridbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gridbench --workload stages            # the stage walk on its own
//! gridbench --quick                      # smoke run: 2 rounds of each
//! gridbench compare <a.jsonl> <b.jsonl>  # two sets of --out lines
//! ```
//!
//! The last line of standard output is the result as one JSON object.

mod compare;
mod kernels;
mod report;
mod run;
mod stages;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::{MetricDef, RunResult, ALL_ROUNDS, END_TO_END, PER_LAYER, WORKLOADS};
use run::Options;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

struct Args {
    workload: Option<String>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    opt: Options,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        trace: false,
        quick: false,
        out: None,
        opt: Options {
            seed: 1,
            seconds: 10.0,
            rounds: None,
        },
    };
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, argv.next())?),
            "--seed" => args.opt.seed = value(&flag, argv.next())?,
            "--seconds" => args.opt.seconds = value(&flag, argv.next())?,
            "--out" => args.out = Some(value(&flag, argv.next())?),
            "--trace" => args.trace = value::<u8>(&flag, argv.next())? != 0,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.opt.seconds > 0.0 && args.opt.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Where `--trace 1` writes full spans: `out/` beside this package's
/// manifest (`cargo run` exports its directory), else under the current one.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

/// The result of one run, and whether it holds the per-layer metrics.
fn run_one<W: Workload>(args: &Args) -> (RunResult, bool) {
    if !args.trace {
        return (run::untraced::<W>(&args.opt), false);
    }
    let (result, tracer) = run::traced::<W>(&args.opt);
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", W::NAME));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(W::NAME, args.opt.seed)));
    match written {
        Ok(()) => eprintln!("spans of round 0 written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    (result, true)
}

fn dispatch(name: &str, args: &Args) -> Result<(RunResult, bool), String> {
    use workloads::{grid_farm, overlay, simnet, udp_farm};
    Ok(match name {
        "grid_farm" => run_one::<grid_farm::GridFarm>(args),
        "simnet_bulk" => run_one::<simnet::Bulk>(args),
        "simnet_compute" => run_one::<simnet::Compute>(args),
        "udp_farm" => run_one::<udp_farm::UdpFarm>(args),
        "overlay_lookup" => run_one::<overlay::Lookup>(args),
        "overlay_publish" => run_one::<overlay::Publish>(args),
        "stages" => (stages::run(), true),
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {other:?}; one of {} or stages",
                known.join(", ")
            ));
        }
    })
}

/// Run one workload, print its table and, last, its result line. An
/// untraced run also prints, and keeps in its `--out` line, the all-rounds
/// figures that carry no bound.
fn report(name: &str, args: &Args) -> Result<bool, String> {
    let (result, per_layer) = dispatch(name, args)?;
    let (table, unbounded): (_, &[MetricDef]) = if per_layer {
        (PER_LAYER, &[])
    } else {
        (END_TO_END, ALL_ROUNDS)
    };
    let shown = || table.iter().chain(unbounded);
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(
            f,
            "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}",
            args.opt.seed,
            args.trace,
            result.json_line(shown())
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "# {name} seed {} ({})",
        args.opt.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", result.table(shown()));
    println!("{}", result.json_line(table));
    Ok(result.correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        return match compare::run(&files) {
            Ok(clean) if clean => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("gridbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gridbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<String> = if args.quick {
        args.opt.rounds = Some(2);
        WORKLOADS.iter().map(|(n, _)| n.to_string()).collect()
    } else {
        match args.workload.take() {
            Some(n) => vec![n],
            None => {
                eprintln!("gridbench: --workload <name> or --quick");
                return ExitCode::from(2);
            }
        }
    };
    let mut correct = true;
    for name in &names {
        match report(name, &args) {
            Ok(ok) => correct &= ok,
            Err(e) => {
                eprintln!("gridbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("gridbench: incorrect output or failed operations, see above");
        ExitCode::FAILURE
    }
}
