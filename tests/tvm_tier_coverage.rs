//! The premise the TVM fast path rests on: every kernel this repository
//! ships runs its loops in tier 2's register regions. Stack-form dispatch
//! retires one source instruction per op and fuses nothing, so a loop that
//! tier 2 refuses runs at about a third of the speed — a kernel that falls
//! onto it should fail this test rather than slow down silently.
//!
//! Kernels kept as `const NAME: &str` literals are collected from the
//! source files themselves, so a new example or toolbox kernel is covered
//! without touching this file; kernels built by a function are taken from
//! that function.

use consumer_grid::tvm::asm::assemble;
use consumer_grid::tvm::tier::admit;
use consumer_grid::tvm::{ExecContext, Module, Op, SandboxPolicy, TierPolicy, TvmError};
use std::path::{Path, PathBuf};

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `.rs` and `.tvm` files under `dir`, recursively, in path order.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files_under(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs" || x == "tvm") {
            out.push(path);
        }
    }
}

/// The value of every `const NAME: &str = <literal>;` in `text`. Handles
/// the two literal forms the repository uses: `"…"` with `\n`, `\"`, `\\`
/// and line-continuation escapes, and `r#"…"#`.
fn str_consts(text: &str) -> Vec<(String, String)> {
    let mut found = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("const ") {
        rest = &rest[at + "const ".len()..];
        let Some((name, after)) = rest.split_once(": &str =") else {
            break;
        };
        if !name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        {
            continue;
        }
        let lit = after.trim_start();
        let value = if let Some(raw) = lit.strip_prefix("r#\"") {
            raw.split_once("\"#")
                .expect("closed raw string")
                .0
                .to_string()
        } else if let Some(body) = lit.strip_prefix('"') {
            let mut value = String::new();
            let mut chars = body.chars();
            loop {
                match chars.next().expect("closed string literal") {
                    '"' => break,
                    '\\' => match chars.next().expect("escape") {
                        'n' => value.push('\n'),
                        '\n' => {
                            // Line continuation: skip the next line's indent.
                            let tail = chars.as_str().trim_start();
                            chars = tail.chars();
                        }
                        c @ ('"' | '\\') => value.push(c),
                        c => panic!("{name}: unhandled escape \\{c}"),
                    },
                    c => value.push(c),
                }
            }
            value
        } else {
            continue;
        };
        found.push((name.to_string(), value));
    }
    found
}

/// Every module the repository ships, as `(where it came from, module)`.
fn shipped_modules() -> Vec<(String, Module)> {
    let mut modules = Vec::new();
    // Const kernels: examples, toolbox units, the E03/E04 perf kernels and
    // the Criterion bench kernels.
    let mut files = Vec::new();
    for dir in [
        "examples",
        "crates/toolbox",
        "crates/bench/src",
        "crates/bench/benches",
    ] {
        files_under(&repo().join(dir), &mut files);
    }
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source file");
        for (name, value) in str_consts(&text) {
            if value.contains(".module ") {
                let origin = format!("{}::{name}", path.strip_prefix(repo()).unwrap().display());
                let module = assemble(&value).unwrap_or_else(|e| panic!("{origin}: {e}"));
                modules.push((origin, module));
            }
        }
    }
    // The two bench kernels of the tier corpus.
    for entry in ["sph_kernel", "matched_filter"] {
        let path = repo()
            .join("crates/tvm/tests/corpus")
            .join(format!("{entry}.tvm"));
        let text = std::fs::read_to_string(&path).expect("corpus entry exists");
        modules.push((
            format!("corpus::{entry}"),
            assemble(&text).unwrap_or_else(|e| panic!("{entry}: {e}")),
        ));
    }
    // Generated kernels: E08's module set and the transport harness's.
    for (key, blob) in consumer_grid_bench::e08_code_on_demand::module_set(3) {
        modules.push((
            format!("e08::{}", key.name),
            Module::from_blob(&blob).unwrap(),
        ));
    }
    let (info, blob) = transport::harness::demo_module("Demo", 1, 8);
    modules.push((
        format!("transport::harness::{}", info.name),
        Module::from_blob(&blob).unwrap(),
    ));
    modules
}

fn back_edges(module: &Module) -> usize {
    module
        .functions
        .iter()
        .flat_map(|f| f.code.iter().enumerate())
        .filter(|&(pc, op)| matches!(*op, Op::Jmp(t) | Op::Jz(t) | Op::Jnz(t) if t as usize <= pc))
        .count()
}

#[test]
fn every_shipped_kernel_runs_its_loops_in_register_regions() {
    let modules = shipped_modules();
    let names: Vec<&str> = modules.iter().map(|(n, _)| n.as_str()).collect();
    for expected in [
        "examples/code_on_demand.rs::SMOOTHER",
        "crates/toolbox/tests/tvm_groups.rs::DOUBLER",
        "crates/toolbox/src/tvm_unit.rs::SCALER",
        "crates/bench/src/perf.rs::E03_SPH_KERNEL",
        "crates/bench/src/perf.rs::E04_MATCHED_FILTER",
    ] {
        assert!(
            names.contains(&expected),
            "{expected} not collected: {names:?}"
        );
    }
    let policy = SandboxPolicy::standard();
    let mut ctx = ExecContext::new();
    let mut with_loops = 0;
    for (origin, module) in &modules {
        let loops = back_edges(module);
        let tier =
            admit(&module.to_blob(), TierPolicy::Auto).unwrap_or_else(|e| panic!("{origin}: {e}"));
        assert_eq!(
            tier.regions_translated(),
            loops,
            "{origin}: tier 2 refused a loop; it would run unfused on the stack form"
        );
        with_loops += usize::from(loops > 0);
        let inputs: Vec<Vec<f64>> = (0..module.n_inputs)
            .map(|p| {
                (0..16)
                    .map(|i| 0.25 + f64::from(p) + f64::from(i) * 0.5)
                    .collect()
            })
            .collect();
        let slices: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        match tier.execute(&slices, &policy, &mut ctx) {
            Ok(_) => assert_eq!(
                ctx.tier2_fallbacks(),
                0,
                "{origin}: a region fell back to stack-form stepping under the standard policy"
            ),
            // The deliberately hostile spin loops run in a region until
            // the budget wall, which is the one fallback they may take.
            Err(e) => assert_eq!(e, TvmError::BudgetExceeded, "{origin}"),
        }
    }
    assert!(
        with_loops >= 8,
        "only {with_loops} looping kernels collected"
    );
}
