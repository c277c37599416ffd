//! Adversarial regression corpus: committed `.tvm` programs whose shapes
//! are chosen to stress tier-2 region translation — zero-trip loops,
//! bodies with varying stack depth, back-edges straddling region
//! boundaries, deep nested calls, value-numbering traps, near misses of
//! the fold and map shapes (all of which run in stack form) — plus the
//! three bench kernels. Every program runs as a `PreparedModule` and
//! under the reference interpreter (`execute`) across a policy matrix, and
//! the two must agree bit for bit on outputs, `ExecStats`, and typed
//! errors.
//!
//! To add an entry: drop a `.tvm` file in `tests/corpus/` (leading `;`
//! comment explaining what it stresses) — the runner picks it up by glob.

use tvm::asm::assemble;
use tvm::{execute, ExecContext, Module, PreparedModule, SandboxPolicy, TvmError};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

fn load_corpus() -> Vec<(String, Module)> {
    let mut entries: Vec<(String, Module)> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(|e| {
            let path = e.expect("readable dir entry").path();
            if path.extension().is_some_and(|x| x == "tvm") {
                let name = path.file_stem().unwrap().to_string_lossy().into_owned();
                let src = std::fs::read_to_string(&path).expect("readable corpus file");
                let module = assemble(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
                Some((name, module))
            } else {
                None
            }
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(entries.len() >= 8, "corpus unexpectedly small");
    entries
}

/// Deterministic input buffers sized for a module's port count.
fn inputs_for(module: &Module, len: usize) -> Vec<Vec<f64>> {
    (0..module.n_inputs)
        .map(|p| {
            (0..len)
                .map(|i| ((p as f64 + 1.0) * 0.37 + i as f64 * 0.61).sin() * 8.0)
                .collect()
        })
        .collect()
}

fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|port| port.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn errs_eq(a: &TvmError, b: &TvmError) -> bool {
    match (a, b) {
        (
            TvmError::IndexOutOfBounds {
                port: p1,
                index: i1,
            },
            TvmError::IndexOutOfBounds {
                port: p2,
                index: i2,
            },
        ) => p1 == p2 && i1.to_bits() == i2.to_bits(),
        _ => a == b,
    }
}

/// Agreement with the reference interpreter for one (module, inputs,
/// policy) cell, twice through one context to cover its reuse.
fn assert_matches_reference(
    name: &str,
    module: &Module,
    inputs: &[&[f64]],
    policy: &SandboxPolicy,
) {
    let reference = execute(module, inputs, policy);
    let prepared = PreparedModule::prepare(module).expect("corpus modules verify");
    let mut ctx = ExecContext::new();
    for round in 0..2 {
        let fast = prepared.execute(inputs, policy, &mut ctx);
        let same = match (&reference, &fast) {
            (Ok((lo, ls)), Ok((fo, fs))) => bits(lo) == bits(fo) && ls == fs,
            (Err(a), Err(b)) => errs_eq(a, b),
            _ => false,
        };
        assert!(
            same,
            "{name} under {policy:?} diverged in round {round}:\n  reference = {reference:?}\n  prepared = {fast:?}"
        );
    }
}

/// The policy matrix: the standard sandbox, budget walls at several odd
/// offsets (so exhaustion lands mid-loop and mid-fused-window), tiny
/// stacks, shallow call depth, and a zero output cap.
fn policy_matrix() -> Vec<SandboxPolicy> {
    let std_policy = SandboxPolicy::standard();
    let mut matrix = vec![std_policy];
    for max_instructions in [1, 2, 7, 23, 57, 101, 997] {
        matrix.push(SandboxPolicy {
            max_instructions,
            ..std_policy
        });
    }
    for max_stack in [1, 2, 3, 5] {
        matrix.push(SandboxPolicy {
            max_stack,
            ..std_policy
        });
    }
    for max_call_depth in [1, 2, 3] {
        matrix.push(SandboxPolicy {
            max_call_depth,
            ..std_policy
        });
    }
    for max_output_cells in [0, 1, 3] {
        matrix.push(SandboxPolicy {
            max_output_cells,
            ..std_policy
        });
    }
    matrix
}

/// Every corpus entry, against every policy cell, at several input sizes.
#[test]
fn corpus_matches_reference_across_policy_matrix() {
    for (name, module) in load_corpus() {
        for len in [0usize, 1, 5, 16] {
            let buffers = inputs_for(&module, len);
            let slices: Vec<&[f64]> = buffers.iter().map(Vec::as_slice).collect();
            for policy in policy_matrix() {
                assert_matches_reference(&name, &module, &slices, &policy);
            }
        }
    }
}

/// The corpus must exercise both translator outcomes: at least one entry
/// admits a register-translated region, and at least one defeats
/// translation entirely (so the stack-form fallback stays covered).
#[test]
fn corpus_covers_translated_and_refused_regions() {
    let mut translated = Vec::new();
    let mut refused = Vec::new();
    for (name, module) in load_corpus() {
        let prepared = PreparedModule::prepare(&module).expect("corpus modules verify");
        if prepared.regions_translated() > 0 {
            translated.push(name);
        } else {
            refused.push(name);
        }
    }
    assert!(
        !translated.is_empty(),
        "no corpus entry translated a region"
    );
    assert!(
        !refused.is_empty(),
        "no corpus entry defeats translation — the fallback path is uncovered"
    );
}

/// Pin the per-entry translation outcomes so a translator change that
/// silently starts refusing (or admitting) a shape fails this test. Tier 2
/// translates a loop only as a counted multiply-accumulate fold
/// (`matched_filter`, `lagged_autocorr` and the step variants), a counted
/// map (`sph_kernel`) or a spin; each runs natively and dispatches no op
/// per iteration. The near misses of those shapes run in stack form.
#[test]
fn corpus_translation_outcomes_are_pinned() {
    let outcomes: Vec<(String, usize)> = load_corpus()
        .iter()
        .map(|(name, module)| {
            let prepared = PreparedModule::prepare(module).expect("corpus modules verify");
            (name.clone(), prepared.regions_translated())
        })
        .collect();
    let expected: &[(&str, usize)] = &[
        ("cse_after_store", 0),
        ("deep_nested_calls", 0),
        ("lagged_autocorr", 1),
        ("matched_filter", 1),
        ("matched_filter_half_step", 1),
        ("matched_filter_stride2", 1),
        ("matched_filter_sub", 0),
        ("sph_kernel", 1),
        ("sph_running_max", 0),
        ("straddling_backedge", 0),
        ("varying_stack_depth", 0),
        ("zero_iteration_loop", 0),
    ];
    let got: Vec<(&str, usize)> = outcomes.iter().map(|(n, r)| (n.as_str(), *r)).collect();
    assert_eq!(got, expected);
}

/// A prepared module's source hash is its blob's content id, for every
/// corpus program, the three bench kernels among them.
#[test]
fn source_hash_is_the_content_id_of_every_corpus_blob() {
    for (name, module) in load_corpus() {
        let blob = module.to_blob();
        let prepared = PreparedModule::from_blob(&blob).expect("corpus blobs admit");
        assert_eq!(prepared.source_hash(), blob.hash, "{name}");
        assert_eq!(blob.hash, tvm::fnv1a64(&blob.bytes), "{name}");
    }
}

/// Pin `ExecContext::dispatched_ops` for the three bench kernels on fixed
/// inputs: the ops one run sends through a dispatch match, stack-form ops
/// and map body ops alike. A map region charges its body ops once per
/// chunk of lanes, so `sph_kernel`'s 64 iterations cost one chunk of
/// seven, and a fold region charges none.
#[test]
fn kernel_dispatch_counts_are_pinned() {
    let mut got = Vec::new();
    for (name, module) in load_corpus() {
        if !["lagged_autocorr", "matched_filter", "sph_kernel"].contains(&name.as_str()) {
            continue;
        }
        let buffers = inputs_for(&module, 64);
        let slices: Vec<&[f64]> = buffers.iter().map(Vec::as_slice).collect();
        let prepared = PreparedModule::prepare(&module).expect("corpus modules verify");
        let mut ctx = ExecContext::new();
        let (_, stats) = prepared
            .execute(&slices, &SandboxPolicy::standard(), &mut ctx)
            .expect("kernel runs");
        got.push((name, stats.instructions, ctx.dispatched_ops()));
    }
    // (kernel, instructions, dispatched ops)
    let expected: [(&str, u64, u64); 3] = [
        ("lagged_autocorr", 33273, 489),
        ("matched_filter", 1101, 9),
        ("sph_kernel", 1481, 12),
    ];
    let want: Vec<(String, u64, u64)> = expected
        .iter()
        .map(|&(n, i, d)| (n.to_string(), i, d))
        .collect();
    assert_eq!(got, want);
}
