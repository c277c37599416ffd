//! `examples/code_on_demand.rs::HOSTILE`, a module that spins forever,
//! under the standard policy's 10⁸-instruction budget. Its `jmp spin` is a
//! spin region: one entry charges every iteration the budget admits and
//! falls back, so the sandbox stops it without dispatching an op per
//! iteration.

use consumer_grid::tvm::asm::assemble;
use consumer_grid::tvm::{ExecContext, PreparedModule, SandboxPolicy, TvmError};

#[test]
fn hostile_spin_meets_the_standard_budget_in_one_step() {
    let example = include_str!("../examples/code_on_demand.rs");
    let src = example
        .split_once("const HOSTILE: &str = r#\"")
        .and_then(|(_, rest)| rest.split_once("\"#"))
        .expect("the example defines HOSTILE")
        .0;
    let prepared = PreparedModule::prepare(&assemble(src).expect("assembles")).expect("verifies");
    assert_eq!(prepared.regions_translated(), 1);
    let policy = SandboxPolicy::standard();
    assert_eq!(policy.max_instructions, 100_000_000);
    let mut ctx = ExecContext::new();
    let err = prepared.execute(&[], &policy, &mut ctx).unwrap_err();
    assert_eq!(err, TvmError::BudgetExceeded);
    assert_eq!(ctx.tier2_fallbacks(), 1);
    // Each iteration is one instruction, so the region charges the whole
    // budget and nothing is left to step in stack form.
    assert_eq!(ctx.dispatched_ops(), 0);
}
