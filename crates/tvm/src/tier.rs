//! The execution-tier abstraction: one trait over Prepared and Tier2
//! execution, selected per module at cache admission.
//!
//! Every tier honours the same observational contract as the reference
//! interpreter [`crate::execute`] — bit-identical outputs, [`ExecStats`],
//! and typed errors for every program — so the grid can pick a tier
//! purely on cost:
//!
//! * **Prepared** ([`PreparedModule`]): verify once, flatten 1:1;
//!   allocation-free steady state.
//! * **Tier2** ([`Tier2Module`]): Prepared plus register-translated hot
//!   loops, which is where all instruction fusion lives.
//!
//! [`admit`] is the cache-admission entry point: blob integrity → parse →
//! tier construction per [`TierPolicy`]. `Auto` builds Tier2 and demotes
//! to Prepared when no loop region translated (the region probe would be
//! pure overhead on straight-line code).

use crate::interp::{record_execution, ExecStats, TvmError};
use crate::module::{Module, ModuleBlob};
use crate::prepared::{ExecContext, PrepareError, PreparedModule};
use crate::sandbox::SandboxPolicy;
use crate::tier2::Tier2Module;
use std::sync::Arc;

/// What one execution produces: output ports + stats, or a typed error.
pub type ExecOutcome = Result<(Vec<Vec<f64>>, ExecStats), TvmError>;

/// Which execution tier cache admission should construct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TierPolicy {
    /// Tier2 when at least one hot loop translated, else Prepared.
    #[default]
    Auto,
    Prepared,
    Tier2,
}

/// A module admitted under some execution tier.
///
/// Object-safe so caches can hold `Arc<dyn ExecTier>` and workers can
/// dispatch without knowing the tier.
pub trait ExecTier: Send + Sync + std::fmt::Debug {
    /// Stable tier name: `"prepared"` or `"tier2"`.
    fn tier_name(&self) -> &'static str;
    fn name(&self) -> &str;
    fn version(&self) -> u32;
    fn n_inputs(&self) -> u8;
    fn n_outputs(&self) -> u8;
    /// Content id of the source blob (FNV-1a 64 of its bytes).
    fn source_hash(&self) -> u64;
    /// Source instruction count, the work-estimate signal.
    fn source_instructions(&self) -> usize;
    /// Deterministic modeled preparation cost in virtual microseconds.
    fn modeled_prepare_us(&self) -> u64;
    /// Hot-loop regions translated to register form (tier 2 only).
    fn regions_translated(&self) -> usize {
        0
    }

    /// Execute one job.
    fn execute(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
    ) -> ExecOutcome;

    /// Instrumented variant of [`Self::execute`]; records the same
    /// `tvm.*` counters as [`crate::execute_obs`].
    fn execute_obs(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
        observer: &obs::Obs,
    ) -> ExecOutcome {
        let result = self.execute(inputs, policy, ctx);
        if observer.is_enabled() {
            let slim = result.as_ref().map(|(_, s)| *s).map_err(Clone::clone);
            record_execution(observer, &slim);
        }
        result
    }
}

impl ExecTier for PreparedModule {
    fn tier_name(&self) -> &'static str {
        "prepared"
    }
    fn name(&self) -> &str {
        PreparedModule::name(self)
    }
    fn version(&self) -> u32 {
        PreparedModule::version(self)
    }
    fn n_inputs(&self) -> u8 {
        PreparedModule::n_inputs(self)
    }
    fn n_outputs(&self) -> u8 {
        PreparedModule::n_outputs(self)
    }
    fn source_hash(&self) -> u64 {
        PreparedModule::source_hash(self)
    }
    fn source_instructions(&self) -> usize {
        PreparedModule::source_instructions(self)
    }
    fn modeled_prepare_us(&self) -> u64 {
        PreparedModule::modeled_prepare_us(self)
    }

    fn execute(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
    ) -> ExecOutcome {
        PreparedModule::execute(self, inputs, policy, ctx)
    }
}

impl ExecTier for Tier2Module {
    fn tier_name(&self) -> &'static str {
        "tier2"
    }
    fn name(&self) -> &str {
        self.base().name()
    }
    fn version(&self) -> u32 {
        self.base().version()
    }
    fn n_inputs(&self) -> u8 {
        self.base().n_inputs()
    }
    fn n_outputs(&self) -> u8 {
        self.base().n_outputs()
    }
    fn source_hash(&self) -> u64 {
        self.base().source_hash()
    }
    fn source_instructions(&self) -> usize {
        self.base().source_instructions()
    }
    fn modeled_prepare_us(&self) -> u64 {
        self.base().modeled_prepare_us()
    }
    fn regions_translated(&self) -> usize {
        Tier2Module::regions_translated(self)
    }

    fn execute(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
    ) -> ExecOutcome {
        Tier2Module::execute(self, inputs, policy, ctx)
    }

    fn execute_obs(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
        observer: &obs::Obs,
    ) -> ExecOutcome {
        let result = Tier2Module::execute(self, inputs, policy, ctx);
        if observer.is_enabled() {
            let slim = result.as_ref().map(|(_, s)| *s).map_err(Clone::clone);
            record_execution(observer, &slim);
            if ctx.tier2_fallbacks() > 0 {
                observer.add("tvm.tier2_fallback_exits", ctx.tier2_fallbacks());
            }
        }
        result
    }
}

/// Cache admission: integrity-check and parse the blob, then construct
/// the execution tier `policy` selects.
pub fn admit(blob: &ModuleBlob, policy: TierPolicy) -> Result<Arc<dyn ExecTier>, PrepareError> {
    if !blob.integrity_ok() {
        return Err(PrepareError::Integrity);
    }
    let module = Module::from_blob(blob).map_err(PrepareError::Blob)?;
    Ok(match policy {
        TierPolicy::Prepared => {
            Arc::new(PreparedModule::prepare(&module).map_err(PrepareError::Verify)?)
        }
        TierPolicy::Tier2 => Arc::new(Tier2Module::prepare(&module).map_err(PrepareError::Verify)?),
        TierPolicy::Auto => {
            let t2 = Tier2Module::prepare(&module).map_err(PrepareError::Verify)?;
            if t2.regions_translated() > 0 {
                Arc::new(t2)
            } else {
                Arc::new(t2.into_prepared())
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Function;
    use crate::Op::*;

    fn looper() -> Module {
        Module {
            name: "looper".into(),
            version: 1,
            n_inputs: 0,
            n_outputs: 1,
            functions: vec![Function {
                name: "main".into(),
                n_locals: 1,
                code: vec![
                    Push(4.0),
                    Store(0),
                    Load(0),
                    OutPush(0),
                    Load(0),
                    Push(1.0),
                    Sub,
                    Store(0),
                    Load(0),
                    Jnz(2),
                    Halt,
                ],
            }],
        }
    }

    fn straight() -> Module {
        Module {
            name: "straight".into(),
            version: 1,
            n_inputs: 0,
            n_outputs: 1,
            functions: vec![Function {
                name: "main".into(),
                n_locals: 0,
                code: vec![Push(21.0), Push(2.0), Mul, OutPush(0), Halt],
            }],
        }
    }

    #[test]
    fn auto_admission_picks_tier_by_loop_shape() {
        let with_loop = admit(&looper().to_blob(), TierPolicy::Auto).unwrap();
        assert_eq!(with_loop.tier_name(), "tier2");
        assert_eq!(with_loop.regions_translated(), 1);
        let no_loop = admit(&straight().to_blob(), TierPolicy::Auto).unwrap();
        assert_eq!(no_loop.tier_name(), "prepared");
        assert_eq!(no_loop.regions_translated(), 0);
    }

    #[test]
    fn all_tiers_agree_through_the_trait() {
        let module = looper();
        let policy = SandboxPolicy::standard();
        let reference = crate::execute(&module, &[], &policy);
        assert_eq!(
            reference.as_ref().unwrap().0,
            vec![vec![4.0, 3.0, 2.0, 1.0]]
        );
        for tier_policy in [TierPolicy::Prepared, TierPolicy::Tier2] {
            let tier = admit(&module.to_blob(), tier_policy).unwrap();
            let mut ctx = ExecContext::new();
            assert_eq!(tier.execute(&[], &policy, &mut ctx), reference);
        }
    }

    #[test]
    fn admission_rejects_corrupt_blobs() {
        let mut blob = looper().to_blob();
        let n = blob.bytes.len();
        blob.bytes[n - 1] ^= 0xFF;
        for tier_policy in [TierPolicy::Auto, TierPolicy::Prepared, TierPolicy::Tier2] {
            assert!(matches!(
                admit(&blob, tier_policy),
                Err(PrepareError::Integrity)
            ));
        }
    }
}
