//! The TVM unit adapter: run downloaded code as a Triana unit.
//!
//! §1: "We assume that the user has access to the executable code (in the
//! form of Java classes), which they can execute on their own resources and
//! can be transferred to the node where the execution is to be performed."
//! Here the executable code is a TVM module blob; this adapter turns a
//! transferred blob into a live [`Unit`], executing under the hosting
//! peer's sandbox policy and exposing metering for billing.

use obs::Obs;
use std::sync::Arc;
use triana_core::data::{DataType, TrianaData, TypeSpec};
use triana_core::unit::{Unit, UnitError};
use tvm::{ExecContext, ExecStats, ExecTier, ModuleBlob, SandboxPolicy, TierPolicy};

/// A unit backed by sandboxed TVM bytecode.
///
/// Admission (blob → execution tier) verifies once; every `process` call
/// after that reuses the admitted tier and a per-unit [`ExecContext`], so
/// steady-state execution allocates nothing in the interpreter.
pub struct TvmUnit {
    tier: Arc<dyn ExecTier>,
    ctx: ExecContext,
    policy: SandboxPolicy,
    /// Metering from the most recent execution (for the billing ledger).
    pub last_stats: ExecStats,
    type_name: String,
    observer: Obs,
}

/// Admit a blob as a module cache would: integrity check, parse, verify,
/// pick the execution tier — once.
fn admit_blob(blob: &ModuleBlob) -> Result<Arc<dyn ExecTier>, UnitError> {
    tvm::tier::admit(blob, TierPolicy::Auto).map_err(|e| UnitError::Runtime(e.to_string()))
}

/// Register a TVM module blob as a unit factory under `name`. The blob is
/// verified and admitted here, once; every instance the registry creates
/// shares the admitted tier and owns only its private [`ExecContext`]
/// scratch — so farmed clones and pipeline stages each get a per-worker
/// context over the same verified code.
pub fn register_tvm_module(
    registry: &mut triana_core::unit::UnitRegistry,
    name: &str,
    blob: &ModuleBlob,
    policy: SandboxPolicy,
) -> Result<(), UnitError> {
    let tier = admit_blob(blob)?;
    registry.register(name, move |_p| {
        Ok(Box::new(TvmUnit::from_tier(Arc::clone(&tier), policy)))
    });
    Ok(())
}

impl TvmUnit {
    /// Admit a transferred blob: integrity check, parse, verify — once.
    pub fn from_blob(blob: &ModuleBlob, policy: SandboxPolicy) -> Result<Self, UnitError> {
        Ok(Self::from_tier(admit_blob(blob)?, policy))
    }

    /// Build a unit around an already-admitted module (e.g. shared out of a
    /// [`triana_core::modules::ModuleCache`], which admits at insertion).
    pub fn from_tier(tier: Arc<dyn ExecTier>, policy: SandboxPolicy) -> Self {
        TvmUnit {
            type_name: format!("tvm:{}", tier.name()),
            tier,
            ctx: ExecContext::new(),
            policy,
            last_stats: ExecStats::default(),
            observer: Obs::disabled(),
        }
    }

    pub fn tier(&self) -> &Arc<dyn ExecTier> {
        &self.tier
    }

    /// Attach a metrics observer; sandboxed runs then feed the `tvm.*`
    /// counters (instructions, violations) alongside `last_stats`.
    pub fn set_obs(&mut self, observer: Obs) {
        self.observer = observer;
    }

    fn extract(port: usize, data: &TrianaData) -> Result<Vec<f64>, UnitError> {
        match data {
            TrianaData::Scalar(x) => Ok(vec![*x]),
            TrianaData::SampleSet { samples, .. } => Ok(samples.clone()),
            TrianaData::Spectrum { power, .. } => Ok(power.clone()),
            other => Err(UnitError::TypeMismatch {
                port,
                expected: "Scalar|SampleSet|Spectrum".into(),
                got: other.dtype(),
            }),
        }
    }
}

impl Unit for TvmUnit {
    fn type_name(&self) -> &str {
        &self.type_name
    }

    fn input_types(&self) -> Vec<TypeSpec> {
        vec![
            TypeSpec::OneOf(vec![
                DataType::Scalar,
                DataType::SampleSet,
                DataType::Spectrum,
            ]);
            self.tier.n_inputs() as usize
        ]
    }

    fn output_types(&self) -> Vec<DataType> {
        vec![DataType::SampleSet; self.tier.n_outputs() as usize]
    }

    fn process(&mut self, inputs: Vec<TrianaData>) -> Result<Vec<TrianaData>, UnitError> {
        // Propagate the first input's sample rate to the outputs.
        let rate_hz = inputs
            .iter()
            .find_map(|d| match d {
                TrianaData::SampleSet { rate_hz, .. } => Some(*rate_hz),
                _ => None,
            })
            .unwrap_or(1.0);
        let buffers: Vec<Vec<f64>> = inputs
            .iter()
            .enumerate()
            .map(|(i, d)| Self::extract(i, d))
            .collect::<Result<_, _>>()?;
        let slices: Vec<&[f64]> = buffers.iter().map(Vec::as_slice).collect();
        let (outputs, stats) = self
            .tier
            .execute_obs(&slices, &self.policy, &mut self.ctx, &self.observer)
            .map_err(|e| UnitError::Runtime(format!("sandboxed execution failed: {e}")))?;
        self.last_stats = stats;
        Ok(outputs
            .into_iter()
            .map(|samples| TrianaData::SampleSet { rate_hz, samples })
            .collect())
    }

    fn work_estimate(&self, inputs: &[TrianaData]) -> f64 {
        // Interpreted code: assume ~20 host cycles per TVM instruction and
        // instructions roughly proportional to module size × input length.
        let input_len: usize = inputs
            .iter()
            .map(|d| match d {
                TrianaData::SampleSet { samples, .. } => samples.len(),
                TrianaData::Spectrum { power, .. } => power.len(),
                _ => 1,
            })
            .sum();
        let per_item = self.tier.source_instructions().max(8) as f64;
        input_len.max(1) as f64 * per_item * 20.0 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::asm::assemble;

    const SCALER: &str = r#"
; y[i] = k * x[i], k from input port 1 (a scalar)
.module Scaler 1 2 1
.func main 3
    push 0
    inget 1
    store 2      ; k
    inlen 0
    store 0
    push 0
    store 1
loop:
    load 1
    load 0
    lt
    jz end
    load 1
    inget 0
    load 2
    mul
    outpush 0
    load 1
    push 1
    add
    store 1
    jmp loop
end:
    halt
"#;

    fn scaler_unit() -> TvmUnit {
        let blob = assemble(SCALER).unwrap().to_blob();
        TvmUnit::from_blob(&blob, SandboxPolicy::standard()).unwrap()
    }

    #[test]
    fn runs_transferred_code_on_triana_data() {
        let mut u = scaler_unit();
        assert_eq!(u.type_name(), "tvm:Scaler");
        assert_eq!(u.input_types().len(), 2);
        assert_eq!(u.output_types(), vec![DataType::SampleSet]);
        let out = u
            .process(vec![
                TrianaData::SampleSet {
                    rate_hz: 100.0,
                    samples: vec![1.0, 2.0, 3.0],
                },
                TrianaData::Scalar(10.0),
            ])
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(
            out,
            TrianaData::SampleSet {
                rate_hz: 100.0,
                samples: vec![10.0, 20.0, 30.0]
            }
        );
        assert!(u.last_stats.instructions > 0, "metered for billing");
    }

    #[test]
    fn shares_the_tier_a_module_cache_admitted() {
        use triana_core::modules::ModuleCache;
        use triana_core::ModuleKey;
        let mut cache = ModuleCache::new(1 << 20);
        let key = ModuleKey::new("Scaler", 1);
        cache.insert(key.clone(), assemble(SCALER).unwrap().to_blob());
        let admitted = cache.get_prepared(&key).expect("admitted at insertion");
        let u = TvmUnit::from_tier(Arc::clone(&admitted), SandboxPolicy::standard());
        assert!(Arc::ptr_eq(u.tier(), &admitted));
        assert_eq!(u.tier().tier_name(), "tier2", "the scaler loop translates");
    }

    #[test]
    fn attached_observer_meters_sandboxed_runs() {
        let observer = Obs::enabled();
        let mut u = scaler_unit();
        u.set_obs(observer.clone());
        u.process(vec![
            TrianaData::SampleSet {
                rate_hz: 100.0,
                samples: vec![1.0, 2.0],
            },
            TrianaData::Scalar(2.0),
        ])
        .unwrap();
        let reg = observer.registry().unwrap();
        assert_eq!(reg.counter_value("tvm.executions"), 1);
        assert_eq!(
            reg.counter_value("tvm.instructions"),
            u.last_stats.instructions
        );
    }

    #[test]
    fn corrupted_blob_rejected_at_admission() {
        let mut blob = assemble(SCALER).unwrap().to_blob();
        let n = blob.bytes.len();
        blob.bytes[n - 2] ^= 0xFF;
        assert!(TvmUnit::from_blob(&blob, SandboxPolicy::standard()).is_err());
    }

    #[test]
    fn sandbox_violation_is_a_unit_error() {
        let hostile = assemble(".module Spin 1 0 0\n.func main 0\nloop:\n jmp loop\n")
            .unwrap()
            .to_blob();
        let mut u = TvmUnit::from_blob(
            &hostile,
            SandboxPolicy {
                max_instructions: 1_000,
                ..SandboxPolicy::standard()
            },
        )
        .unwrap();
        let e = u.process(vec![]).expect_err("budget must trip");
        assert!(matches!(e, UnitError::Runtime(m) if m.contains("budget")));
    }

    #[test]
    fn wrong_input_type_reported_per_port() {
        let mut u = scaler_unit();
        let e = u
            .process(vec![
                TrianaData::Text("nope".into()),
                TrianaData::Scalar(1.0),
            ])
            .expect_err("type error");
        assert!(matches!(e, UnitError::TypeMismatch { port: 0, .. }));
    }

    #[test]
    fn spectrum_inputs_accepted() {
        let mut u = scaler_unit();
        let out = u
            .process(vec![
                TrianaData::Spectrum {
                    df_hz: 1.0,
                    power: vec![4.0],
                },
                TrianaData::Scalar(0.5),
            ])
            .unwrap()
            .pop()
            .unwrap();
        let TrianaData::SampleSet { samples, .. } = out else {
            panic!()
        };
        assert_eq!(samples, vec![2.0]);
    }

    #[test]
    fn work_estimate_scales_with_input() {
        let u = scaler_unit();
        let small = [
            TrianaData::SampleSet {
                rate_hz: 1.0,
                samples: vec![0.0; 10],
            },
            TrianaData::Scalar(1.0),
        ];
        let big = [
            TrianaData::SampleSet {
                rate_hz: 1.0,
                samples: vec![0.0; 10_000],
            },
            TrianaData::Scalar(1.0),
        ];
        assert!(u.work_estimate(&big) > u.work_estimate(&small) * 100.0);
    }
}
