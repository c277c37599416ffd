//! Admission by the name gridbench calls.
//!
//! Every admitted module is a [`PreparedModule`]; product code admits a
//! blob with [`PreparedModule::from_blob`]. This module keeps only the two
//! names the benchmark's TVM stages call (`tvm::tier::admit(&blob,
//! TierPolicy::Auto)`), so the benchmark builds unchanged. A change to the
//! benchmark can move it to `from_blob` and delete this module.

use crate::module::ModuleBlob;
use crate::prepared::{PrepareError, PreparedModule};
use std::sync::Arc;

/// The one admission policy. A single variant, kept only for the
/// benchmark's call to [`admit`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TierPolicy {
    #[default]
    Auto,
}

/// [`PreparedModule::from_blob`] behind an `Arc`, under the name the
/// benchmark calls.
pub fn admit(blob: &ModuleBlob, _policy: TierPolicy) -> Result<Arc<PreparedModule>, PrepareError> {
    PreparedModule::from_blob(blob).map(Arc::new)
}
