//! `tvm` — the Triana Virtual Machine.
//!
//! The paper ships Java bytecode to peers on demand and relies on the Java
//! sandbox to make untrusted code safe ("the sandbox ensures that an
//! untrusted and possibly malicious application cannot gain access to system
//! resources"). Rust has no portable safe dynamic code loading, so this crate
//! provides the substitute: a small, deterministic, stack-based bytecode VM.
//!
//! * Code really is **data**: a [`module::Module`] serializes to a byte blob
//!   with a content hash, which is what the Consumer Grid transfers, caches
//!   and evicts (paper §3.3, "dynamic download of code").
//! * The **sandbox** is enforced at interpretation time: instruction budget,
//!   stack/locals/output caps, and a capability gate on host I/O
//!   ([`sandbox::SandboxPolicy`]).
//! * A tiny **assembler** ([`asm`]) makes user-defined units writable as
//!   text, mirroring how Triana users drop new Java units into the toolbox.
//!
//! The unit ABI is dataflow-shaped: a program reads from numbered input
//! ports (slices of `f64`) and appends to numbered output ports.

pub mod asm;
pub mod interp;
pub mod isa;
pub mod module;
pub mod prepared;
pub mod sandbox;
pub mod tier;
pub mod tier2;
pub mod verify;

pub use interp::{execute, execute_obs, ExecStats, TvmError};
pub use isa::Op;
pub use module::{Function, Module, ModuleBlob};
pub use prepared::{ExecContext, PrepareError, PreparedModule};
pub use sandbox::SandboxPolicy;
pub use tier::TierPolicy;

/// FNV-1a 64-bit hash; used for module content hashes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
