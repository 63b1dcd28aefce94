//! # chaser-taint
//!
//! A bitwise dynamic taint engine modelled on DECAF's, extended — as the
//! Chaser paper describes — with propagation rules for floating-point
//! helper calls.
//!
//! Taint is tracked at *bit* granularity through CPU registers, IR
//! temporaries and (physical) guest memory. Chaser marks injected faults as
//! taint sources: the bits the injector flipped become the initial
//! [`TaintMask`], and the engine's per-IR-op rules carry those bits through
//! the program. The VM's execution engine consults [`TaintState`] on every
//! op; tainted memory loads and stores are reported back to Chaser's tracer
//! (the paper's `DECAF_READ_TAINTMEM_CB` / `DECAF_WRITE_TAINTMEM_CB`).
//!
//! Propagation ([`TaintPolicy::Precise`]) uses value-aware bitwise rules
//! (DECAF-style), and every rule is clean-in ⇒ clean-out:
//!
//! * a copy carries the mask as it is;
//! * `and` / `or` use controlling values: a clean 0 (for `and`) or a clean
//!   1 (for `or`) in one operand forces the result bit and kills its taint;
//!   `xor` and `not` take the union of the operand masks;
//! * add, sub, neg and mul spread the union upward from its lowest tainted
//!   bit (the carry chain);
//! * a shift by a clean count shifts the mask (an arithmetic right shift
//!   replicates a tainted sign bit); a tainted count saturates;
//! * division and remainder saturate: any tainted input bit taints all 64
//!   result bits.
//!
//! Floating-point helpers and int↔float conversions saturate too: an
//! exponent or mantissa bit influences every bit of an IEEE-754 result in
//! general. [`TaintPolicy::Disabled`] turns propagation off.
//!
//! Memory taint lives in one paged shadow, [`Shadow`]: a cell per byte of
//! guest physical memory in frame-indexed pages that are allocated on the
//! first live write and carry a live-cell count each. Its two
//! instantiations are the taint masks ([`ShadowMem`], one `u8` per byte)
//! and the fault provenance ([`ProvMem`], one [`ProvSet`] per byte); only
//! their 8-byte guest accesses (`load8`/`store8`) differ.
//!
//! # Example
//!
//! ```
//! use chaser_taint::{TaintMask, TaintPolicy, TaintState};
//!
//! let mut taint = TaintState::new(TaintPolicy::Precise);
//! // Mark one bit of physical address 0x1000 as a fault site.
//! taint.mem_mut().store8(0x1000, TaintMask::bit(5));
//! assert_eq!(taint.mem().tainted_bytes(), 1);
//! assert!(taint.mem().load8(0x1000).is_tainted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mask;
mod policy;
mod prov;
mod shadow;
mod state;

pub use mask::TaintMask;
pub use policy::{PropKind, TaintPolicy};
pub use prov::{ProvMem, ProvSet};
pub use shadow::{Shadow, ShadowCell, ShadowMem};
pub use state::TaintState;
