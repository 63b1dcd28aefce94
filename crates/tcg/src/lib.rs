//! # chaser-tcg
//!
//! A Tiny-Code-Generator-style dynamic binary translation layer, modelled on
//! QEMU's TCG as used by DECAF and extended by Chaser (DSN 2020).
//!
//! Guest code bytes are fetched from guest memory, decoded, and translated
//! one *translation block* (TB) at a time into an architecture-independent
//! IR ([`TcgOp`]). Floating-point instructions translate to *helper calls*
//! ([`Helper`]), exactly as QEMU lowers x87/SSE arithmetic — this is the
//! level where Chaser extends DECAF's bitwise taint rules to floating point.
//!
//! The paper's central mechanism (its Fig. 3) lives in
//! [`translate_block`]: when a [`TranslateHook`] marks an instruction as an
//! injection target, a [`TcgOp::CallInject`] op is spliced *in front of* the
//! instruction's own IR, so the registered fault injector runs just before
//! the target executes. Untargeted instructions translate with zero added
//! ops — the just-in-time design that keeps Chaser's overhead low.
//!
//! Translated blocks are cached in a [`TbCache`]; Chaser flushes the cache
//! when the target process appears (or when injection is disarmed) to force
//! retranslation with (or without) instrumentation. The cache is layered:
//! flushes clear only a per-run overlay, while an optional `Arc`-shared
//! [`BaseLayer`] of clean blocks — warmed once by a golden run — survives
//! and is re-validated against the active hook on the next lookup, so
//! campaign runs skip almost all translation work.
//!
//! # Example
//!
//! ```
//! use chaser_isa::{Asm, Reg};
//! use chaser_tcg::{translate_block, SliceFetcher};
//!
//! let mut a = Asm::new("demo");
//! a.movi(Reg::R1, 7);
//! a.addi(Reg::R1, 1);
//! a.halt();
//! let prog = a.assemble().expect("assemble");
//! let fetcher = SliceFetcher::new(chaser_isa::CODE_BASE, prog.code());
//! let tb = translate_block(&fetcher, chaser_isa::CODE_BASE, None);
//! assert_eq!(tb.insns().len(), 3);
//! assert!(!tb.is_instrumented());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod ir;
mod tb;
mod translate;

pub use cache::{BaseLayer, CacheStats, DispatchBlock, TbCache};
pub use ir::{Helper, TcgOp, Temp};
pub use tb::TranslationBlock;
pub use translate::{
    translate_block, CodeFetcher, InjectPointId, SliceFetcher, TranslateHook, MAX_TB_INSNS,
    MAX_TB_LOCALS,
};
