//! # codepack-cpu — functional executor and pipeline timing models
//!
//! The SimpleScalar stand-in for the CodePack evaluation: a functional SR32
//! executor ([`Machine`]) drives parameterized cycle-level pipelines
//! ([`Pipeline`], [`PipelineConfig`]) covering the paper's Table 2 machines —
//! 1-issue in-order, and 4/8-issue out-of-order with RUU/LSQ windows,
//! function-unit contention, and bimodal/gshare/hybrid branch prediction.
//! The L1 I-miss path is pluggable ([`codepack_core::FetchEngine`]): native
//! burst reads or the CodePack decompressor.
//!
//! The timing model is trace-driven: [`Pipeline::run`] consumes the steps
//! of any [`StepSource`], either a live [`Machine`] or a [`TraceReplay`] of
//! a [`Trace`] recorded from one. Execution never depends on the machine
//! that times it, so an experiment that times one program on many machines
//! executes it once and replays the trace in each; a replay's statistics
//! are bit-identical to a live run's.
//!
//! ```
//! use codepack_cpu::{Machine, Pipeline, PipelineConfig};
//! use codepack_core::NativeFetch;
//! use codepack_isa::{Assembler, Reg};
//! use codepack_mem::{CacheConfig, MemoryTiming};
//!
//! let mut a = Assembler::new();
//! let top = a.new_label();
//! a.li(Reg::T0, 1000);
//! a.bind(top);
//! a.push(codepack_isa::Instruction::Addiu { rt: Reg::T0, rs: Reg::T0, imm: -1 });
//! a.bgtz(Reg::T0, top);
//! a.halt();
//! let program = a.finish("loop").unwrap();
//!
//! let mut machine = Machine::load(&program);
//! let mut pipe = Pipeline::new(
//!     PipelineConfig::four_issue(),
//!     CacheConfig::icache_4issue(),
//!     CacheConfig::dcache_4issue(),
//!     MemoryTiming::default(),
//!     Box::new(NativeFetch::new(MemoryTiming::default())),
//! );
//! let stats = pipe.run(&mut machine, u64::MAX).unwrap();
//! assert!(stats.ipc() > 0.5);
//! ```

#![forbid(unsafe_code)]

mod bpred;
mod exec;
mod pipeline;
mod trace;

pub use bpred::{DirectionPredictor, PredictorConfig, PredictorStats, ReturnAddressStack};
pub use exec::{ExecError, Machine, MemAccess, StepInfo};
pub use pipeline::{FuClass, FuCounts, L2Config, Pipeline, PipelineConfig, PipelineStats};
pub use trace::{DecodedText, StepSource, Trace, TraceReplay};
