//! Execute once, time many times: recorded instruction traces.
//!
//! Execution never depends on the machine that times it: the functional
//! [`Machine`] reads its own pre-decoded text, and every code model and
//! pipeline configuration retires the same instructions. A [`Trace`]
//! records one execution compactly, so an experiment that times the same
//! program on several machines executes it only once and replays the
//! trace through each [`Pipeline`](crate::Pipeline).

use std::fmt;
use std::sync::Arc;

use codepack_isa::{decode, DecodeInstructionError, Instruction, Program, TEXT_BASE};

use crate::exec::{ExecError, Machine, MemAccess, StepInfo};
use crate::pipeline::{Recorded, StaticOp};

/// A source of retired instructions for [`Pipeline::run`](crate::Pipeline::run):
/// a live [`Machine`], or a [`TraceReplay`] of one.
pub trait StepSource {
    /// The pre-decoded text section the steps come from.
    fn text(&self) -> &Arc<DecodedText>;

    /// The next instruction to retire, or `Ok(None)` once the program has
    /// halted.
    ///
    /// # Errors
    ///
    /// The functional trap that ends execution.
    fn next_step(&mut self) -> Result<Option<StepInfo>, ExecError>;
}

/// A program's text section, decoded once: each word's instruction (or
/// decode error, which surfaces when the word executes) and the static
/// record the timing model reads for it.
pub struct DecodedText {
    insns: Vec<Result<Instruction, DecodeInstructionError>>,
    ops: Vec<StaticOp>,
}

impl DecodedText {
    pub(crate) fn new(words: &[u32]) -> DecodedText {
        let insns: Vec<_> = words.iter().map(|&w| decode(w)).collect();
        let ops = insns
            .iter()
            .map(|i| StaticOp::of(i.as_ref().unwrap_or(&Instruction::NOP)))
            .collect();
        DecodedText { insns, ops }
    }

    /// The decoded word at `pc`; `None` when `pc` is unaligned or outside
    /// the text.
    #[inline]
    pub(crate) fn insn(&self, pc: u32) -> Option<Result<Instruction, DecodeInstructionError>> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        let index = pc.checked_sub(TEXT_BASE)? / 4;
        self.insns.get(index as usize).copied()
    }

    /// The static record of the instruction at `pc`, which must be in the
    /// text.
    #[inline]
    pub(crate) fn op(&self, pc: u32) -> &StaticOp {
        &self.ops[Self::index(pc)]
    }

    #[inline]
    fn index(pc: u32) -> usize {
        (pc.wrapping_sub(TEXT_BASE) >> 2) as usize
    }
}

impl fmt::Debug for DecodedText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodedText")
            .field("insns", &self.insns.len())
            .finish()
    }
}

/// One recorded execution of a program, replayable through any number of
/// pipelines; a replay's timing statistics are bit-identical to a live
/// run's.
///
/// A trace holds the machine's pre-decoded text (shared, not copied), one
/// `u32` per load or store (its effective address) and one per control
/// transfer (its next PC; a conditional branch carries its direction in
/// bit 0), and how the run ended: the terminal [`ExecError`], if any, and
/// the final architectural [`Machine::state_hash`]. Every other step falls
/// through to `pc + 4`, so on the six synthetic workloads a trace costs
/// 0.85–1.10 bytes per instruction.
///
/// ```
/// use codepack_cpu::{Machine, Pipeline, PipelineConfig, Trace};
/// use codepack_core::NativeFetch;
/// use codepack_isa::{Assembler, Instruction, Reg};
/// use codepack_mem::{CacheConfig, MemoryTiming};
///
/// let mut a = Assembler::new();
/// let top = a.new_label();
/// a.li(Reg::T0, 100);
/// a.bind(top);
/// a.push(Instruction::Addiu { rt: Reg::T0, rs: Reg::T0, imm: -1 });
/// a.bgtz(Reg::T0, top);
/// a.halt();
/// let program = a.finish("loop").unwrap();
///
/// let pipeline = || Pipeline::new(
///     PipelineConfig::four_issue(),
///     CacheConfig::icache_4issue(),
///     CacheConfig::dcache_4issue(),
///     MemoryTiming::default(),
///     Box::new(NativeFetch::new(MemoryTiming::default())),
/// );
/// let trace = Trace::record(&program, 10_000);
/// let live = pipeline().run(&mut Machine::load(&program), 10_000).unwrap();
/// let replayed = pipeline().run(&mut trace.replay(), trace.max_insns()).unwrap();
/// assert_eq!(live, replayed);
/// assert_eq!(trace.instructions(), live.instructions);
/// ```
#[derive(Clone)]
pub struct Trace {
    text: Arc<DecodedText>,
    entry: u32,
    operands: Vec<u32>,
    instructions: u64,
    max_insns: u64,
    end: Option<ExecError>,
    state_hash: u64,
}

impl Trace {
    /// Executes `program` from a fresh [`Machine::load`] the way
    /// [`Pipeline::run`](crate::Pipeline::run) would with budget
    /// `max_insns`, and records it.
    pub fn record(program: &Program, max_insns: u64) -> Trace {
        let mut machine = Machine::load(program);
        let entry = machine.pc();
        let text = Arc::clone(machine.text());
        let mut operands = Vec::new();
        let mut instructions = 0;
        let mut end = None;
        while instructions < max_insns {
            let info = match machine.next_step() {
                Ok(Some(info)) => info,
                Ok(None) => break,
                Err(e) => {
                    end = Some(e);
                    break;
                }
            };
            match text.op(info.pc).recorded {
                Recorded::None => {}
                Recorded::Load | Recorded::Store => {
                    operands.push(info.mem.expect("memory operations access memory").addr)
                }
                Recorded::Branch => operands.push(info.next_pc | u32::from(info.taken)),
                Recorded::Jump => operands.push(info.next_pc),
            }
            instructions += 1;
        }
        operands.shrink_to_fit();
        Trace {
            text,
            entry,
            operands,
            instructions,
            max_insns,
            end,
            state_hash: machine.state_hash(),
        }
    }

    /// A replay from the first recorded step. It yields what the recorded
    /// machine yielded, then ends as the recording did; run it with
    /// [`Self::max_insns`] as the budget.
    pub fn replay(&self) -> TraceReplay<'_> {
        TraceReplay {
            trace: self,
            pc: self.entry,
            operand: 0,
            done: 0,
        }
    }

    /// The instruction budget the trace was recorded with.
    pub fn max_insns(&self) -> u64 {
        self.max_insns
    }

    /// Instructions recorded (retired, halt excluded).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The trap that ended the recorded execution, if one did.
    pub fn end(&self) -> Option<ExecError> {
        self.end
    }

    /// The machine's [`Machine::state_hash`] where the recording stopped.
    pub fn state_hash(&self) -> u64 {
        self.state_hash
    }

    /// Heap bytes of the per-step record (the text is shared with the
    /// machine it was recorded from).
    pub fn recorded_bytes(&self) -> usize {
        self.operands.len() * std::mem::size_of::<u32>()
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("instructions", &self.instructions)
            .field("max_insns", &self.max_insns)
            .field("operands", &self.operands.len())
            .field("end", &self.end)
            .finish()
    }
}

/// A [`StepSource`] replaying a [`Trace`].
#[derive(Debug)]
pub struct TraceReplay<'a> {
    trace: &'a Trace,
    pc: u32,
    operand: usize,
    done: u64,
}

impl StepSource for TraceReplay<'_> {
    fn text(&self) -> &Arc<DecodedText> {
        &self.trace.text
    }

    #[inline]
    fn next_step(&mut self) -> Result<Option<StepInfo>, ExecError> {
        let trace = self.trace;
        if self.done == trace.instructions {
            return trace.end.map_or(Ok(None), Err);
        }
        self.done += 1;
        let pc = self.pc;
        let index = DecodedText::index(pc);
        let Ok(insn) = trace.text.insns[index] else {
            unreachable!("a recorded step decodes")
        };
        let mut step = StepInfo {
            pc,
            insn,
            next_pc: pc.wrapping_add(4),
            mem: None,
            taken: false,
        };
        let kind = trace.text.ops[index].recorded;
        if kind != Recorded::None {
            let word = trace.operands[self.operand];
            self.operand += 1;
            match kind {
                Recorded::Load | Recorded::Store => {
                    step.mem = Some(MemAccess {
                        addr: word,
                        store: kind == Recorded::Store,
                    })
                }
                Recorded::Branch => {
                    step.next_pc = word & !1;
                    step.taken = word & 1 != 0;
                }
                Recorded::Jump | Recorded::None => {
                    step.next_pc = word;
                    step.taken = true;
                }
            }
        }
        self.pc = step.next_pc;
        Ok(Some(step))
    }
}
