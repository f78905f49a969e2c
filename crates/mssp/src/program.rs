//! Synthetic program model: wraps a branch trace in a full instruction
//! stream (ALU ops, loads/stores with addresses, calls/returns, indirect
//! jumps) so the timing models have caches and predictors to exercise.

use rsc_trace::rng::Xoshiro256;
use rsc_trace::{BranchId, BranchRecord, InputId, Population, Trace};

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Integer/FP computation.
    Alu { pc: u64 },
    /// Memory read.
    Load { pc: u64, addr: u64 },
    /// Memory write.
    Store { pc: u64, addr: u64 },
    /// Conditional branch carrying its trace record.
    CondBranch { pc: u64, record: BranchRecord },
    /// Call (pushes `return_addr`).
    Call { pc: u64, return_addr: u64 },
    /// Return (to `target`).
    Return { pc: u64, target: u64 },
    /// Indirect jump to `target`.
    IndirectJump { pc: u64, target: u64 },
}

impl Instr {
    /// The instruction's PC.
    pub fn pc(&self) -> u64 {
        match *self {
            Instr::Alu { pc }
            | Instr::Load { pc, .. }
            | Instr::Store { pc, .. }
            | Instr::CondBranch { pc, .. }
            | Instr::Call { pc, .. }
            | Instr::Return { pc, .. }
            | Instr::IndirectJump { pc, .. } => pc,
        }
    }

    /// Returns `true` for the conditional-branch variant.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Instr::CondBranch { .. })
    }
}

/// Kind discriminant of a [`BlockOp`] (every non-ALU instruction class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Conditional branch (trace event).
    Branch,
    /// Call (pushes a return address).
    Call,
    /// Return.
    Return,
    /// Indirect jump.
    IndirectJump,
}

/// One non-ALU instruction in an [`InstrBlock`], in a flat layout the
/// batched timing arms can stream without enum-payload matching.
///
/// `gap` is the number of ALU instructions immediately preceding this op
/// in program order — ALUs touch no cache or predictor state, so a block
/// stores only their count. Payload fields by kind: `Load`/`Store` put
/// the data address in `a`; `Branch` puts the branch PC in `a`, the
/// cumulative trace instruction count in `b`, the static branch in `id`,
/// and the outcome in `taken`; `Call` puts the return address in `a`;
/// `Return` its target in `a`; `IndirectJump` its PC in `a` and target in
/// `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOp {
    /// Instruction class.
    pub kind: OpKind,
    /// Branch outcome (branches only).
    pub taken: bool,
    /// ALU instructions immediately before this op.
    pub gap: u32,
    /// Static branch index (branches only).
    pub id: u32,
    /// Primary payload (see type docs).
    pub a: u64,
    /// Secondary payload (see type docs).
    pub b: u64,
}

impl BlockOp {
    fn new(kind: OpKind, a: u64, b: u64) -> Self {
        BlockOp {
            kind,
            taken: false,
            gap: 0,
            id: 0,
            a,
            b,
        }
    }

    /// Reconstructs the trace record of a `Branch` op.
    pub fn record(&self) -> BranchRecord {
        debug_assert_eq!(self.kind, OpKind::Branch);
        BranchRecord {
            branch: BranchId::new(self.id),
            taken: self.taken,
            instr: self.b,
        }
    }

    /// Expands this op back into the equivalent [`Instr`] at `pc` (the
    /// stream PC captured before the op was generated).
    fn to_instr(self, pc: u64) -> Instr {
        match self.kind {
            OpKind::Load => Instr::Load { pc, addr: self.a },
            OpKind::Store => Instr::Store { pc, addr: self.a },
            OpKind::Call => Instr::Call {
                pc,
                return_addr: self.a,
            },
            OpKind::Return => Instr::Return { pc, target: self.a },
            OpKind::IndirectJump => Instr::IndirectJump {
                pc: self.a,
                target: self.b,
            },
            OpKind::Branch => {
                unreachable!("gap fillers come from gen_op, which never yields a branch")
            }
        }
    }
}

/// Branch-PC base: every synthetic PC (branches, calls, jump targets)
/// lives above this address, and a static branch's PC is
/// `BRANCH_PC_BASE + index * 64`.
pub const BRANCH_PC_BASE: u64 = 0x40_0000;

/// Marks a memory-arm entry as a store (addresses are < 2^48, so payload
/// bits never reach it).
pub const STORE_BIT: u64 = 1 << 63;

/// Where one branch event sits in its [`InstrBlock`]: the lengths of the
/// `ops` mirror, the memory arm and the rare-op arm, and the instruction
/// count, just before the branch. Two consecutive marks bound the
/// stretch of the arms between two branches, which a master copies
/// whole when no correct speculation thins it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BranchMark {
    /// Index of the branch in the `ops` mirror.
    pub(crate) ops: usize,
    /// Memory-arm entries before the branch.
    pub(crate) mem: usize,
    /// Rare-op-arm entries before the branch.
    pub(crate) misc: usize,
    /// Instructions before the branch, ALUs included.
    pub(crate) instructions: u64,
}

/// A batch of instructions in flat form, carried in up to three views:
///
/// * **per-kind arms** — the memory accesses (`mem`, addresses in order
///   with [`STORE_BIT`] tagging stores), the conditional branches
///   (`cond`, `(static_index << 1) | taken`), and the rare
///   call/return/indirect ops (`misc`, in order) — which the batched
///   `CoreModel::step_block` streams through three tight homogeneous
///   loops with no per-op kind dispatch. Kinds touch disjoint state
///   machines (caches vs. gshare vs. RAS/indirect table) and the
///   fixed-point penalty accumulator is order-associative, so splitting
///   program order *across* arms while preserving it *within* each arm
///   is result-identical;
/// * a **records arm** — the trace record of every branch event, in
///   order, which a master's controller decides on before its core steps
///   anything, with a branch mark per event locating it in the other
///   arms;
/// * an **interleaved `ops` mirror** in full program order, each op
///   carrying the ALU gap before it, which a master walks to build its
///   distilled task when a correct speculation removes work.
///
/// Produced by [`ProgramStream::fill_block`] (every view) or
/// [`ProgramStream::fill_block_arms`] (per-kind arms only); reuse one
/// block across calls to stay allocation-free. A master's distilled task
/// is assembled op by op into a block of its own (per-kind arms only).
///
/// Stream blocks always end at a branch (the stream's gap structure
/// guarantees trailing ALUs cannot occur), so `ops.last()` of a non-empty
/// block is its final branch event.
#[derive(Debug, Clone, Default)]
pub struct InstrBlock {
    ops: Vec<BlockOp>,
    records: Vec<BranchRecord>,
    marks: Vec<BranchMark>,
    mem: Vec<u64>,
    cond: Vec<u32>,
    misc: Vec<BlockOp>,
    instructions: u64,
    branches: u64,
}

impl InstrBlock {
    /// The non-ALU ops in program order (empty after
    /// [`ProgramStream::fill_block_arms`]).
    pub fn ops(&self) -> &[BlockOp] {
        &self.ops
    }

    /// The trace record of every branch event, in program order (empty
    /// after [`ProgramStream::fill_block_arms`]).
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// Where each branch event sits in the other arms, in program order
    /// (empty after [`ProgramStream::fill_block_arms`]).
    pub(crate) fn marks(&self) -> &[BranchMark] {
        &self.marks
    }

    /// The memory arm: load/store addresses in program order, stores
    /// tagged with [`STORE_BIT`].
    pub fn mem_ops(&self) -> &[u64] {
        &self.mem
    }

    /// The conditional-branch arm: `(static_index << 1) | taken` per
    /// branch event, in program order.
    pub fn cond_ops(&self) -> &[u32] {
        &self.cond
    }

    /// The call/return/indirect arm, in program order.
    pub fn misc_ops(&self) -> &[BlockOp] {
        &self.misc
    }

    /// Total instructions in the block (ALUs included).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Conditional-branch events in the block.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// `true` when the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions == 0
    }

    /// Empties the block, keeping its allocations.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.records.clear();
        self.marks.clear();
        self.mem.clear();
        self.cond.clear();
        self.misc.clear();
        self.instructions = 0;
        self.branches = 0;
    }

    /// Appends `n` ALU instructions to the per-kind view.
    #[inline]
    pub(crate) fn push_alus(&mut self, n: u64) {
        self.instructions += n;
    }

    /// The position just past the block's last instruction, a mark that
    /// ends the last kept run.
    pub(crate) fn end_mark(&self) -> BranchMark {
        BranchMark {
            ops: self.ops.len(),
            mem: self.mem.len(),
            misc: self.misc.len(),
            instructions: self.instructions,
        }
    }

    /// Appends the per-kind arms of `src` from `from` up to `to`: its
    /// memory and rare ops, the conditional-branch entries `branches`
    /// (the branch events in between), and its instructions, ALUs
    /// included.
    #[inline]
    pub(crate) fn copy_run(
        &mut self,
        src: &InstrBlock,
        from: &BranchMark,
        to: &BranchMark,
        branches: std::ops::Range<usize>,
    ) {
        self.mem.extend_from_slice(&src.mem[from.mem..to.mem]);
        self.misc.extend_from_slice(&src.misc[from.misc..to.misc]);
        self.branches += branches.len() as u64;
        self.cond.extend_from_slice(&src.cond[branches]);
        self.instructions += to.instructions - from.instructions;
    }

    /// Appends one op to the arm of its kind (the per-kind view only).
    #[inline]
    pub(crate) fn push_op(&mut self, op: &BlockOp) {
        self.instructions += 1;
        match op.kind {
            OpKind::Load | OpKind::Store => {
                self.mem
                    .push(op.a | (STORE_BIT * u64::from(op.kind == OpKind::Store)));
            }
            OpKind::Branch => {
                self.branches += 1;
                self.cond.push((op.id << 1) | u32::from(op.taken));
            }
            OpKind::Call | OpKind::Return | OpKind::IndirectJump => {
                self.misc.push(BlockOp { gap: 0, ..*op });
            }
        }
    }
}

/// Memory-behavior parameters for a benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Total data working set in KiB.
    pub working_set_kib: u32,
    /// Fraction of accesses hitting the hot (stack-like) region.
    pub hot_fraction: f64,
    /// Hot region size in KiB.
    pub hot_kib: u32,
}

impl MemoryModel {
    /// A per-benchmark memory model. Sizes are chosen so relative cache
    /// behavior matches the benchmarks' reputations (mcf and vortex are
    /// memory-bound; gzip and eon are cache-friendly).
    pub fn for_benchmark(name: &str) -> MemoryModel {
        let (working_set_kib, hot_fraction) = match name {
            "mcf" => (8192, 0.35),
            "vortex" => (2048, 0.50),
            "gcc" => (1024, 0.55),
            "twolf" => (512, 0.60),
            "gap" => (1024, 0.55),
            "parser" => (512, 0.60),
            "perl" => (512, 0.60),
            "bzip2" => (1024, 0.55),
            "crafty" => (256, 0.70),
            "vpr" => (256, 0.65),
            "gzip" => (256, 0.70),
            "eon" => (128, 0.75),
            _ => (512, 0.60),
        };
        MemoryModel {
            working_set_kib,
            hot_fraction,
            hot_kib: 16,
        }
    }
}

/// Instruction-mix fractions (per non-branch slot).
const LOAD_FRAC: f64 = 0.26;
const STORE_FRAC: f64 = 0.12;
const CALL_FRAC: f64 = 0.015;
const INDIRECT_FRAC: f64 = 0.004;

/// The gap-filler generator over unpacked stream state, so callers that
/// hoist `rng`/`pc` into locals (the block filler's hot loop) get fully
/// registerized RNG state. Both [`ProgramStream::filler_op`] and
/// [`ProgramStream::fill_block`] funnel through this one function, which
/// is what keeps the two access styles draw-for-draw identical.
#[inline(always)]
fn gen_op(
    rng: &mut Xoshiro256,
    pc: &mut u64,
    call_stack: &mut Vec<u64>,
    mem: &MemoryModel,
) -> Option<BlockOp> {
    const DATA_BASE: u64 = 0x1000_0000;
    let my_pc = *pc;
    *pc = my_pc + 4;
    let u = rng.next_f64();
    // The ladder tests the ALU case (the most likely, and the only one
    // with no further draws) first; the partition of [0, 1) — and with it
    // every decision — is exactly the load/store/call/indirect cascade.
    if u >= LOAD_FRAC + STORE_FRAC + CALL_FRAC + INDIRECT_FRAC {
        return None;
    }
    if u < LOAD_FRAC + STORE_FRAC {
        // Both the hot and the cold region draw the same way (one
        // `gen_range` after the region flip), so the region choice is a
        // branch-free bound select, not a code-path fork.
        let bound = if rng.gen_bool(mem.hot_fraction) {
            mem.hot_kib as u64 * 1024
        } else {
            mem.working_set_kib as u64 * 1024
        };
        let addr = DATA_BASE + rng.gen_range(bound);
        let kind = if u < LOAD_FRAC {
            OpKind::Load
        } else {
            OpKind::Store
        };
        Some(BlockOp::new(kind, addr, 0))
    } else if u < LOAD_FRAC + STORE_FRAC + CALL_FRAC {
        // Alternate calls and returns to keep the stack bounded.
        if call_stack.len() < 24 && rng.gen_bool(0.5) {
            let ret = my_pc + 4;
            call_stack.push(ret);
            *pc = BRANCH_PC_BASE + rng.gen_range(1 << 16) * 4;
            Some(BlockOp::new(OpKind::Call, ret, 0))
        } else if let Some(target) = call_stack.pop() {
            *pc = target;
            Some(BlockOp::new(OpKind::Return, target, 0))
        } else {
            None
        }
    } else {
        let target = BRANCH_PC_BASE + rng.gen_range(1 << 12) * 4;
        *pc = target;
        Some(BlockOp::new(OpKind::IndirectJump, my_pc, target))
    }
}

/// Streams [`Instr`]s for a population/input pair.
///
/// Every branch event from the underlying [`Trace`] becomes one
/// [`Instr::CondBranch`]; the instruction-count gap before it is filled
/// with ALU/memory/call instructions whose addresses follow the
/// [`MemoryModel`]. The stream is deterministic.
///
/// # Examples
///
/// ```
/// use rsc_mssp::program::{MemoryModel, ProgramStream};
/// use rsc_trace::{spec2000, InputId};
///
/// let pop = spec2000::benchmark("gzip").unwrap().population(1_000);
/// let mem = MemoryModel::for_benchmark("gzip");
/// let n = ProgramStream::new(&pop, InputId::Eval, 1_000, 7, mem).count();
/// assert!(n >= 1_000, "at least one instruction per branch event");
/// ```
#[derive(Debug, Clone)]
pub struct ProgramStream<'a> {
    trace: Trace<'a>,
    pending_branch: Option<BranchRecord>,
    block_left: u64,
    last_instr_count: u64,
    pc: u64,
    call_stack: Vec<u64>,
    mem: MemoryModel,
    rng: Xoshiro256,
    /// Trace records buffered through [`Trace::fill`] by the chunked
    /// path; the per-event path drains any leftovers before pulling from
    /// the trace directly, so the two modes can interleave freely.
    rec_buf: Vec<BranchRecord>,
    rec_pos: usize,
    rec_len: usize,
}

/// Trace records buffered per [`Trace::fill`] call on the chunked path.
const REC_CHUNK: usize = 1024;

impl<'a> ProgramStream<'a> {
    /// Creates a stream over `events` branch events.
    pub fn new(
        population: &'a Population,
        input: InputId,
        events: u64,
        seed: u64,
        mem: MemoryModel,
    ) -> Self {
        ProgramStream {
            trace: population.trace(input, events, seed),
            pending_branch: None,
            block_left: 0,
            last_instr_count: 0,
            pc: BRANCH_PC_BASE,
            call_stack: Vec::new(),
            mem,
            rng: Xoshiro256::seed_from(seed).fork(0x70_72_67), // "prg"
            rec_buf: Vec::new(),
            rec_pos: 0,
            rec_len: 0,
        }
    }

    /// Generates the next gap-filler instruction in flat form (`None` =
    /// ALU). This is the single generation point for both the per-event
    /// and the chunked path, so the two cannot diverge: every RNG draw
    /// happens here, in the same order, whichever representation the
    /// caller wants.
    #[inline]
    fn filler_op(&mut self) -> Option<BlockOp> {
        gen_op(&mut self.rng, &mut self.pc, &mut self.call_stack, &self.mem)
    }

    fn filler(&mut self) -> Instr {
        let pc = self.pc;
        match self.filler_op() {
            None => Instr::Alu { pc },
            Some(op) => op.to_instr(pc),
        }
    }

    /// Pulls the next trace record, draining any chunk-buffered records
    /// before touching the trace iterator.
    #[inline]
    fn next_record(&mut self) -> Option<BranchRecord> {
        if self.rec_pos < self.rec_len {
            let r = self.rec_buf[self.rec_pos];
            self.rec_pos += 1;
            return Some(r);
        }
        self.trace.next()
    }

    /// Like [`ProgramStream::next_record`], but refills the buffer
    /// through [`Trace::fill`] when it runs dry — the chunked path's
    /// amortized record source.
    #[inline]
    fn next_record_refilling(&mut self) -> Option<BranchRecord> {
        if self.rec_pos == self.rec_len {
            if self.rec_buf.len() < REC_CHUNK {
                self.rec_buf.resize(
                    REC_CHUNK,
                    BranchRecord {
                        branch: BranchId::new(0),
                        taken: false,
                        instr: 0,
                    },
                );
            }
            self.rec_len = self.trace.fill(&mut self.rec_buf);
            self.rec_pos = 0;
            if self.rec_len == 0 {
                return None;
            }
        }
        let r = self.rec_buf[self.rec_pos];
        self.rec_pos += 1;
        Some(r)
    }

    /// Fills `block` with up to `max_branches` branch events' worth of
    /// instructions, in every view (per-kind arms, records arm and `ops`
    /// mirror), and returns the number of branch events produced (0 at
    /// end of stream). The block is cleared first.
    ///
    /// Draw-for-draw identical to pulling the same instructions through
    /// the [`Iterator`] — one shared generation point (`filler_op`)
    /// and the same record/gap state — so chunked consumers see exactly
    /// the per-event stream, and the two access styles may interleave on
    /// one stream (each continues where the other stopped).
    pub fn fill_block(&mut self, block: &mut InstrBlock, max_branches: u64) -> u64 {
        self.fill_block_impl::<true>(block, max_branches)
    }

    /// [`ProgramStream::fill_block`] without the records arm and the
    /// interleaved `ops` mirror: same stream, same draws, per-kind arms
    /// only. For consumers that batch-step whole blocks and run no
    /// controller (the superscalar baseline).
    pub fn fill_block_arms(&mut self, block: &mut InstrBlock, max_branches: u64) -> u64 {
        self.fill_block_impl::<false>(block, max_branches)
    }

    fn fill_block_impl<const WITH_OPS: bool>(
        &mut self,
        block: &mut InstrBlock,
        max_branches: u64,
    ) -> u64 {
        block.clear();
        debug_assert!(max_branches > 0, "blocks must hold at least one event");
        let mut alus: u32 = 0;
        let mut instructions: u64 = 0;
        let mut branches: u64 = 0;
        // Hoist the generator's scalar state (and the RNG) into locals so
        // the hot loop keeps it in registers; written back on every exit.
        let mut rng = self.rng.clone();
        let mut pc = self.pc;
        let mut block_left = self.block_left;
        let mem = self.mem;
        loop {
            while block_left > 0 {
                block_left -= 1;
                instructions += 1;
                match gen_op(&mut rng, &mut pc, &mut self.call_stack, &mem) {
                    None => alus += 1,
                    Some(mut op) => {
                        // Loads and stores are a random mix, so the store
                        // tag is selected, not branched on.
                        let store = op.kind == OpKind::Store;
                        if store || op.kind == OpKind::Load {
                            block.mem.push(op.a | (STORE_BIT * u64::from(store)));
                        } else {
                            block.misc.push(op);
                        }
                        if WITH_OPS {
                            op.gap = alus;
                            block.ops.push(op);
                        }
                        alus = 0;
                    }
                }
            }
            if let Some(record) = self.pending_branch.take() {
                // Branch PC is a stable function of the static branch.
                let index = record.branch.index() as u32;
                pc = BRANCH_PC_BASE + u64::from(index) * 64 + 4;
                if WITH_OPS {
                    block.records.push(record);
                    block.marks.push(BranchMark {
                        ops: block.ops.len(),
                        mem: block.mem.len(),
                        misc: block.misc.len(),
                        instructions,
                    });
                    block.ops.push(BlockOp {
                        kind: OpKind::Branch,
                        taken: record.taken,
                        gap: alus,
                        id: index,
                        a: BRANCH_PC_BASE + u64::from(index) * 64,
                        b: record.instr,
                    });
                }
                instructions += 1;
                branches += 1;
                debug_assert!(index < u32::MAX / 2, "branch index fits the cond arm");
                block.cond.push((index << 1) | u32::from(record.taken));
                alus = 0;
                if branches == max_branches {
                    break;
                }
            }
            let Some(record) = self.next_record_refilling() else {
                break;
            };
            let gap = record.instr.saturating_sub(self.last_instr_count).max(1);
            self.last_instr_count = record.instr;
            self.pending_branch = Some(record);
            block_left = gap - 1;
        }
        self.rng = rng;
        self.pc = pc;
        self.block_left = block_left;
        debug_assert_eq!(alus, 0, "streams end at a branch");
        block.instructions = instructions;
        block.branches = branches;
        branches
    }
}

impl Iterator for ProgramStream<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        if self.block_left > 0 {
            self.block_left -= 1;
            return Some(self.filler());
        }
        if let Some(record) = self.pending_branch.take() {
            // Branch PC is a stable function of the static branch.
            let pc = BRANCH_PC_BASE + record.branch.index() as u64 * 64;
            self.pc = pc + 4;
            return Some(Instr::CondBranch { pc, record });
        }
        let record = self.next_record()?;
        let gap = record.instr.saturating_sub(self.last_instr_count).max(1);
        self.last_instr_count = record.instr;
        self.pending_branch = Some(record);
        self.block_left = gap - 1;
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::spec2000;

    fn stream(events: u64) -> Vec<Instr> {
        let pop = spec2000::benchmark("gzip").unwrap().population(events);
        let mem = MemoryModel::for_benchmark("gzip");
        ProgramStream::new(&pop, InputId::Eval, events, 3, mem).collect()
    }

    #[test]
    fn one_branch_per_trace_event() {
        let pop = spec2000::benchmark("gzip").unwrap().population(5_000);
        let mem = MemoryModel::for_benchmark("gzip");
        let branches = ProgramStream::new(&pop, InputId::Eval, 5_000, 3, mem)
            .filter(Instr::is_cond_branch)
            .count();
        assert_eq!(branches, 5_000);
    }

    #[test]
    fn instruction_count_matches_trace_gap() {
        let pop = spec2000::benchmark("gzip").unwrap().population(5_000);
        let last_instr = pop.trace(InputId::Eval, 5_000, 3).last().unwrap().instr;
        let mem = MemoryModel::for_benchmark("gzip");
        let total = ProgramStream::new(&pop, InputId::Eval, 5_000, 3, mem).count() as u64;
        assert_eq!(total, last_instr);
    }

    #[test]
    fn stream_is_deterministic() {
        assert_eq!(stream(2_000), stream(2_000));
    }

    #[test]
    fn mix_is_plausible() {
        let instrs = stream(20_000);
        let loads = instrs
            .iter()
            .filter(|i| matches!(i, Instr::Load { .. }))
            .count();
        let stores = instrs
            .iter()
            .filter(|i| matches!(i, Instr::Store { .. }))
            .count();
        let n = instrs.len() as f64;
        assert!(
            (loads as f64 / n - 0.22).abs() < 0.05,
            "load frac {}",
            loads as f64 / n
        );
        assert!(
            (stores as f64 / n - 0.10).abs() < 0.05,
            "store frac {}",
            stores as f64 / n
        );
    }

    #[test]
    fn calls_and_returns_are_balanced_enough() {
        let instrs = stream(50_000);
        let calls = instrs
            .iter()
            .filter(|i| matches!(i, Instr::Call { .. }))
            .count() as i64;
        let rets = instrs
            .iter()
            .filter(|i| matches!(i, Instr::Return { .. }))
            .count() as i64;
        assert!(calls > 0);
        assert!(
            (calls - rets).abs() <= 24,
            "calls {calls} vs returns {rets}"
        );
    }

    #[test]
    fn memory_models_differ_by_benchmark() {
        let mcf = MemoryModel::for_benchmark("mcf");
        let eon = MemoryModel::for_benchmark("eon");
        assert!(mcf.working_set_kib > eon.working_set_kib);
        let unknown = MemoryModel::for_benchmark("unknown");
        assert_eq!(unknown.working_set_kib, 512);
    }

    #[test]
    fn branch_pcs_are_stable_per_static_branch() {
        let instrs = stream(5_000);
        let mut pc_of_branch = std::collections::HashMap::new();
        for i in &instrs {
            if let Instr::CondBranch { pc, record } = i {
                let prev = pc_of_branch.insert(record.branch, *pc);
                if let Some(prev) = prev {
                    assert_eq!(prev, *pc);
                }
            }
        }
    }

    /// The state-relevant shape of an instruction: kind plus every field
    /// that can reach a cache or predictor. (PC is omitted for non-branch
    /// ops: blocks drop it because nothing downstream consumes it.)
    fn shape(i: &Instr) -> (u8, u64, u64, bool) {
        match *i {
            Instr::Alu { .. } => (0, 0, 0, false),
            Instr::Load { addr, .. } => (1, addr, 0, false),
            Instr::Store { addr, .. } => (2, addr, 0, false),
            Instr::CondBranch { pc, record } => (3, pc, record.instr, record.taken),
            Instr::Call { return_addr, .. } => (4, return_addr, 0, false),
            Instr::Return { target, .. } => (5, target, 0, false),
            Instr::IndirectJump { pc, target } => (6, pc, target, false),
        }
    }

    /// Expands a block's interleaved ops (gap ALUs included) into shapes.
    fn expand(block: &InstrBlock, out: &mut Vec<(u8, u64, u64, bool)>) {
        for op in block.ops() {
            for _ in 0..op.gap {
                out.push((0, 0, 0, false));
            }
            out.push(match op.kind {
                OpKind::Load => (1, op.a, 0, false),
                OpKind::Store => (2, op.a, 0, false),
                OpKind::Branch => (3, op.a, op.b, op.taken),
                OpKind::Call => (4, op.a, 0, false),
                OpKind::Return => (5, op.a, 0, false),
                OpKind::IndirectJump => (6, op.a, op.b, false),
            });
        }
    }

    fn gzip_stream(events: u64) -> (Population, MemoryModel) {
        let pop = spec2000::benchmark("gzip").unwrap().population(events);
        (pop, MemoryModel::for_benchmark("gzip"))
    }

    #[test]
    fn fill_block_expands_to_the_per_event_stream() {
        let (pop, mem) = gzip_stream(5_000);
        let reference: Vec<_> = ProgramStream::new(&pop, InputId::Eval, 5_000, 3, mem)
            .map(|i| shape(&i))
            .collect();
        for max_branches in [1u64, 7, 64, 1024] {
            let mut s = ProgramStream::new(&pop, InputId::Eval, 5_000, 3, mem);
            let mut block = InstrBlock::default();
            let mut got = Vec::with_capacity(reference.len());
            let mut instructions = 0;
            while s.fill_block(&mut block, max_branches) > 0 {
                expand(&block, &mut got);
                instructions += block.instructions();
            }
            assert_eq!(reference, got, "max_branches {max_branches}");
            assert_eq!(instructions, reference.len() as u64);
        }
    }

    #[test]
    fn arm_vectors_mirror_the_interleaved_ops() {
        let (pop, mem) = gzip_stream(5_000);
        let mut full = ProgramStream::new(&pop, InputId::Eval, 5_000, 3, mem);
        let mut arms = ProgramStream::new(&pop, InputId::Eval, 5_000, 3, mem);
        let mut fb = InstrBlock::default();
        let mut ab = InstrBlock::default();
        loop {
            let n = full.fill_block(&mut fb, 64);
            assert_eq!(n, arms.fill_block_arms(&mut ab, 64));
            if n == 0 {
                break;
            }
            // The arms are a projection of the interleaved ops...
            let mut mem_v = Vec::new();
            let mut cond_v = Vec::new();
            let mut records_v = Vec::new();
            let mut misc_v = Vec::new();
            let mut marks_v = Vec::new();
            let mut instructions = 0;
            for (i, op) in fb.ops().iter().enumerate() {
                instructions += u64::from(op.gap);
                match op.kind {
                    OpKind::Load => mem_v.push(op.a),
                    OpKind::Store => mem_v.push(op.a | STORE_BIT),
                    OpKind::Branch => {
                        cond_v.push((op.id << 1) | u32::from(op.taken));
                        records_v.push(op.record());
                        marks_v.push(BranchMark {
                            ops: i,
                            mem: mem_v.len(),
                            misc: misc_v.len(),
                            instructions,
                        });
                    }
                    _ => {
                        let mut flat = *op;
                        flat.gap = 0;
                        misc_v.push(flat);
                    }
                }
                instructions += 1;
            }
            assert_eq!(fb.mem_ops(), mem_v);
            assert_eq!(fb.cond_ops(), cond_v);
            assert_eq!(fb.records(), records_v);
            assert_eq!(fb.marks(), marks_v);
            assert_eq!(fb.end_mark().instructions, instructions);
            assert_eq!(fb.misc_ops(), misc_v);
            // ...and fill_block_arms produces the same arms and counts
            // from the same draws, with no records and no ops mirror.
            assert_eq!(ab.ops(), &[]);
            assert_eq!(ab.records(), &[]);
            assert_eq!(ab.marks(), &[]);
            assert_eq!(fb.mem_ops(), ab.mem_ops());
            assert_eq!(fb.cond_ops(), ab.cond_ops());
            assert_eq!(fb.misc_ops(), ab.misc_ops());
            assert_eq!(fb.instructions(), ab.instructions());
            assert_eq!(fb.branches(), ab.branches());
            // Pushing every op after its gap rebuilds the per-kind arms,
            // as a master builds its distilled task.
            let mut rebuilt = InstrBlock::default();
            for op in fb.ops() {
                rebuilt.push_alus(u64::from(op.gap));
                rebuilt.push_op(op);
            }
            assert_eq!(rebuilt.mem_ops(), fb.mem_ops());
            assert_eq!(rebuilt.cond_ops(), fb.cond_ops());
            assert_eq!(rebuilt.misc_ops(), fb.misc_ops());
            assert_eq!(rebuilt.instructions(), fb.instructions());
            assert_eq!(rebuilt.branches(), fb.branches());
        }
        // Both streams ended in the same state.
        assert!(full.next().is_none() && arms.next().is_none());
    }

    #[test]
    fn iterator_and_fill_block_interleave_on_one_stream() {
        let (pop, mem) = gzip_stream(4_000);
        let reference: Vec<_> = ProgramStream::new(&pop, InputId::Eval, 4_000, 3, mem)
            .map(|i| shape(&i))
            .collect();
        // Alternate per-event pulls (odd counts, to stop mid-gap) with
        // block fills on one stream; the concatenation must be the
        // reference stream.
        let mut s = ProgramStream::new(&pop, InputId::Eval, 4_000, 3, mem);
        let mut block = InstrBlock::default();
        let mut got = Vec::with_capacity(reference.len());
        let mut exhausted = false;
        while !exhausted {
            for _ in 0..13 {
                match s.next() {
                    Some(i) => got.push(shape(&i)),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            if s.fill_block(&mut block, 5) == 0 {
                exhausted = true;
            }
            expand(&block, &mut got);
        }
        assert_eq!(reference, got);
    }
}
