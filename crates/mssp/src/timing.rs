//! Mechanistic core timing: a one-pass interval model over the instruction
//! stream, driven by real cache and predictor state.
//!
//! Each instruction contributes `1/width` of a dispatch cycle; discrete
//! penalties are added for branch mispredictions (pipeline depth) and
//! memory misses (L2/memory latency divided by the core's achievable
//! memory-level parallelism, a function of window size). This is the
//! standard first-order mechanistic decomposition of superscalar
//! performance, and it is deterministic and fast enough to simulate
//! hundreds of millions of instructions.

use crate::cache::{Access, Cache};
use crate::config::{CoreConfig, MachineConfig};
use crate::predictor::{Gshare, IndirectPredictor, ReturnAddressStack};
use crate::program::{BlockOp, Instr, InstrBlock, OpKind};

/// Cycle accounting for one core.
///
/// `branch_penalty` covers every front-end redirect — conditional
/// mispredictions, return-address-stack misses, and indirect-target
/// misses — and each source has its own event counters, so
/// `branch_penalty` always equals `pipeline_depth * (mispredicts +
/// return_mispredicts + indirect_mispredicts)`. (`branches` and
/// `mispredicts` remain conditional-only, as before.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Instructions executed.
    pub instructions: u64,
    /// Penalty cycles from branch mispredictions (all three sources).
    pub branch_penalty: u64,
    /// Penalty cycles from memory misses.
    pub memory_penalty: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,
    /// Returns executed.
    pub returns: u64,
    /// Returns whose target missed in the return-address stack.
    pub return_mispredicts: u64,
    /// Indirect jumps executed.
    pub indirect_jumps: u64,
    /// Indirect jumps whose predicted target was wrong.
    pub indirect_mispredicts: u64,
}

/// A core timing model with private L1 and front-end predictors.
///
/// The shared L2 lives outside the core (pass it to [`CoreModel::step`]).
#[derive(Debug, Clone)]
pub struct CoreModel {
    cfg: CoreConfig,
    l1: Cache,
    gshare: Gshare,
    ras: ReturnAddressStack,
    indirect: IndirectPredictor,
    l2_latency: u32,
    memory_latency: u32,
    mlp: u64,
    /// Fractional memory-penalty remainder in quarter-load units (see
    /// [`CoreModel::charge_memory`]); carried so small penalties are not
    /// truncated to zero.
    mem_acc: u64,
    stats: TimingStats,
    /// [`CoreModel::step_block`]'s L1-miss buffer, reused block after
    /// block.
    l1_misses: Vec<u64>,
}

impl CoreModel {
    /// Creates a core model from the machine config.
    pub fn new(core: CoreConfig, machine: &MachineConfig) -> Self {
        CoreModel {
            cfg: core,
            l1: Cache::new(core.l1_kib, core.l1_assoc, machine.block_bytes),
            gshare: Gshare::new(machine.gshare_counters),
            ras: ReturnAddressStack::new(machine.ras_entries),
            indirect: IndirectPredictor::new(machine.indirect_entries),
            l2_latency: machine.l2_latency,
            memory_latency: machine.memory_latency,
            // Achievable memory-level parallelism grows with the window.
            mlp: u64::from(core.window / 32).max(1),
            mem_acc: 0,
            stats: TimingStats::default(),
            l1_misses: Vec::new(),
        }
    }

    /// Charges a memory-miss penalty expressed in *quarter-load* units
    /// (`raw_latency * 4` for a load, `raw_latency` for a store, so
    /// stores cost a quarter of the load penalty as before). The charge is
    /// divided by `mlp` in fixed point: whole cycles land in
    /// `memory_penalty` immediately and the sub-cycle remainder carries in
    /// `mem_acc`, so small penalties (e.g. an L2-hit store on a wide
    /// window, `10 / 16`) accumulate instead of truncating to zero.
    #[inline]
    fn charge_memory(&mut self, quarter_loads: u64) {
        self.mem_acc += quarter_loads;
        let den = self.mlp * 4;
        self.stats.memory_penalty += self.mem_acc / den;
        self.mem_acc %= den;
    }

    /// Raw (un-divided) latency of a data access that missed L1.
    #[inline]
    fn l2_or_memory_latency(&self, l2_access: Access) -> u64 {
        if l2_access == Access::Miss {
            u64::from(self.l2_latency + self.memory_latency)
        } else {
            u64::from(self.l2_latency)
        }
    }

    /// Executes one instruction against this core's state, charging
    /// penalties. `l2` is the shared second-level cache.
    #[inline]
    pub fn step(&mut self, instr: &Instr, l2: &mut Cache) {
        self.stats.instructions += 1;
        match *instr {
            Instr::Alu { .. } => {}
            Instr::Load { addr, .. } => {
                if self.l1.access(addr) == Access::Miss {
                    let raw = self.l2_or_memory_latency(l2.access(addr));
                    self.charge_memory(raw * 4);
                }
            }
            Instr::Store { addr, .. } => {
                // Stores retire through the store buffer; misses cost a
                // quarter of the load penalty.
                if self.l1.access(addr) == Access::Miss {
                    let raw = self.l2_or_memory_latency(l2.access(addr));
                    self.charge_memory(raw);
                }
            }
            Instr::CondBranch { pc, record } => {
                self.stats.branches += 1;
                if !self.gshare.predict_and_update(pc, record.taken) {
                    self.stats.mispredicts += 1;
                    self.stats.branch_penalty += u64::from(self.cfg.pipeline_depth);
                }
            }
            Instr::Call { return_addr, .. } => {
                self.ras.push(return_addr);
            }
            Instr::Return { target, .. } => {
                self.stats.returns += 1;
                if !self.ras.predict_return(target) {
                    self.stats.return_mispredicts += 1;
                    self.stats.branch_penalty += u64::from(self.cfg.pipeline_depth);
                }
            }
            Instr::IndirectJump { pc, target } => {
                self.stats.indirect_jumps += 1;
                if !self.indirect.predict_and_update(pc, target) {
                    self.stats.indirect_mispredicts += 1;
                    self.stats.branch_penalty += u64::from(self.cfg.pipeline_depth);
                }
            }
        }
    }

    /// Executes a whole instruction block in one call: the chunked fast
    /// path. ALU instructions fold into a single closed-form addition to
    /// the dispatch term (they touch no other state), and the remaining
    /// ops stream through tight per-kind arms.
    ///
    /// The arms run kind-segregated rather than in program order: loads
    /// and stores touch only the caches, conditional branches only the
    /// gshare, and calls/returns/indirect jumps only the RAS and indirect
    /// table, so reordering *across* kinds cannot change any outcome as
    /// long as order *within* each kind is preserved (which the arm
    /// vectors guarantee). Memory penalties are likewise summed before a
    /// single fixed-point division: `charge_memory`'s carried remainder
    /// makes the final `(memory_penalty, mem_acc)` a function of the sum
    /// of charges alone.
    ///
    /// Bit-identical to feeding the block's instructions through
    /// [`CoreModel::step`] one at a time.
    pub fn step_block(&mut self, block: &InstrBlock, l2: &mut Cache) {
        use crate::program::STORE_BIT;

        self.stats.instructions += block.instructions();

        // Memory arm, in two passes. The L1 pass writes every entry to
        // the miss buffer and advances past it only on a miss, so it has
        // no data-dependent branch; the L2 pass then sees the same misses
        // in the same order as the per-event loop. The caches are
        // separate state machines and the charge is a sum, so splitting
        // the passes changes nothing.
        let mem = block.mem_ops();
        if self.l1_misses.len() < mem.len() {
            self.l1_misses.resize(mem.len(), 0);
        }
        let mut l1_misses = 0usize;
        let miss_buf = &mut self.l1_misses;
        self.l1.lookup_each(mem, !STORE_BIT, |entry, hit| {
            miss_buf[l1_misses] = entry;
            l1_misses += usize::from(!hit);
        });
        let mut l2_misses = 0u64;
        let mut quarter_loads = 0u64;
        let l2_lat = u64::from(self.l2_latency);
        let miss_lat = u64::from(self.l2_latency + self.memory_latency);
        l2.lookup_each(&self.l1_misses[..l1_misses], !STORE_BIT, |entry, hit| {
            l2_misses += u64::from(!hit);
            let raw = if hit { l2_lat } else { miss_lat };
            // Loads charge 4 quarter-loads per latency cycle, stores 1.
            quarter_loads += if entry & STORE_BIT == 0 { raw * 4 } else { raw };
        });
        let l1_misses = l1_misses as u64;
        self.l1.add_counts(mem.len() as u64 - l1_misses, l1_misses);
        l2.add_counts(l1_misses - l2_misses, l2_misses);
        self.charge_memory(quarter_loads);

        // Conditional-branch arm: gshare only.
        let mispredicts = self.gshare.step_cond_arm(block.cond_ops());
        self.stats.branches += block.branches();
        self.stats.mispredicts += mispredicts;
        self.stats.branch_penalty += mispredicts * u64::from(self.cfg.pipeline_depth);

        // Rare-op arm: calls, returns, and indirect jumps in stream order.
        for op in block.misc_ops() {
            self.misc_op(op);
        }
    }

    /// One op of the rare-op arm: a call, return, or indirect jump.
    #[inline]
    fn misc_op(&mut self, op: &BlockOp) {
        match op.kind {
            OpKind::Call => self.ras.push(op.a),
            OpKind::Return => {
                self.stats.returns += 1;
                if !self.ras.predict_return(op.a) {
                    self.stats.return_mispredicts += 1;
                    self.stats.branch_penalty += u64::from(self.cfg.pipeline_depth);
                }
            }
            OpKind::IndirectJump => {
                self.stats.indirect_jumps += 1;
                if !self.indirect.predict_and_update(op.a, op.b) {
                    self.stats.indirect_mispredicts += 1;
                    self.stats.branch_penalty += u64::from(self.cfg.pipeline_depth);
                }
            }
            OpKind::Load | OpKind::Store | OpKind::Branch => {
                unreachable!("memory ops and conditional branches have their own arms")
            }
        }
    }

    /// Total cycles so far: dispatch-bound cycles plus penalties.
    pub fn cycles(&self) -> u64 {
        self.stats.instructions.div_ceil(u64::from(self.cfg.width))
            + self.stats.branch_penalty
            + self.stats.memory_penalty
    }

    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.stats.instructions as f64 / c as f64
        }
    }

    /// Raw counters.
    pub fn stats(&self) -> TimingStats {
        self.stats
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::{BranchId, BranchRecord};

    fn machine() -> MachineConfig {
        MachineConfig::table5()
    }

    fn leading() -> (CoreModel, Cache) {
        let m = machine();
        (
            CoreModel::new(m.leading, &m),
            Cache::new(m.l2_kib, m.l2_assoc, m.block_bytes),
        )
    }

    fn branch(pc: u64, taken: bool) -> Instr {
        Instr::CondBranch {
            pc,
            record: BranchRecord {
                branch: BranchId::new(0),
                taken,
                instr: 0,
            },
        }
    }

    #[test]
    fn alu_only_reaches_full_width() {
        let (mut core, mut l2) = leading();
        for _ in 0..4000 {
            core.step(&Instr::Alu { pc: 0 }, &mut l2);
        }
        assert_eq!(core.cycles(), 1000);
        assert!((core.ipc() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn predictable_branches_are_cheap() {
        let (mut core, mut l2) = leading();
        for _ in 0..1000 {
            core.step(&branch(0x100, true), &mut l2);
        }
        let s = core.stats();
        // Warm-up mispredicts only: each new history pattern trains its own
        // counter until the history register saturates at all-taken.
        assert!(s.mispredicts < 30, "mispredicts: {}", s.mispredicts);
    }

    #[test]
    fn random_branches_pay_pipeline_penalty() {
        let (mut core, mut l2) = leading();
        let mut x = 12345u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            core.step(&branch(0x100, x & (1 << 33) != 0), &mut l2);
        }
        let s = core.stats();
        assert!(s.mispredicts > 300);
        assert_eq!(s.branch_penalty, s.mispredicts * 12);
        assert!(core.ipc() < 0.5);
    }

    #[test]
    fn cache_resident_loads_are_free_of_memory_penalty() {
        let (mut core, mut l2) = leading();
        // 8 KiB working set fits the 64 KiB L1 (after cold misses).
        for i in 0..100_000u64 {
            core.step(
                &Instr::Load {
                    pc: 0,
                    addr: (i % 128) * 64,
                },
                &mut l2,
            );
        }
        let s = core.stats();
        // Only the 128 cold misses pay.
        assert!(
            s.memory_penalty < 128 * 210,
            "penalty: {}",
            s.memory_penalty
        );
    }

    #[test]
    fn streaming_loads_pay_memory_penalty() {
        let (mut core, mut l2) = leading();
        for i in 0..50_000u64 {
            core.step(
                &Instr::Load {
                    pc: 0,
                    addr: i * 64,
                },
                &mut l2,
            );
        }
        assert!(core.ipc() < 1.0, "ipc: {}", core.ipc());
        assert!(core.stats().memory_penalty > 50_000);
    }

    #[test]
    fn trailing_core_is_slower_than_leading() {
        let m = machine();
        let mut lead = CoreModel::new(m.leading, &m);
        let mut trail = CoreModel::new(m.trailing, &m);
        let mut l2a = Cache::new(m.l2_kib, m.l2_assoc, m.block_bytes);
        let mut l2b = Cache::new(m.l2_kib, m.l2_assoc, m.block_bytes);
        // A mixed stream: ALU + streaming loads.
        for i in 0..20_000u64 {
            let instr = if i % 4 == 0 {
                Instr::Load {
                    pc: 0,
                    addr: i * 64,
                }
            } else {
                Instr::Alu { pc: 0 }
            };
            lead.step(&instr, &mut l2a);
            trail.step(&instr, &mut l2b);
        }
        assert!(lead.ipc() > trail.ipc());
    }

    #[test]
    fn l2_hit_stores_accumulate_fractional_penalty() {
        // Table 5 leading core: window=128 → mlp=4, l2_latency=10. An
        // L2-hit store is worth 10/16 of a cycle; the old integer
        // division truncated every one of them to zero, making store
        // misses free on the leading core.
        let (mut core, mut l2) = leading();
        // Three blocks in the same L1 set (64 KiB 2-way → 32 KiB stride)
        // but different L2 sets: cycling them keeps every store an L1
        // miss while all three stay L2-resident after the cold round.
        let addrs = [0u64, 32 * 1024, 64 * 1024];
        for i in 0..51u64 {
            let addr = addrs[(i % 3) as usize];
            core.step(&Instr::Store { pc: 0, addr }, &mut l2);
        }
        // 3 cold L2 misses (raw 210) + 48 L2-hit stores (raw 10), in
        // quarter-load units: (3*210 + 48*10) / (4*4) = 1110/16 = 69.
        // The truncating accounting charged only the cold misses: 39.
        assert_eq!(core.stats().memory_penalty, 69);
    }

    #[test]
    fn load_penalty_remainder_carries_across_misses() {
        let (mut core, mut l2) = leading();
        // Two isolated memory-miss loads: raw latency 210, mlp 4 →
        // 52.5 cycles each. Truncating per-load gave 104; the carried
        // remainder makes the pair worth the true 105.
        core.step(&Instr::Load { pc: 0, addr: 0 }, &mut l2);
        core.step(
            &Instr::Load {
                pc: 0,
                addr: 1 << 20,
            },
            &mut l2,
        );
        assert_eq!(core.stats().memory_penalty, 105);
    }

    #[test]
    fn return_and_indirect_mispredicts_are_counted() {
        let (mut core, mut l2) = leading();
        // Returns against an empty RAS always mispredict; a repeated
        // indirect jump mispredicts once (cold table) then hits.
        for _ in 0..5 {
            core.step(
                &Instr::Return {
                    pc: 0,
                    target: 0x1234,
                },
                &mut l2,
            );
        }
        core.step(
            &Instr::IndirectJump {
                pc: 0x100,
                target: 0xA,
            },
            &mut l2,
        );
        core.step(
            &Instr::IndirectJump {
                pc: 0x100,
                target: 0xA,
            },
            &mut l2,
        );
        let s = core.stats();
        assert_eq!(s.returns, 5);
        assert_eq!(s.return_mispredicts, 5);
        assert_eq!(s.indirect_jumps, 2);
        assert_eq!(s.indirect_mispredicts, 1);
        assert_eq!(
            s.branch_penalty,
            12 * (s.mispredicts + s.return_mispredicts + s.indirect_mispredicts)
        );
    }

    #[test]
    fn branch_penalty_is_consistent_with_counted_events_on_real_stream() {
        use crate::program::{MemoryModel, ProgramStream};
        use rsc_trace::{spec2000, InputId};

        let pop = spec2000::benchmark("gcc").unwrap().population(50_000);
        let mem = MemoryModel::for_benchmark("gcc");
        let (mut core, mut l2) = leading();
        for instr in ProgramStream::new(&pop, InputId::Eval, 50_000, 9, mem) {
            core.step(&instr, &mut l2);
        }
        let s = core.stats();
        assert!(s.returns > 0, "stream should contain returns");
        assert!(s.indirect_jumps > 0, "stream should contain indirect jumps");
        assert_eq!(
            s.branch_penalty,
            12 * (s.mispredicts + s.return_mispredicts + s.indirect_mispredicts)
        );
    }

    /// The two-pass memory arm of `step_block` against `step`, block by
    /// block, on the leading core (2-way L1) and the trailing one (8-way
    /// L1), each with its own 8-way L2. mcf's 8 MiB working set keeps
    /// both caches missing; gzip's fits the L2.
    #[test]
    fn two_pass_step_block_matches_per_event_step() {
        use crate::program::{MemoryModel, ProgramStream};
        use rsc_trace::{spec2000, InputId};

        let m = machine();
        for (cfg, assoc) in [(m.leading, 2), (m.trailing, 8)] {
            assert_eq!(cfg.l1_assoc, assoc);
            for name in ["mcf", "gzip"] {
                let pop = spec2000::benchmark(name).unwrap().population(40_000);
                let mem = MemoryModel::for_benchmark(name);
                let l2 = || Cache::new(m.l2_kib, m.l2_assoc, m.block_bytes);
                let (mut batched, mut batched_l2) = (CoreModel::new(cfg, &m), l2());
                let (mut single, mut single_l2) = (CoreModel::new(cfg, &m), l2());
                let mut blocks = ProgramStream::new(&pop, InputId::Eval, 40_000, 5, mem);
                let mut instrs = ProgramStream::new(&pop, InputId::Eval, 40_000, 5, mem);
                let mut block = InstrBlock::default();
                while blocks.fill_block_arms(&mut block, 64) > 0 {
                    batched.step_block(&block, &mut batched_l2);
                    for instr in instrs.by_ref().take(block.instructions() as usize) {
                        single.step(&instr, &mut single_l2);
                    }
                    let case = format!("{assoc}-way L1, {name}");
                    assert_eq!(batched.stats(), single.stats(), "{case}");
                    assert_eq!(batched.mem_acc, single.mem_acc, "{case}");
                    for (a, b) in [(&batched.l1, &single.l1), (&batched_l2, &single_l2)] {
                        assert_eq!((a.hits(), a.misses()), (b.hits(), b.misses()), "{case}");
                    }
                }
                assert!(instrs.next().is_none());
                assert!(single_l2.hits() > 0 && single_l2.misses() > 0, "{name}");
            }
        }
    }

    #[test]
    fn return_prediction_uses_ras() {
        let (mut core, mut l2) = leading();
        for i in 0..100u64 {
            core.step(
                &Instr::Call {
                    pc: i * 8,
                    return_addr: i * 8 + 4,
                },
                &mut l2,
            );
            core.step(
                &Instr::Return {
                    pc: 0x9000,
                    target: i * 8 + 4,
                },
                &mut l2,
            );
        }
        assert_eq!(core.stats().branch_penalty, 0);
    }
}
