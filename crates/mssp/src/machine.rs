//! The MSSP machine: a master executing distilled tasks on the leading
//! core, verified by trailing cores, with a dynamic optimizer driven by a
//! speculation controller.
//!
//! The model is task-granular, as in the paper: any misspeculation inside a
//! task prevents the whole task from committing; detection happens when the
//! trailing execution finishes checking the task (hundreds of cycles after
//! the fact), and recovery restarts the master from the checkpoint.

use crate::cache::Cache;
use crate::config::{CoreConfig, MachineConfig};
use crate::distill::{Distiller, SkipAccumulator};
use crate::program::{Instr, InstrBlock, MemoryModel, OpKind, ProgramStream};
use crate::timing::{CoreModel, StepMemo};
use rsc_control::{ControllerParams, ReactiveController, SpecDecision, TransitionLogPolicy};
use rsc_trace::{InputId, Population};

/// Branch events per block on the chunked baseline path (tasks set the
/// block size on the MSSP paths).
const BASELINE_BLOCK_EVENTS: u64 = 2048;

/// Parameters of one MSSP simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsspParams {
    /// Hardware configuration.
    pub machine: MachineConfig,
    /// Speculation-control policy for the dynamic optimizer.
    pub controller: ControllerParams,
    /// Branch events per task (tasks span a few hundred instructions).
    pub task_events: u64,
    /// Cycles to restore the master from the trailing checkpoint after a
    /// detected misspeculation (on top of the detection delay).
    pub recovery_cycles: u64,
    /// Fixed per-task master overhead (checkpoint/fork), in cycles.
    pub task_overhead_cycles: u64,
}

impl MsspParams {
    /// Defaults: Table 5 hardware, the scaled reactive controller, tasks of
    /// 64 branch events (~400 instructions), 100-cycle restart.
    pub fn new() -> Self {
        MsspParams {
            machine: MachineConfig::table5(),
            controller: ControllerParams::scaled(),
            task_events: 64,
            recovery_cycles: 100,
            task_overhead_cycles: 4,
        }
    }

    /// Replaces the controller policy.
    pub fn with_controller(mut self, controller: ControllerParams) -> Self {
        self.controller = controller;
        self
    }
}

impl Default for MsspParams {
    fn default() -> Self {
        MsspParams::new()
    }
}

/// Results of one MSSP simulation (plus its matching baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsspResult {
    /// Cycles for a plain superscalar run on the leading core.
    pub baseline_cycles: u64,
    /// Cycles for the MSSP execution (last task commit).
    pub mssp_cycles: u64,
    /// Dynamic instructions in the original program.
    pub original_instructions: u64,
    /// Dynamic instructions the master actually executed (distilled).
    pub master_instructions: u64,
    /// Tasks committed.
    pub tasks: u64,
    /// Tasks squashed by misspeculation.
    pub task_misspecs: u64,
    /// Dynamic branch misspeculations observed.
    pub branch_misspecs: u64,
}

impl MsspResult {
    /// Speedup of MSSP over the superscalar baseline (>1 is faster).
    pub fn speedup(&self) -> f64 {
        if self.mssp_cycles == 0 {
            0.0
        } else {
            self.baseline_cycles as f64 / self.mssp_cycles as f64
        }
    }

    /// Fraction of dynamic instructions the distiller removed.
    pub fn distillation_ratio(&self) -> f64 {
        if self.original_instructions == 0 {
            0.0
        } else {
            1.0 - self.master_instructions as f64 / self.original_instructions as f64
        }
    }
}

/// Runs the plain superscalar baseline (the paper's `B` bars): the whole
/// program on the leading core.
pub fn run_baseline(
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
    machine: &MachineConfig,
) -> u64 {
    let mem = MemoryModel::for_benchmark(population.name());
    let mut core = CoreModel::new(machine.leading, machine);
    let mut l2 = Cache::new(machine.l2_kib, machine.l2_assoc, machine.block_bytes);
    for instr in ProgramStream::new(population, input, events, seed, mem) {
        core.step(&instr, &mut l2);
    }
    core.cycles()
}

/// [`run_baseline`] on the chunked fast path: whole instruction blocks
/// through the batched `CoreModel` arms. Bit-identical cycles.
pub fn run_baseline_chunked(
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
    machine: &MachineConfig,
) -> u64 {
    let mem = MemoryModel::for_benchmark(population.name());
    let mut core = BlockCore::new(machine.leading, machine);
    let mut stream = ProgramStream::new(population, input, events, seed, mem);
    let mut block = InstrBlock::default();
    loop {
        stream.fill_block_arms(&mut block, BASELINE_BLOCK_EVENTS);
        if block.is_empty() {
            break;
        }
        core.step_block(&block);
    }
    core.core.cycles()
}

/// Runs the MSSP machine with the given speculation-control policy and
/// returns cycles for both MSSP and the baseline: [`run_mssp_many`] with
/// one master and the baseline core. The result equals [`run_baseline`]
/// plus [`run_mssp_only`] bit for bit.
///
/// # Panics
///
/// Panics if the controller parameters are invalid or `task_events` is 0.
pub fn run_mssp(
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
    params: &MsspParams,
) -> MsspResult {
    run_mssp_many(
        population,
        input,
        events,
        seed,
        true,
        std::slice::from_ref(params),
    )[0]
}

/// What the master side of one task produced, captured so commit-time
/// bookkeeping can run after the task's execution.
struct TaskOutcome {
    /// Dynamic instructions in the original (undistilled) task.
    orig_instr: u64,
    /// Whether any branch in the task misspeculated.
    failed: bool,
    /// Branch misspeculations inside the task.
    branch_misspecs: u64,
    /// Master cycles spent on this task.
    master_cycles_delta: u64,
    /// Master's cumulative instruction count when the task finished.
    master_instr_after: u64,
}

/// Commit-order bookkeeping shared by the per-event and chunked paths:
/// master/slave clocks, task counters, and the recovery arithmetic. One
/// source of truth keeps the two paths bit-identical by construction.
struct Bookkeeper {
    slave_free: Vec<u64>,
    coherence_hop: u64,
    recovery_cycles: u64,
    task_overhead_cycles: u64,
    master_time: u64,
    last_commit: u64,
    tasks: u64,
    task_misspecs: u64,
    branch_misspecs: u64,
    original_instructions: u64,
}

impl Bookkeeper {
    fn new(machine: &MachineConfig, params: &MsspParams) -> Self {
        Bookkeeper {
            slave_free: vec![0u64; machine.trailing_count as usize],
            coherence_hop: u64::from(machine.coherence_hop),
            recovery_cycles: params.recovery_cycles,
            task_overhead_cycles: params.task_overhead_cycles,
            master_time: 0,
            last_commit: 0,
            tasks: 0,
            task_misspecs: 0,
            branch_misspecs: 0,
            original_instructions: 0,
        }
    }

    /// Commits one task: advances the master clock, schedules the
    /// verification on the least-loaded trailing core, and applies the
    /// detection/recovery arithmetic on a squash.
    fn commit(&mut self, outcome: &TaskOutcome, verify_cycles: u64) {
        self.tasks += 1;
        self.branch_misspecs += outcome.branch_misspecs;
        self.original_instructions += outcome.orig_instr;
        self.master_time += outcome.master_cycles_delta + self.task_overhead_cycles;

        let slave = self
            .slave_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &free)| free)
            .map(|(i, _)| i)
            .expect("at least one trailing core");
        let start = self.master_time.max(self.slave_free[slave]) + self.coherence_hop;
        let done = start + verify_cycles;
        self.slave_free[slave] = done;

        if outcome.failed {
            self.task_misspecs += 1;
            // Detection happens when the checker reaches the bad value;
            // the master then restarts from the trailing state and redoes
            // the task without the offending optimization.
            let master_cpi = self.master_time as f64 / outcome.master_instr_after.max(1) as f64;
            let reexec = (outcome.orig_instr as f64 * master_cpi.max(0.25)) as u64;
            self.master_time = done + self.recovery_cycles + reexec;
            self.last_commit = self.master_time;
        } else {
            self.last_commit = self.last_commit.max(done);
        }
    }

    fn result(&self, master_instructions: u64) -> MsspResult {
        MsspResult {
            baseline_cycles: 0,
            mssp_cycles: self.master_time.max(self.last_commit),
            original_instructions: self.original_instructions,
            master_instructions,
            tasks: self.tasks,
            task_misspecs: self.task_misspecs,
            branch_misspecs: self.branch_misspecs,
        }
    }
}

/// One core stepped block by block on the chunked path: the core, its
/// private copy of the shared L2, and the memo tied to both.
struct BlockCore {
    core: CoreModel,
    l2: Cache,
    memo: StepMemo,
}

impl BlockCore {
    fn new(cfg: CoreConfig, machine: &MachineConfig) -> Self {
        BlockCore {
            core: CoreModel::new(cfg, machine),
            l2: Cache::new(machine.l2_kib, machine.l2_assoc, machine.block_bytes),
            memo: StepMemo::new(),
        }
    }

    /// Steps the whole block through the batched arms and returns the
    /// cycles it took.
    fn step_block(&mut self, block: &InstrBlock) -> u64 {
        let before = self.core.cycles();
        self.core.step_block(block, &mut self.l2, &mut self.memo);
        self.core.cycles() - before
    }
}

/// One master of a fan-out: the controller that drives its optimizer,
/// the leading core that runs its distilled tasks, its skip accumulator
/// and its commit-order bookkeeping.
struct Master {
    controller: ReactiveController,
    lead: BlockCore,
    skip: SkipAccumulator,
    book: Bookkeeper,
}

impl Master {
    fn new(params: &MsspParams, static_branches: usize) -> Self {
        let machine = &params.machine;
        let mut controller = ReactiveController::builder(params.controller)
            .log_policy(TransitionLogPolicy::CountsOnly)
            .build()
            .expect("controller parameters must be valid");
        // N masters hold N branch tables at once: size each exactly.
        controller.reserve_branches(static_branches);
        Master {
            controller,
            lead: BlockCore::new(machine.leading, machine),
            skip: SkipAccumulator::new(),
            book: Bookkeeper::new(machine, params),
        }
    }

    /// Executes one distilled task (one block) and commits it with the
    /// trailing core's `verify_cycles`. Identical decision and draw order
    /// to the per-event loop: the ALU gap before each op is skip-tested
    /// instruction by instruction (the accumulator is f64 state, so
    /// closed forms would round differently), but when no elimination is
    /// active the gap retires in closed form — the common case, since
    /// `elim_frac` starts at zero every task.
    fn run_task(&mut self, distiller: &Distiller, block: &InstrBlock, verify_cycles: u64) {
        let BlockCore { core, l2, memo } = &mut self.lead;
        let cycles_before = core.cycles();
        let mut elim_frac = 0.0f64;
        let mut failed = false;
        let mut misspecs = 0u64;
        for op in block.ops() {
            let gap = u64::from(op.gap);
            if gap > 0 {
                if elim_frac > 0.0 {
                    let mut kept = 0u64;
                    for _ in 0..gap {
                        if !self.skip.skip(elim_frac) {
                            kept += 1;
                        }
                    }
                    core.retire_alus(kept);
                } else {
                    core.retire_alus(gap);
                }
            }
            if op.kind == OpKind::Branch {
                let record = op.record();
                match self.controller.observe(&record) {
                    SpecDecision::Correct => {
                        // Branch (and, downstream, part of its feeding
                        // computation) vanishes from the master.
                        elim_frac = distiller.elim_frac(record.branch);
                    }
                    SpecDecision::Incorrect => {
                        misspecs += 1;
                        failed = true;
                        elim_frac = 0.0;
                        core.exec_op(op, l2, memo);
                    }
                    SpecDecision::NotSpeculated => {
                        elim_frac = 0.0;
                        core.exec_op(op, l2, memo);
                    }
                }
            } else if elim_frac > 0.0 && self.skip.skip(elim_frac) {
                // Dead-code elimination from the most recent correct
                // speculation thins the surrounding block.
            } else {
                core.exec_op(op, l2, memo);
            }
        }
        let outcome = TaskOutcome {
            orig_instr: block.instructions(),
            failed,
            branch_misspecs: misspecs,
            master_cycles_delta: core.cycles() - cycles_before,
            master_instr_after: core.stats().instructions,
        };
        self.book.commit(&outcome, verify_cycles);
    }
}

/// Runs only the MSSP side (no baseline), one instruction at a time,
/// leaving [`MsspResult::baseline_cycles`] at zero. This is the per-event
/// oracle that [`run_mssp_many`] must match for each of its masters.
///
/// # Panics
///
/// Panics if the controller parameters are invalid or `task_events` is 0.
pub fn run_mssp_only(
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
    params: &MsspParams,
) -> MsspResult {
    assert!(
        params.task_events > 0,
        "tasks must contain at least one event"
    );
    let machine = &params.machine;
    let mem = MemoryModel::for_benchmark(population.name());

    let mut controller = ReactiveController::builder(params.controller)
        .log_policy(TransitionLogPolicy::CountsOnly)
        .build()
        .expect("controller parameters must be valid");
    let distiller = Distiller::new(population.static_branches(), seed);

    let mut master = CoreModel::new(machine.leading, machine);
    let mut master_l2 = Cache::new(machine.l2_kib, machine.l2_assoc, machine.block_bytes);
    // One trailing model stands in for the checking work; its cycle deltas
    // price each task's verification.
    let mut trail = CoreModel::new(machine.trailing, machine);
    let mut trail_l2 = Cache::new(machine.l2_kib, machine.l2_assoc, machine.block_bytes);

    let mut book = Bookkeeper::new(machine, params);

    let mut stream = ProgramStream::new(population, input, events, seed, mem).peekable();

    let mut skip = SkipAccumulator::new();

    while stream.peek().is_some() {
        // ---- master executes one distilled task ----
        let master_cycles_before = master.cycles();
        let trail_cycles_before = trail.cycles();
        let mut task_branches = 0u64;
        let mut task_failed = false;
        let mut task_orig_instr = 0u64;
        let mut task_branch_misspecs = 0u64;
        let mut elim_frac = 0.0f64;

        while task_branches < params.task_events {
            let Some(instr) = stream.next() else { break };
            task_orig_instr += 1;
            // The trailing execution always checks the original program.
            trail.step(&instr, &mut trail_l2);

            match instr {
                Instr::CondBranch { record, .. } => {
                    task_branches += 1;
                    match controller.observe(&record) {
                        SpecDecision::Correct => {
                            // Branch (and, downstream, part of its feeding
                            // computation) vanishes from the master.
                            elim_frac = distiller.elim_frac(record.branch);
                        }
                        SpecDecision::Incorrect => {
                            task_branch_misspecs += 1;
                            task_failed = true;
                            elim_frac = 0.0;
                            master.step(&instr, &mut master_l2);
                        }
                        SpecDecision::NotSpeculated => {
                            elim_frac = 0.0;
                            master.step(&instr, &mut master_l2);
                        }
                    }
                }
                other => {
                    // Dead-code elimination from the most recent correct
                    // speculation thins the surrounding block.
                    if elim_frac > 0.0 && skip.skip(elim_frac) {
                        continue;
                    }
                    master.step(&other, &mut master_l2);
                }
            }
        }
        if task_orig_instr == 0 {
            break;
        }
        let outcome = TaskOutcome {
            orig_instr: task_orig_instr,
            failed: task_failed,
            branch_misspecs: task_branch_misspecs,
            master_cycles_delta: master.cycles() - master_cycles_before,
            master_instr_after: master.stats().instructions,
        };
        // ---- a trailing core verifies the task ----
        book.commit(&outcome, trail.cycles() - trail_cycles_before);
    }

    book.result(master.stats().instructions)
}

/// [`run_mssp_only`] on the chunked fast path: [`run_mssp_many`] with one
/// master and no baseline core. Bit-identical results.
///
/// # Panics
///
/// Panics if the controller parameters are invalid or `task_events` is 0.
pub fn run_mssp_only_chunked(
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
    params: &MsspParams,
) -> MsspResult {
    run_mssp_many(
        population,
        input,
        events,
        seed,
        false,
        std::slice::from_ref(params),
    )[0]
}

/// Runs one MSSP machine per entry of `params` over a single program
/// stream, on the chunked fast path, and returns their results in
/// `params` order.
///
/// Each task is generated once, as one [`InstrBlock`]. One trailing core
/// steps it through the batched arms and prices its verification. Its
/// cycles do not depend on any controller, so every master shares them.
/// With `with_baseline`, a leading core with no master also steps every
/// block, and its cycles (the [`run_baseline`] cycles) fill each result's
/// [`MsspResult::baseline_cycles`]; without it they stay zero. Each
/// master then runs the task under its own controller, core, L2, skip
/// accumulator and bookkeeper; all masters share one [`Distiller`].
///
/// Every result equals [`run_mssp_only`] for its params bit for bit, so
/// sweeping N controller configurations costs one stream generation and
/// one trailing check instead of N.
///
/// # Panics
///
/// Panics if `params` is empty, if its entries disagree on `machine` or
/// `task_events`, if `task_events` is 0, or if any controller parameters
/// are invalid.
pub fn run_mssp_many(
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
    with_baseline: bool,
    params: &[MsspParams],
) -> Vec<MsspResult> {
    let first = params
        .first()
        .expect("a fan-out needs at least one MsspParams");
    assert!(
        params
            .iter()
            .all(|p| p.machine == first.machine && p.task_events == first.task_events),
        "every MsspParams of one fan-out must share `machine` and `task_events`"
    );
    assert!(
        first.task_events > 0,
        "tasks must contain at least one event"
    );
    let machine = &first.machine;
    let mem = MemoryModel::for_benchmark(population.name());

    let distiller = Distiller::new(population.static_branches(), seed);
    let mut masters: Vec<Master> = params
        .iter()
        .map(|p| Master::new(p, population.static_branches()))
        .collect();
    let mut trail = BlockCore::new(machine.trailing, machine);
    let mut baseline = with_baseline.then(|| BlockCore::new(machine.leading, machine));

    let mut stream = ProgramStream::new(population, input, events, seed, mem);
    let mut block = InstrBlock::default();
    loop {
        stream.fill_block(&mut block, first.task_events);
        if block.is_empty() {
            break;
        }
        if let Some(core) = &mut baseline {
            core.step_block(&block);
        }
        let verify_cycles = trail.step_block(&block);
        for master in &mut masters {
            master.run_task(&distiller, &block, verify_cycles);
        }
    }

    let baseline_cycles = baseline.map_or(0, |core| core.core.cycles());
    masters
        .iter()
        .map(|m| MsspResult {
            baseline_cycles,
            ..m.book.result(m.lead.core.stats().instructions)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::spec2000;

    fn run(name: &str, events: u64, params: &MsspParams) -> MsspResult {
        let pop = spec2000::benchmark(name).unwrap().population(events);
        run_mssp(&pop, InputId::Eval, events, 11, params)
    }

    #[test]
    fn mssp_beats_baseline_on_biased_benchmark() {
        // vortex: ~80% of dynamic branches on stable highly-biased
        // branches; distillation should win clearly once branches have had
        // enough executions to classify.
        let r = run("vortex", 2_000_000, &MsspParams::new());
        assert!(
            r.speedup() > 1.05,
            "vortex speedup {} (distilled {:.2})",
            r.speedup(),
            r.distillation_ratio()
        );
        assert!(
            r.distillation_ratio() > 0.10,
            "distilled {}",
            r.distillation_ratio()
        );
    }

    #[test]
    fn open_loop_is_slower_than_closed_loop() {
        let closed = MsspParams::new();
        let open = MsspParams::new().with_controller(ControllerParams::scaled().without_eviction());
        // mcf has many behavior-changing branches in our models.
        let rc = run("mcf", 2_000_000, &closed);
        let ro = run("mcf", 2_000_000, &open);
        assert!(
            ro.speedup() < rc.speedup(),
            "open {} vs closed {}",
            ro.speedup(),
            rc.speedup()
        );
        assert!(ro.task_misspecs > rc.task_misspecs);
    }

    #[test]
    fn misspecs_cluster_into_tasks() {
        let r = run("mcf", 300_000, &MsspParams::new());
        assert!(
            r.task_misspecs <= r.branch_misspecs,
            "task misspecs {} cannot exceed branch misspecs {}",
            r.task_misspecs,
            r.branch_misspecs
        );
    }

    #[test]
    fn results_are_deterministic() {
        let a = run("gzip", 200_000, &MsspParams::new());
        let b = run("gzip", 200_000, &MsspParams::new());
        assert_eq!(a, b);
    }

    #[test]
    fn accounting_is_consistent() {
        let r = run("gzip", 200_000, &MsspParams::new());
        assert!(r.master_instructions <= r.original_instructions);
        assert!(r.tasks > 0);
        assert!(r.mssp_cycles > 0);
        assert!(r.baseline_cycles > 0);
        assert!(r.task_misspecs <= r.tasks);
    }

    #[test]
    fn zero_latency_and_high_latency_are_close() {
        // The paper's Figure 8 claim, smoke-tested at small scale.
        let fast = MsspParams::new().with_controller(ControllerParams::scaled().with_latency(0));
        let slow =
            MsspParams::new().with_controller(ControllerParams::scaled().with_latency(100_000));
        let rf = run("twolf", 400_000, &fast);
        let rs = run("twolf", 400_000, &slow);
        let ratio = rs.speedup() / rf.speedup();
        assert!(
            (0.85..=1.05).contains(&ratio),
            "latency sensitivity too high: {ratio} ({} vs {})",
            rs.speedup(),
            rf.speedup()
        );
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_task_events_panics() {
        let mut p = MsspParams::new();
        p.task_events = 0;
        run("gzip", 1_000, &p);
    }

    #[test]
    fn chunked_baseline_is_bit_identical() {
        for name in ["gzip", "mcf"] {
            let pop = spec2000::benchmark(name).unwrap().population(100_000);
            let m = MachineConfig::table5();
            let a = run_baseline(&pop, InputId::Eval, 100_000, 11, &m);
            let b = run_baseline_chunked(&pop, InputId::Eval, 100_000, 11, &m);
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn chunked_mssp_is_bit_identical() {
        let pop = spec2000::benchmark("gcc").unwrap().population(100_000);
        let p = MsspParams::new();
        let per_event = run_mssp_only(&pop, InputId::Eval, 100_000, 11, &p);
        let chunked = run_mssp_only_chunked(&pop, InputId::Eval, 100_000, 11, &p);
        assert_eq!(per_event, chunked);
    }

    #[test]
    fn single_event_tasks_are_bit_identical() {
        // task_events=1 makes every task a single branch event, so any
        // squash is a squash on the task's final event.
        let pop = spec2000::benchmark("mcf").unwrap().population(300_000);
        let mut p = MsspParams::new();
        p.task_events = 1;
        let per_event = run_mssp_only(&pop, InputId::Eval, 300_000, 11, &p);
        let chunked = run_mssp_only_chunked(&pop, InputId::Eval, 300_000, 11, &p);
        assert!(
            per_event.task_misspecs > 0,
            "scenario must exercise squashes"
        );
        assert_eq!(per_event, chunked);
    }

    #[test]
    fn run_mssp_matches_the_per_event_oracle() {
        let pop = spec2000::benchmark("gzip").unwrap().population(30_000);
        let p = MsspParams::new();
        let mut oracle = run_mssp_only(&pop, InputId::Eval, 30_000, 3, &p);
        oracle.baseline_cycles = run_baseline(&pop, InputId::Eval, 30_000, 3, &p.machine);
        assert_eq!(run_mssp(&pop, InputId::Eval, 30_000, 3, &p), oracle);
    }
}
