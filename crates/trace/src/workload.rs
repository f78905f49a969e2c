//! Trace generation: turning a [`Population`] into a dynamic event stream.

use crate::alias::AliasTable;
use crate::behavior::Behavior;
use crate::ids::{BranchId, InputId};
use crate::model::Population;
use crate::record::BranchRecord;
use crate::rng::Xoshiro256;

/// Chunk size of [`Trace::for_each_chunk`]: large enough to amortize
/// dispatch, small enough that a chunk of [`BranchRecord`]s stays in L1/L2.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

/// Per-branch fast-path dispatch, precomputed at trace construction so the
/// per-event loop does not re-match the full [`Behavior`] enum for the
/// overwhelmingly common stationary branches.
#[derive(Debug, Clone, Copy)]
enum OutcomeDispatch {
    /// Stationary probability: no execution-index or group dependence.
    Fixed(f64),
    /// Anything else: evaluate the behavior per event.
    General,
}

/// Hot per-branch state, merged into one record so the per-event loop does
/// a single indexed load instead of walking three parallel arrays.
#[derive(Debug, Clone, Copy)]
struct HotBranch {
    exec: u64,
    dispatch: OutcomeDispatch,
    inverted: bool,
}

/// A deterministic iterator over [`BranchRecord`]s.
///
/// The stream interleaves static branches according to their per-input
/// weights (alias-method sampling), tracks each branch's execution index so
/// its [`Behavior`] can be evaluated, advances a
/// dynamic instruction counter with a small random gap per event, and keeps
/// correlated phase groups in sync with global stream position.
///
/// Two traces constructed with identical `(population, input, events, seed)`
/// produce identical streams.
///
/// # Examples
///
/// ```
/// use rsc_trace::{spec2000, InputId};
/// let model = spec2000::benchmark("gzip").unwrap();
/// let pop = model.population(10_000);
/// let n = pop.trace(InputId::Eval, 10_000, 1).count();
/// assert_eq!(n, 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct Trace<'a> {
    population: &'a Population,
    sampler: AliasTable,
    /// Maps sampler indexes back to branch ids (branches with zero weight on
    /// this input are excluded from the sampler).
    index_map: Vec<u32>,
    hot: Vec<HotBranch>,
    group_active: Vec<bool>,
    /// Sorted (event_index, group) toggle points.
    group_toggles: Vec<(u64, u16)>,
    toggle_cursor: usize,
    events: u64,
    emitted: u64,
    instr: u64,
    gap_base: u64,
    gap_spread: u64,
    rng: Xoshiro256,
}

impl<'a> Trace<'a> {
    /// Creates a trace over `events` branch events.
    ///
    /// # Panics
    ///
    /// Panics if no branch has positive weight on `input`.
    pub(crate) fn new(population: &'a Population, input: InputId, events: u64, seed: u64) -> Self {
        let mut weights = Vec::new();
        let mut index_map = Vec::new();
        for (i, b) in population.branches().iter().enumerate() {
            let w = b.weight(input);
            if w > 0.0 {
                weights.push(w);
                index_map.push(i as u32);
            }
        }
        let sampler =
            AliasTable::new(&weights).expect("population must carry weight on the selected input");

        let mut group_toggles = Vec::new();
        for (g, schedule) in population.phase_groups().iter().enumerate() {
            for b in schedule.absolute_boundaries(events) {
                group_toggles.push((b, g as u16));
            }
        }
        group_toggles.sort_unstable();

        let hot = population
            .branches()
            .iter()
            .map(|b| HotBranch {
                exec: 0,
                dispatch: match b.behavior {
                    Behavior::Fixed { p_taken } => OutcomeDispatch::Fixed(p_taken),
                    _ => OutcomeDispatch::General,
                },
                inverted: b.inverted(input),
            })
            .collect();

        let ipb = population.instr_per_branch().max(1) as u64;
        let rng = Xoshiro256::seed_from(seed)
            .fork(input.stream_id())
            .fork(events);

        Trace {
            population,
            sampler,
            index_map,
            hot,
            group_active: vec![false; population.phase_groups().len()],
            group_toggles,
            toggle_cursor: 0,
            events,
            emitted: 0,
            instr: 0,
            // Gap in [ceil(ipb/2), ceil(ipb/2) + ipb) has mean ~ipb.
            gap_base: ipb.div_ceil(2),
            gap_spread: ipb,
            rng,
        }
    }

    /// Total number of events this trace will produce.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events produced so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The population this trace draws from.
    pub fn population(&self) -> &Population {
        self.population
    }

    /// Fills `buf` with the next events of the stream, returning how many
    /// were written (less than `buf.len()` only at end of trace).
    ///
    /// This is the allocation-free hot path: the caller owns and reuses the
    /// buffer, hot loop state lives in locals, and the behavior dispatch
    /// for stationary branches is precomputed. The stream is **bit
    /// identical** to consuming the [`Iterator`] one event at a time — the
    /// per-event path is a thin wrapper over this method — so chunk size
    /// never changes any downstream result.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsc_trace::{spec2000, BranchId, BranchRecord, InputId};
    /// let pop = spec2000::benchmark("gzip").unwrap().population(10_000);
    /// let mut trace = pop.trace(InputId::Eval, 10_000, 1);
    /// let mut buf =
    ///     [BranchRecord { branch: BranchId::new(0), taken: false, instr: 0 }; 256];
    /// let mut total = 0;
    /// loop {
    ///     let n = trace.fill(&mut buf);
    ///     if n == 0 {
    ///         break;
    ///     }
    ///     total += n;
    /// }
    /// assert_eq!(total, 10_000);
    /// ```
    pub fn fill(&mut self, buf: &mut [BranchRecord]) -> usize {
        let remaining = self.events - self.emitted;
        let n = (buf.len() as u64).min(remaining) as usize;
        if n == 0 {
            return 0;
        }

        // Split the borrow of `self` into per-field borrows and hoist the
        // scalar loop state into locals.
        let Trace {
            population,
            sampler,
            index_map,
            hot,
            group_active,
            group_toggles,
            toggle_cursor,
            emitted,
            instr,
            gap_base,
            gap_spread,
            rng,
            ..
        } = self;
        let branches = population.branches();
        let (gap_base, gap_spread) = (*gap_base, *gap_spread);
        let mut cursor = *toggle_cursor;
        let mut emit = *emitted;
        let mut pos = *instr;

        for out in &mut buf[..n] {
            // Advance correlated group phases that toggle at this position.
            while cursor < group_toggles.len() && group_toggles[cursor].0 <= emit {
                let (_, g) = group_toggles[cursor];
                group_active[g as usize] = !group_active[g as usize];
                cursor += 1;
            }

            let slot = sampler.sample(rng) as usize;
            let idx = index_map[slot] as usize;
            let h = &mut hot[idx];
            let exec = h.exec;
            h.exec = exec + 1;
            let inv = h.inverted;

            let p = match h.dispatch {
                OutcomeDispatch::Fixed(p) => p,
                OutcomeDispatch::General => {
                    let branch = &branches[idx];
                    let active = branch
                        .group
                        .map(|g| group_active[g.index()])
                        .unwrap_or(false);
                    branch.behavior.p_taken(exec, active)
                }
            };
            let taken = rng.gen_bool(p) != inv;

            pos += gap_base + rng.gen_range(gap_spread);
            emit += 1;

            *out = BranchRecord {
                branch: BranchId::new(idx as u32),
                taken,
                instr: pos,
            };
        }

        *toggle_cursor = cursor;
        *emitted = emit;
        *instr = pos;
        n
    }

    /// Streams the rest of the trace through `f`, one chunk of up to
    /// [`DEFAULT_CHUNK_EVENTS`] records at a time, reusing one buffer.
    ///
    /// This is the one chunked driver: every consumer that reads a whole
    /// trace (profiles, evaluators, controllers) takes its chunks from
    /// here, and several consumers can share one generation by reading
    /// the same chunk. Like [`fill`](Self::fill), the concatenated chunks
    /// are the [`Iterator`] stream bit for bit.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsc_trace::{spec2000, InputId};
    /// let pop = spec2000::benchmark("gzip").unwrap().population(10_000);
    /// let (mut events, mut taken) = (0, 0);
    /// pop.trace(InputId::Eval, 10_000, 1).for_each_chunk(|chunk| {
    ///     events += chunk.len();
    ///     taken += chunk.iter().filter(|r| r.taken).count();
    /// });
    /// assert_eq!(events, 10_000);
    /// assert!(taken > 0);
    /// ```
    pub fn for_each_chunk(mut self, mut f: impl FnMut(&[BranchRecord])) {
        let mut buf = vec![
            BranchRecord {
                branch: BranchId::new(0),
                taken: false,
                instr: 0,
            };
            DEFAULT_CHUNK_EVENTS
        ];
        loop {
            let n = self.fill(&mut buf);
            if n == 0 {
                break;
            }
            f(&buf[..n]);
        }
    }
}

impl Iterator for Trace<'_> {
    type Item = BranchRecord;

    /// Thin wrapper over [`Trace::fill`] with a one-event buffer, so the
    /// per-event and chunked paths share a single generation routine (and
    /// therefore cannot diverge).
    #[inline]
    fn next(&mut self) -> Option<BranchRecord> {
        let mut buf = [BranchRecord {
            branch: BranchId::new(0),
            taken: false,
            instr: 0,
        }];
        if self.fill(&mut buf) == 1 {
            Some(buf[0])
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.events - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Trace<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use crate::branch::StaticBranchSpec;
    use crate::group::GroupSchedule;
    use crate::ids::GroupId;
    use crate::model::Population;

    fn two_branch_pop() -> Population {
        Population::from_branches(
            "test",
            6,
            vec![
                StaticBranchSpec::new(Behavior::Fixed { p_taken: 1.0 }, 3.0),
                StaticBranchSpec::new(Behavior::Fixed { p_taken: 0.0 }, 1.0),
            ],
            vec![],
        )
    }

    #[test]
    fn produces_exactly_n_events() {
        let pop = two_branch_pop();
        let trace = pop.trace(InputId::Eval, 1000, 1);
        assert_eq!(trace.events(), 1000);
        assert_eq!(trace.count(), 1000);
    }

    #[test]
    fn is_deterministic() {
        let pop = two_branch_pop();
        let a: Vec<_> = pop.trace(InputId::Eval, 500, 9).collect();
        let b: Vec<_> = pop.trace(InputId::Eval, 500, 9).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let pop = two_branch_pop();
        let a: Vec<_> = pop.trace(InputId::Eval, 500, 1).collect();
        let b: Vec<_> = pop.trace(InputId::Eval, 500, 2).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn weights_control_interleaving() {
        let pop = two_branch_pop();
        let hot = pop
            .trace(InputId::Eval, 40_000, 3)
            .filter(|r| r.branch.index() == 0)
            .count();
        let frac = hot as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn outcomes_follow_behavior() {
        let pop = two_branch_pop();
        for r in pop.trace(InputId::Eval, 5000, 4) {
            if r.branch.index() == 0 {
                assert!(r.taken);
            } else {
                assert!(!r.taken);
            }
        }
    }

    #[test]
    fn instruction_counter_is_monotone_with_plausible_mean() {
        let pop = two_branch_pop();
        let recs: Vec<_> = pop.trace(InputId::Eval, 10_000, 5).collect();
        let mut last = 0;
        for r in &recs {
            assert!(r.instr > last);
            last = r.instr;
        }
        let mean = last as f64 / 10_000.0;
        assert!((5.0..9.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn inverted_branch_flips_outcomes_on_profile_input() {
        let mut spec = StaticBranchSpec::new(Behavior::Fixed { p_taken: 1.0 }, 1.0);
        spec.invert_on_profile = true;
        let pop = Population::from_branches("inv", 6, vec![spec], vec![]);
        assert!(pop.trace(InputId::Eval, 100, 1).all(|r| r.taken));
        assert!(pop.trace(InputId::Profile, 100, 1).all(|r| !r.taken));
    }

    #[test]
    fn zero_weight_branches_are_skipped_per_input() {
        let mut a = StaticBranchSpec::new(Behavior::Fixed { p_taken: 1.0 }, 1.0);
        a.profile_weight = 0.0;
        let b = StaticBranchSpec::new(Behavior::Fixed { p_taken: 0.5 }, 1.0);
        let pop = Population::from_branches("cov", 6, vec![a, b], vec![]);
        assert!(pop
            .trace(InputId::Profile, 2000, 2)
            .all(|r| r.branch.index() == 1));
        let eval_zero = pop
            .trace(InputId::Eval, 2000, 2)
            .filter(|r| r.branch.index() == 0)
            .count();
        assert!(eval_zero > 0);
    }

    #[test]
    fn group_phase_toggles_mid_trace() {
        let mut spec = StaticBranchSpec::new(
            Behavior::Grouped {
                in_phase: 0.0,
                out_phase: 1.0,
            },
            1.0,
        );
        spec.group = Some(GroupId::new(0));
        let pop = Population::from_branches(
            "grp",
            6,
            vec![spec],
            vec![GroupSchedule::new(vec![0.5]).unwrap()],
        );
        let recs: Vec<_> = pop.trace(InputId::Eval, 1000, 7).collect();
        assert!(recs[..500].iter().all(|r| r.taken));
        assert!(recs[500..].iter().all(|r| !r.taken));
    }

    #[test]
    fn exact_size_iterator_contract() {
        let pop = two_branch_pop();
        let mut t = pop.trace(InputId::Eval, 10, 1);
        assert_eq!(t.len(), 10);
        t.next();
        assert_eq!(t.len(), 9);
    }

    fn zero_rec() -> BranchRecord {
        BranchRecord {
            branch: BranchId::new(0),
            taken: false,
            instr: 0,
        }
    }

    #[test]
    fn fill_is_bit_identical_to_iterator() {
        let pop = two_branch_pop();
        let reference: Vec<_> = pop.trace(InputId::Eval, 5_000, 11).collect();
        for chunk in [1usize, 7, 64, 1000, 8192] {
            let mut t = pop.trace(InputId::Eval, 5_000, 11);
            let mut buf = vec![zero_rec(); chunk];
            let mut got = Vec::new();
            loop {
                let n = t.fill(&mut buf);
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, reference, "chunk size {chunk}");
        }
    }

    #[test]
    fn for_each_chunk_streams_the_rest_of_the_trace() {
        let pop = two_branch_pop();
        let reference: Vec<_> = pop.trace(InputId::Eval, 10_000, 11).collect();
        let mut got = Vec::new();
        let mut sizes = Vec::new();
        pop.trace(InputId::Eval, 10_000, 11).for_each_chunk(|c| {
            sizes.push(c.len());
            got.extend_from_slice(c);
        });
        assert_eq!(got, reference);
        assert_eq!(sizes, [DEFAULT_CHUNK_EVENTS, DEFAULT_CHUNK_EVENTS, 1808]);

        // A partly consumed trace streams only what is left.
        let mut t = pop.trace(InputId::Eval, 10_000, 11);
        t.nth(2_999);
        let mut rest = Vec::new();
        t.for_each_chunk(|c| rest.extend_from_slice(c));
        assert_eq!(rest, reference[3_000..]);

        let mut calls = 0;
        pop.trace(InputId::Eval, 0, 11)
            .for_each_chunk(|_| calls += 1);
        assert_eq!(calls, 0, "an empty trace yields no chunk");
    }

    #[test]
    fn fill_interleaves_with_iterator_consumption() {
        let pop = two_branch_pop();
        let reference: Vec<_> = pop.trace(InputId::Eval, 1_000, 13).collect();
        let mut t = pop.trace(InputId::Eval, 1_000, 13);
        let mut got = Vec::new();
        let mut buf = vec![zero_rec(); 97];
        while got.len() < 1_000 {
            if got.len() % 2 == 0 {
                let n = t.fill(&mut buf);
                got.extend_from_slice(&buf[..n]);
            } else if let Some(r) = t.next() {
                got.push(r);
            }
        }
        assert_eq!(got, reference);
    }

    #[test]
    fn fill_handles_empty_buffer_and_exhaustion() {
        let pop = two_branch_pop();
        let mut t = pop.trace(InputId::Eval, 10, 1);
        assert_eq!(t.fill(&mut []), 0);
        let mut buf = vec![zero_rec(); 64];
        assert_eq!(t.fill(&mut buf), 10);
        assert_eq!(t.fill(&mut buf), 0);
        assert_eq!(t.next(), None);
        assert_eq!(t.emitted(), 10);
    }

    #[test]
    fn fill_respects_group_toggles_across_chunk_boundaries() {
        let mut spec = StaticBranchSpec::new(
            Behavior::Grouped {
                in_phase: 0.0,
                out_phase: 1.0,
            },
            1.0,
        );
        spec.group = Some(GroupId::new(0));
        let pop = Population::from_branches(
            "grp",
            6,
            vec![spec],
            vec![GroupSchedule::new(vec![0.5]).unwrap()],
        );
        // Chunk size 333 straddles the toggle at event 500.
        let mut t = pop.trace(InputId::Eval, 1000, 7);
        let mut buf = vec![zero_rec(); 333];
        let mut recs = Vec::new();
        loop {
            let n = t.fill(&mut buf);
            if n == 0 {
                break;
            }
            recs.extend_from_slice(&buf[..n]);
        }
        assert!(recs[..500].iter().all(|r| r.taken));
        assert!(recs[500..].iter().all(|r| !r.taken));
    }
}
