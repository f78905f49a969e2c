//! `controller-stream`: the library user's path. One long `gcc` trace is
//! materialized in set-up; each iteration feeds the same records in fixed
//! chunks through a 1-shard chunked `ReactiveController` and then through a
//! 2-shard routed `ShardedController` whose pool leaves one core to the
//! routing thread (see [`routed_threads`]).
//! The traced run, after its timed phase, also times the 2-shard controller
//! on a pool of one thread per core, checkpoint round trips of the 2-shard
//! controller, the shape a serving tenant has, and then runs the serve
//! phase: an in-process `rsc_serve::Server` that sheds and restores
//! tenants through its checkpoint store (see [`serve_churn`]).

use super::Counts;
use crate::harness::{self, Ctx, Measured};
use crate::report::{median, quantile, Outcome};
use rsc_control::{
    ControlStats, ControllerCheckpoint, ControllerParams, ReactiveController, ReferenceController,
    ShardedController, TransitionLogPolicy,
};
use rsc_serve::{ChaosConfig, CheckpointStore, Frame, QuotaConfig, Server, ServerConfig, Tenant};
use rsc_trace::io::write_trace;
use rsc_trace::{spec2000, BranchRecord, InputId};
use std::time::Instant;

const MODEL: &str = "gcc";
const EVENTS: u64 = 4_000_000;
/// Records per `observe_chunk` call: the engine's own chunk size.
const CHUNK: usize = rsc_control::engine::DEFAULT_CHUNK_EVENTS;
/// Events the normative `ReferenceController` replays for the oracle.
const REFERENCE_PREFIX: usize = 250_000;
/// Timed checkpoint round trips per traced run.
const CHECKPOINT_REPS: usize = 5;
/// Timed passes of the 2-shard controller on a full pool per traced run.
const POOL_REPS: usize = 5;
/// Serve phase: tenants, live slots, frames per tenant and records per
/// frame. With 12 tenants over 4 slots, every frame after the first four
/// sheds a tenant, and every frame after the first round restores one.
const SERVE_TENANTS: u64 = 12;
const SERVE_LIVE: usize = 4;
const SERVE_ROUNDS: usize = 4;
const SERVE_FRAME_EVENTS: usize = 16_384;

/// Pool threads of the timed 2-shard pass. The pooled engine's workers run
/// while the calling thread routes the next block, so a pool as large as
/// the core count oversubscribes the cores. On a 2-core host that made the
/// pass take 0.13–0.45 s from one iteration to the next, against 0.12–0.16 s
/// for the inline engine that a cap of 1 selects; a cap of one less than
/// the core count keeps every thread on a core of its own.
fn routed_threads(cores: usize) -> usize {
    cores.saturating_sub(1).max(1)
}

fn one_shard(records: &[BranchRecord]) -> ControlStats {
    let mut ctl = ReactiveController::builder(ControllerParams::scaled())
        .log_policy(TransitionLogPolicy::CountsOnly)
        .build()
        .expect("valid params");
    for chunk in records.chunks(CHUNK) {
        ctl.observe_chunk(chunk);
    }
    ctl.stats()
}

fn two_shards(records: &[BranchRecord], threads: usize) -> ShardedController {
    let mut ctl = ReactiveController::builder(ControllerParams::scaled())
        .log_policy(TransitionLogPolicy::CountsOnly)
        .shards(2)
        .pool_threads(threads)
        .build_sharded()
        .expect("valid params");
    for chunk in records.chunks(CHUNK) {
        ctl.observe_chunk(chunk);
    }
    ctl
}

/// Times snapshot-to-bytes and bytes-to-restored-controller on a 2-shard
/// controller that has seen the whole stream; every restore must keep the
/// controller's stats.
fn checkpoint_round_trips(records: &[BranchRecord], threads: usize, out: &mut Outcome) {
    let ctl = two_shards(records, threads);
    let (mut save, mut restore, mut bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..CHECKPOINT_REPS {
        let t = Instant::now();
        let blob = ctl.snapshot().into_bytes();
        save.push(t.elapsed().as_secs_f64());
        bytes = blob.len();
        let t = Instant::now();
        let back = ShardedController::restore(&ControllerCheckpoint::from_bytes(blob));
        restore.push(t.elapsed().as_secs_f64());
        out.check(
            back.is_ok_and(|b| b.stats() == ctl.stats()),
            "checkpoint round trip keeps the stats",
        );
    }
    out.set("checkpoint.save_s", median(&save));
    out.set("checkpoint.restore_s", median(&restore));
    out.set("checkpoint.bytes", bytes as f64);
}

/// The per-event `observe` path over `records`.
fn per_event(records: &[BranchRecord]) -> ControlStats {
    let mut ctl = ReactiveController::builder(ControllerParams::scaled())
        .build()
        .expect("valid params");
    for r in records {
        ctl.observe(r);
    }
    ctl.stats()
}

/// Times [`POOL_REPS`] passes of the 2-shard controller on a pool of one
/// thread per core, and returns their stats for the oracle.
fn pooled_passes(records: &[BranchRecord], cores: usize, out: &mut Outcome) -> Vec<ControlStats> {
    let (mut secs, mut stats) = (Vec::new(), Vec::new());
    for _ in 0..POOL_REPS {
        let t = Instant::now();
        stats.push(two_shards(records, cores).stats());
        secs.push(t.elapsed().as_secs_f64());
    }
    out.set("par.pool_s", median(&secs));
    stats
}

/// Checks each iteration's (1-shard, 2-shard) stats and each pooled pass's
/// stats against the per-event path, and the per-event path against
/// `ReferenceController` on a prefix.
fn check(
    out: &mut Outcome,
    records: &[BranchRecord],
    outputs: &[(ControlStats, ControlStats)],
    pooled: &[ControlStats],
) {
    let want = per_event(records);
    for (i, (s1, s2)) in outputs.iter().enumerate() {
        out.check(*s1 == want, &format!("iteration {i}: 1-shard stats"));
        out.check(*s2 == want, &format!("iteration {i}: 2-shard stats"));
    }
    for (i, s) in pooled.iter().enumerate() {
        out.check(*s == want, &format!("pooled pass {i}: 2-shard stats"));
    }
    let prefix = &records[..REFERENCE_PREFIX.min(records.len())];
    let mut reference = ReferenceController::new(ControllerParams::scaled()).expect("valid params");
    for r in prefix {
        reference.observe(r);
    }
    out.check(
        reference.stats() == per_event(prefix),
        "per-event stats equal ReferenceController on the prefix",
    );
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let model = spec2000::benchmark(MODEL).expect("known benchmark");
    let threads = routed_threads(ctx.threads);
    let m = harness::measure(
        ctx,
        || {
            let pop = model.population(EVENTS);
            pop.trace(InputId::Eval, EVENTS, ctx.seed)
                .collect::<Vec<BranchRecord>>()
        },
        |records| (one_shard(records), two_shards(records, threads).stats()),
        |records, rec, run, root| {
            (
                rec.scope("control.shards1", Some(root), run, |_| one_shard(records)),
                rec.scope("control.shards2", Some(root), run, |_| {
                    two_shards(records, threads).stats()
                }),
            )
        },
    );
    let records = &m.state;

    let mut out = Outcome::default();
    let traced: Vec<_> = m.traced.iter().map(|t| t.output).collect();
    let pooled = if ctx.trace {
        pooled_passes(records, ctx.threads, &mut out)
    } else {
        Vec::new()
    };
    check(
        &mut out,
        records,
        &[m.outputs.clone(), traced].concat(),
        &pooled,
    );

    if ctx.trace {
        let t = m.median_traced();
        let counts = Counts::default();
        counts.control(&t.output.0);
        counts.control(&t.output.1);
        counts.report(&mut out);
        // The one trace pass happens in set-up, outside the iteration.
        out.set("trace.events", records.len() as f64);
        out.set("trace.passes", 1.0);
        out.set("trace.distinct_streams", 1.0);
        let s1 = harness::span_seconds(&m, t.run, "control.shards1");
        let s2 = harness::span_seconds(&m, t.run, "control.shards2");
        out.set("control.shards1.busy_s", s1);
        out.set("control.shards2.busy_s", s2);
        out.set("control.shard2_speedup", s1 / s2);
        out.set(
            "control.events_per_s",
            2.0 * records.len() as f64 / (s1 + s2),
        );
        checkpoint_round_trips(records, ctx.threads, &mut out);
        serve_churn(ctx, &m, &mut out)?;
    } else {
        out.set(
            "paper_err_pp",
            (m.outputs[0].0.correct_frac() * 100.0 - model.paper.pct_spec).abs(),
        );
    }
    harness::finish(ctx, "controller-stream", &m, 2 * EVENTS, &mut out)?;
    Ok(out)
}

/// Frame `i` of the serve phase goes to tenant `i % SERVE_TENANTS` and
/// carries the `i`-th [`SERVE_FRAME_EVENTS`] records of the trace.
fn serve_frames(records: &[BranchRecord]) -> impl Iterator<Item = (u64, &[BranchRecord])> {
    records
        .chunks(SERVE_FRAME_EVENTS)
        .take(SERVE_TENANTS as usize * SERVE_ROUNDS)
        .enumerate()
        .map(|(i, chunk)| (i as u64 % SERVE_TENANTS, chunk))
}

/// The serve phase of a traced run, after the timed phase and under a
/// root span of its own: an in-process `rsc_serve::Server`, driven through
/// `Server::respond`, receives [`SERVE_ROUNDS`] rounds of one frame per
/// tenant, with more tenants than live slots, so nearly every frame sheds
/// one tenant to the checkpoint store and restores another. After a
/// drain, every tenant record is loaded back and saved again through a
/// `CheckpointStore`, and each restored tenant's stats must equal the
/// per-event path over the frames it received.
fn serve_churn(
    ctx: &Ctx,
    m: &Measured<Vec<BranchRecord>, (ControlStats, ControlStats)>,
    out: &mut Outcome,
) -> Result<(), String> {
    let records = &m.state;
    let dir = ctx.out_dir.join("serve-store");
    // A store left by an interrupted run would restore stale tenants.
    let _ = std::fs::remove_dir_all(&dir);
    let frames: Vec<(u64, Vec<u8>, u64)> = serve_frames(records)
        .map(|(tenant, chunk)| {
            let mut payload = Vec::new();
            write_trace(&mut payload, chunk.iter().copied()).expect("writing to a Vec cannot fail");
            (tenant, payload, chunk.len() as u64)
        })
        .collect();
    let mut cfg = ServerConfig::new(&dir);
    cfg.max_live_tenants = SERVE_LIVE;
    let server = Server::new(cfg).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let run = m.traced.len() as u32;
    let rec = &m.recorder;
    let mut store = rec
        .scope("serve.churn", None, run, |root| {
            for (tenant, payload, events) in frames {
                let reply = rec.scope("serve.frame", Some(root), run, |_| {
                    server.respond(Frame::Events { tenant, payload })
                });
                out.check(
                    matches!(reply, Frame::Ack { accepted, .. } if accepted == events),
                    &format!("serve: tenant {tenant} frame acknowledged whole"),
                );
            }
            let drained = server.drain();
            out.check(drained.failed == 0, "serve: drain flushed every tenant");
            CheckpointStore::open(&dir, ChaosConfig::off())
        })
        .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let c = server.counters();
    drop(server);
    out.set("serve.frames", c.frames as f64);
    out.set("serve.shed", c.shed_tenants as f64);
    out.set("serve.restored", c.restores as f64);
    out.set("serve.rejects", c.rejected_frames as f64);
    let frame_s = harness::span_durations(m, run, "serve.frame");
    out.set("serve.frame_p50_s", median(&frame_s));
    // The highest percentile with at least ten of the 48 frames beyond it.
    out.set("serve.frame_p75_s", quantile(&frame_s, 0.75));

    for tenant in 0..SERVE_TENANTS {
        let loaded = rec.scope("serve.load", None, run, |_| store.load(tenant));
        let Ok(Some(record)) = loaded else {
            out.check(false, &format!("serve: tenant {tenant} record loads"));
            continue;
        };
        let mine: Vec<BranchRecord> = serve_frames(records)
            .filter(|(t, _)| *t == tenant)
            .flat_map(|(_, chunk)| chunk.iter().copied())
            .collect();
        out.check(
            Tenant::from_record(&record, QuotaConfig::unlimited())
                .is_ok_and(|t| t.stats() == per_event(&mine)),
            &format!("serve: tenant {tenant} restores with per-event stats"),
        );
        let saved = rec.scope("serve.save", None, run, |_| store.save(&record));
        out.check(
            saved.is_ok(),
            &format!("serve: tenant {tenant} record saves"),
        );
    }
    out.set(
        "serve.load_s",
        median(&harness::span_durations(m, run, "serve.load")),
    );
    out.set(
        "serve.save_s",
        median(&harness::span_durations(m, run, "serve.save")),
    );
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_mismatch_counts_as_failed() {
        let pop = spec2000::benchmark(MODEL)
            .expect("known benchmark")
            .population(60_000);
        let records: Vec<BranchRecord> = pop.trace(InputId::Eval, 60_000, 3).collect();
        let good = (one_shard(&records), two_shards(&records, 2).stats());
        let mut out = Outcome::default();
        check(&mut out, &records, &[good], &[]);
        assert_eq!((out.attempted, out.failed), (3, 0));

        let mut bad = good;
        bad.1.incorrect += 1;
        let mut out = Outcome::default();
        check(&mut out, &records, &[good, bad], &[good.1]);
        assert_eq!((out.attempted, out.failed), (6, 1));
        assert!(out.failed_frac() > 0.0);
    }

    #[test]
    fn the_routed_pass_leaves_a_core_to_the_router() {
        assert_eq!(routed_threads(1), 1);
        assert_eq!(routed_threads(2), 1);
        assert_eq!(routed_threads(4), 3);
    }
}
