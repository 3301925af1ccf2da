//! `housing_served`: SUM(postcode) over the Housing star join (Fig. 11)
//! through a [`DurableEngine`] at its default durability settings, with
//! snapshot publishes, one subscription and snapshot reads between the
//! writer's updates.

use crate::filevfs::{self, NoSyncVfs, RunDir};
use crate::harness::{close, database, delta, drive, span_share, InlineReads, Tally, Window};
use crate::metrics::Report;
use crate::stats::{self, tail};
use crate::trace::{self, Tracer};
use crate::{Outcome, RECOVERY_OP, SETUPS, SETUP_OP};
use fivm_core::{Delta, Lifting, LiftingMap, Relation, Schema, Tuple, Value};
use fivm_data::{housing, HousingConfig};
use fivm_durability::{DurabilityConfig, DurableEngine};
use fivm_engine::reeval::NaiveReeval;
use fivm_engine::{IvmEngine, Subscriber};
use fivm_query::ViewTree;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Distinct postcodes.
pub const POSTCODES: usize = 20_000;
/// Tuples per postcode in House, Shop and Restaurant.
pub const SCALE: usize = 2;
/// Tuples in the window.
pub const WINDOW: usize = 100_000;
/// Writer steps between publishes: 10 000 updates, the default
/// auto-checkpoint interval, so every slice holds the same number of
/// publishes and checkpoints.
pub const PUBLISH_EVERY: u64 = 5000;
/// Writer steps per slice of the measured phase: 300 000 updates.
pub const SLICE_STEPS: u64 = 30 * PUBLISH_EVERY;
/// Writer steps between two snapshot reads: 1 200 reads a slice, so
/// that a slice's reads support their p99.
pub const READ_EVERY: u64 = 125;
/// Updates past the last checkpoint that recovery replays.
pub const RECOVERY_TAIL: u64 = 5000;
/// Writer steps replayed through a bare engine for the executor's
/// share of an update.
pub const REPLAY_STEPS: u64 = 50_000;
/// The traced run records one in this many writer steps, so that its
/// spans fit in memory (about 30 MB for a 25 s run).
pub const TRACE_EVERY: u64 = 16;
/// Where the durability directories go: the benchmark's own output
/// directory inside its checkout.
pub fn log_parent() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Relative tolerance of the SUM checks: the sums are of integers and
/// exact, so this only absorbs the order of float additions.
const SUM_TOL: f64 = 1e-9;

/// The Housing generator at the benchmark's size.
pub fn housing_input(seed: u64) -> housing::Housing {
    housing::generate(&HousingConfig {
        postcodes: POSTCODES,
        scale: SCALE,
        seed,
    })
}

/// All tuples as one stream in which each relation is spread evenly:
/// a tuple at position `i` of a relation of `n` tuples sits at stream
/// fraction `(i + 0.5) / n`. Every window of the cyclic stream then
/// holds the same share of each relation and of the postcode range,
/// so state size and update cost do not depend on where in the cycle a
/// run is. (Plain round-robin ends with a stretch of House, Shop and
/// Restaurant tuples only.)
pub fn interleave(per_rel: &[Vec<Tuple>]) -> Vec<(usize, Tuple)> {
    let mut all: Vec<(f64, usize, &Tuple)> = per_rel
        .iter()
        .enumerate()
        .flat_map(|(rel, ts)| {
            let n = ts.len() as f64;
            ts.iter()
                .enumerate()
                .map(move |(i, t)| ((i as f64 + 0.5) / n, rel, t))
        })
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.into_iter()
        .map(|(_, rel, t)| (rel, t.clone()))
        .collect()
}

/// Whether two SUM results hold the same keys with sums equal within
/// `SUM_TOL`.
fn same_sums(a: &Relation<f64>, b: &Relation<f64>) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} keys against {}", a.len(), b.len()));
    }
    for (t, pa) in a.iter() {
        match b.get(t) {
            Some(pb) if close(*pa, *pb, SUM_TOL) => {}
            other => return Err(format!("key {t:?}: {pa} against {other:?}")),
        }
    }
    Ok(())
}

/// Fold one drain of the subscription into `mirror`; returns the pairs
/// received, or `None` if the subscription reported a gap.
fn fold(mirror: &mut HashMap<Tuple, f64>, sub: &Subscriber<f64>) -> Option<usize> {
    let mut pairs = 0;
    for msg in sub.drain() {
        let d = msg.into_delta()?;
        pairs += d.pairs.len();
        for (t, p) in d.pairs {
            let v = mirror.get(&t).copied().unwrap_or(0.0) + p;
            if v == 0.0 {
                mirror.remove(&t);
            } else {
                mirror.insert(t, v);
            }
        }
    }
    Some(pairs)
}

/// Run the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    rep: &mut Report,
    tally: &mut Tally,
) -> Outcome {
    let h = housing_input(seed);
    let q = h.query.clone();
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let schemas: Vec<Schema> = q.relations.iter().map(|r| r.schema.clone()).collect();
    let mut lifts = LiftingMap::<f64>::new();
    lifts.set(
        q.catalog.lookup("postcode").expect("Housing has postcode"),
        Lifting::from_fn(|v: &Value| v.as_f64().expect("postcodes are numeric")),
    );
    let stream = interleave(&h.tuples);
    let window = Window::new(stream.len(), WINDOW);
    let window_db = |steps: u64| {
        database::<f64>(
            &q,
            window.contents(steps).map(|i| (stream[i].0, &stream[i].1)),
        )
    };
    let new_engine = |tree: &ViewTree| IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone());
    let cfg = DurabilityConfig::default();
    let mut out = Outcome::default();

    let mut built = None;
    for i in 0..SETUPS {
        let op = SETUP_OP + i;
        let vfs = NoSyncVfs::default();
        let dir = RunDir::new(
            &log_parent(),
            &format!("housing-{}-{i}", std::process::id()),
        )
        .expect("an empty durability directory in the checkout");
        let t0 = Instant::now();
        let tree = tracer.span("query.build", op, || ViewTree::build(&q, &h.order));
        let mut engine = tracer.span("executor.new", op, || new_engine(&tree));
        let db = tracer.span("core.preload_build", op, || window_db(0));
        tracer.span("executor.load", op, || engine.load(&db));
        let d = tracer.span("durability.create", op, || {
            DurableEngine::create_with_vfs(&dir.0, engine, cfg.clone(), Arc::new(vfs.clone()))
        });
        out.setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((
            tree,
            d.expect("DurableEngine::create on an empty directory"),
            vfs,
            dir,
        ));
    }
    let (tree, mut d, vfs, dir) = built.expect("at least one setup");
    let root = d.engine().tree().root;
    let sub = d.subscribe(root).expect("the root view is materialized");
    let mut mirror: HashMap<Tuple, f64> = d
        .engine()
        .view_relation(root)
        .expect("the root view is materialized")
        .iter()
        .map(|(t, p)| (t.clone(), *p))
        .collect();
    let mut lagged = false;
    // A step makes two update calls.
    let mut reads = InlineReads::new(d.engine(), 2 * READ_EVERY);
    let handle = d.reader();

    let mut entries = Vec::new();
    let (mut live_max, mut age_max) = (0usize, 0u64);
    let mut pending: Vec<Instant> = Vec::new();
    tracer.sample_every(TRACE_EVERY);
    let (slices, steps) = drive(seconds, trace, SLICE_STEPS, tracer, |tr, k| {
        let mut n = 0;
        for (idx, payload) in [(window.inserted(k), 1.0), (window.retracted(k), -1.0)] {
            let (rel, t) = &stream[idx];
            let t0 = Instant::now();
            let dl = delta(&schemas[*rel], std::slice::from_ref(t), &payload);
            if tr.is_on() {
                tr.record("core.delta_build", k, t0, Instant::now());
            }
            let ckpt = d.last_checkpoint_lsn();
            let id = tr.begin("durability.apply", k);
            let r = d.apply(*rel, &dl);
            tr.end(id);
            if d.last_checkpoint_lsn() != ckpt {
                tr.rename(id, "durability.checkpoint");
            }
            let ns = t0.elapsed().as_nanos() as f64;
            if tally.call("DurableEngine::apply", r).is_some() {
                out.update_ns.push(tr.slice(), tr.slice_traced(), ns);
                pending.push(t0);
                n += 1;
            }
            reads.after_update_with(tr, k, "bench.read", &mut out.read_ns, |tr, node, keys| {
                let snap = tr.span("snapshot.pin", k, || handle.pin());
                for key in keys {
                    tr.span("snapshot.get", k, || black_box(snap.get(node, key)));
                }
                tr.span("snapshot.unpin", k, || drop(snap));
            });
        }
        if (k + 1) % PUBLISH_EVERY == 0 {
            tr.span("snapshot.publish", k, || d.publish());
            let visible = Instant::now();
            for t in pending.drain(..) {
                out.stale_ns
                    .push(visible.duration_since(t).as_nanos() as f64);
            }
            match tr.span("subscribe.drain", k, || fold(&mut mirror, &sub)) {
                Some(pairs) => entries.push(pairs as f64),
                None => lagged = true,
            }
            let st = d.serving_stats();
            live_max = live_max.max(st.live_epochs);
            age_max = age_max.max(st.oldest_pinned_age);
        }
        n
    });
    out.slices = slices;

    // Give the log the same shape in every run, however long the
    // measured phase was: step until the WAL rolls over to a fresh
    // segment, cut a checkpoint there, then log exactly RECOVERY_TAIL
    // more updates. Replay decodes every record of the segment that
    // holds the checkpoint, so otherwise recovery cost would follow how
    // full that segment happened to be (up to about 100 000 records).
    let mut k = steps;
    let mut step = |d: &mut DurableEngine<f64>, k: u64| {
        for (idx, payload) in [(window.inserted(k), 1.0), (window.retracted(k), -1.0)] {
            let (rel, t) = &stream[idx];
            let dl = delta(&schemas[*rel], std::slice::from_ref(t), &payload);
            tally.call("DurableEngine::apply", d.apply(*rel, &dl));
        }
    };
    let segment = filevfs::newest(&dir.0, ".seg");
    while k < steps + 1_000_000 {
        step(&mut d, k);
        k += 1;
        if k % 16 == 0 && filevfs::newest(&dir.0, ".seg") != segment {
            break;
        }
    }
    let cut = d.checkpoint();
    for _ in 0..RECOVERY_TAIL / 2 {
        step(&mut d, k);
        k += 1;
    }
    tally.call("DurableEngine::checkpoint", cut);
    let tail_len = d.last_lsn() - d.last_checkpoint_lsn();
    tally.check(
        "the log ends RECOVERY_TAIL updates past a checkpoint in a fresh segment",
        tail_len == RECOVERY_TAIL && filevfs::newest(&dir.0, ".seg") != segment,
        || format!("tail of {tail_len}"),
    );
    let snap = d.publish();
    lagged |= fold(&mut mirror, &sub).is_none();
    let published: HashMap<Tuple, f64> = snap.iter(root).map(|(t, p)| (t.clone(), *p)).collect();
    tally.check(
        "folded subscription deltas equal the published root",
        !lagged
            && mirror.len() == published.len()
            && mirror
                .iter()
                .all(|(t, p)| published.get(t).is_some_and(|v| close(*p, *v, SUM_TOL))),
        || {
            format!(
                "lagged {lagged}, {} folded keys against {}",
                mirror.len(),
                published.len()
            )
        },
    );
    drop(snap);
    let live = d.engine().result();
    tally.call("DurableEngine::sync_all", d.sync_all());

    let e = d.engine();
    rep.set(
        "executor.view_entries",
        e.total_entries() as f64,
        "at the end",
    );
    rep.set(
        "executor.index_bytes",
        e.index_footprint() as f64,
        "at the end",
    );
    rep.set(
        "executor.approx_bytes",
        e.approx_bytes() as f64,
        "at the end",
    );
    rep.set(
        "executor.max_probe_run",
        e.max_probe_run() as f64,
        "at the end",
    );
    let shapes: usize = all.iter().map(|&r| e.factored_shapes_cached(r)).sum();
    rep.set(
        "executor.factored_shapes_cached",
        shapes as f64,
        "at the end",
    );
    rep.set(
        "durability.io_retries",
        d.stats().io_retries as f64,
        "whole run",
    );
    rep.set(
        "durability.log_bytes_per_update",
        vfs.wal_written() as f64 / d.last_lsn().max(1) as f64,
        "WAL bytes written over the whole run",
    );
    rep.set(
        "durability.dir_bytes",
        filevfs::dir_bytes(&dir.0) as f64,
        "at the end",
    );
    rep.set(
        "snapshot.live_epochs_max",
        live_max as f64,
        "sampled at each publish",
    );
    rep.set(
        "snapshot.oldest_pinned_age_max",
        age_max as f64,
        "sampled at each publish",
    );
    rep.set(
        "subscribe.entries_per_epoch",
        stats::median(&entries),
        "median per publish",
    );
    drop(sub);
    drop(d);

    tracer.set_on(trace);
    let mut replayed = 0;
    for i in 0..SETUPS {
        let op = RECOVERY_OP + i;
        let engine = tracer.span("executor.new", op, || new_engine(&tree));
        let r = tracer.span("durability.open", op, || {
            DurableEngine::open_with_vfs(&dir.0, engine, cfg.clone(), Arc::new(vfs.clone()))
        });
        if let Some((rd, report)) = tally.call("DurableEngine::open", r) {
            replayed = report.replayed_updates;
            let rec = rd.engine().result();
            tally.check(
                "the recovered result is byte-identical to the live one",
                {
                    rec.len() == live.len()
                        && live
                            .iter()
                            .all(|(t, p)| rec.get(t).is_some_and(|v| v.to_bits() == p.to_bits()))
                },
                || format!("{:?} against {:?}", rec.sorted(), live.sorted()),
            );
        }
    }
    tracer.set_on(false);
    rep.set(
        "durability.replayed_updates",
        replayed as f64,
        "per recovery",
    );

    let db = window_db(k);
    let mut naive = NaiveReeval::new(q.clone(), lifts.clone());
    for (rel, part) in db.relations.iter().enumerate() {
        naive.apply(rel, &Delta::Flat(part.clone()));
    }
    let verdict = same_sums(&live, naive.result());
    tally.check(
        "the live result equals NaiveReeval over the final window",
        verdict.is_ok(),
        || verdict.unwrap_err(),
    );

    if trace {
        replay(
            new_engine(&tree),
            &window_db(0),
            &stream,
            &schemas,
            &window,
            steps,
            &out,
            rep,
        );
    }
    let spans = tracer.spans();
    let share = |name| span_share(tracer, name);
    let applies = trace::durations(spans, "durability.apply");
    let ckpts = trace::durations(spans, "durability.checkpoint");
    let publishes = trace::durations(spans, "snapshot.publish");
    rep.set_q("durability.apply_us_p50", tail(&applies, 0.5), 1e-3);
    rep.set_q("durability.apply_us_p99", tail(&applies, 0.99), 1e-3);
    rep.set_q("durability.checkpoint_ms_p50", tail(&ckpts, 0.5), 1e-6);
    rep.set(
        "durability.checkpoint_ms_max",
        stats::max(&ckpts) / 1e6,
        format!("n={}", ckpts.len()),
    );
    rep.set(
        "durability.checkpoints",
        (ckpts.len() as u64 * tracer.every()) as f64,
        format!("in the traced slices, from 1 in {} steps", tracer.every()),
    );
    rep.set(
        "durability.checkpoint_share",
        share("durability.checkpoint"),
        "of the recorded steps' time",
    );
    rep.set_q(
        "durability.open_ms",
        tail(&trace::durations(spans, "durability.open"), 0.5),
        1e-6,
    );
    rep.set_q("snapshot.publish_ms_p50", tail(&publishes, 0.5), 1e-6);
    rep.set_q("snapshot.publish_ms_p99", tail(&publishes, 0.99), 1e-6);
    rep.set(
        "snapshot.publish_share",
        share("snapshot.publish"),
        "of the recorded steps' time",
    );
    rep.set_q(
        "snapshot.pin_us_p50",
        tail(&trace::durations(spans, "snapshot.pin"), 0.5),
        1e-3,
    );
    rep.set_q(
        "snapshot.get_ns_p50",
        tail(&trace::durations(spans, "snapshot.get"), 0.5),
        1.0,
    );
    rep.set_q(
        "subscribe.drain_us_p50",
        tail(&trace::durations(spans, "subscribe.drain"), 0.5),
        1e-3,
    );

    out
}

/// Replay the first writer steps through a bare engine, timing `apply`
/// alone: the executor's part of a logged update, so that the WAL's
/// own cost is `durability.apply_us_p50` minus `executor.apply_us_p50`.
#[allow(clippy::too_many_arguments)]
fn replay(
    mut engine: IvmEngine<f64>,
    db: &fivm_engine::Database<f64>,
    stream: &[(usize, Tuple)],
    schemas: &[Schema],
    window: &Window,
    steps: u64,
    out: &Outcome,
    rep: &mut Report,
) {
    engine.load(db);
    let mut ns = Vec::new();
    for k in 0..steps.min(REPLAY_STEPS) {
        for (idx, payload) in [(window.inserted(k), 1.0), (window.retracted(k), -1.0)] {
            let (rel, t) = &stream[idx];
            let dl = delta(&schemas[*rel], std::slice::from_ref(t), &payload);
            let t0 = Instant::now();
            engine.apply(*rel, &dl);
            ns.push(t0.elapsed().as_nanos() as f64);
        }
    }
    rep.set_q("executor.apply_us_p50", tail(&ns, 0.5), 1e-3);
    rep.set_q("executor.apply_us_p99", tail(&ns, 0.99), 1e-3);
    let traced: Vec<_> = out.slices.iter().filter(|s| s.traced).collect();
    let updates: u64 = traced.iter().map(|s| s.updates).sum();
    let wall: f64 = traced.iter().map(|s| s.secs).sum();
    let mean = ns.iter().sum::<f64>() / ns.len().max(1) as f64;
    rep.set(
        "executor.busy_share",
        mean * updates as f64 / 1e9 / wall.max(1e-9),
        "bare-engine apply time of the traced updates, over traced wall time",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_spreads_each_relation_evenly() {
        let t = |v: i64| Tuple::new(vec![Value::Int(v)]);
        let rels = vec![(0..4).map(t).collect(), (0..2).map(t).collect()];
        let rel_of: Vec<usize> = interleave(&rels).iter().map(|(r, _)| *r).collect();
        assert_eq!(rel_of, vec![0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn generator_is_deterministic_in_the_seed() {
        let sig = |seed| {
            format!(
                "{:?}",
                interleave(&housing_input(seed).tuples)[..50].to_vec()
            )
        };
        assert_eq!(sig(9), sig(9));
        assert_ne!(sig(9), sig(10));
    }
}
