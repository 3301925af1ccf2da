//! Reader/writer stress over the epoch-snapshot serving layer.
//!
//! One writer thread drives a randomized `ScheduleGen` schedule through
//! a [`ServingEngine`] (publishing after every update) while K reader
//! threads continuously pin epochs and probe them. The invariant under
//! test is **snapshot consistency**: every pinned epoch must equal —
//! byte-identically, on every materialized view — an uninterrupted
//! reference engine that applied exactly the first `lsn()` updates of
//! the same schedule. A torn snapshot (some views ahead of others, or a
//! view captured mid-update) has no matching prefix and fails loudly.
//!
//! Epochs must also be monotonic per reader, and the root view of every
//! pin must match the differential oracle at that prefix. The sweep
//! runs at 1, 2, 4 and 8 readers.

#[path = "support/oracle.rs"]
mod oracle;

use fivm::prelude::*;
use oracle::{canon_engine_result, oracle_eval, BatchSpec, OracleDb, ScheduleGen};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

const N_UPDATES: usize = 60;

/// All materialized views, sorted — the equality witness per prefix.
type Snapshot = Vec<(usize, Vec<(Tuple, i64)>)>;

fn specs() -> Vec<BatchSpec> {
    (0..N_UPDATES)
        .map(|i| BatchSpec {
            rel: i % 3,
            size_exp: (i as u32 * 7 + 1) % 5,
            jitter: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            seed: 0x5EED_0000 + i as u64,
        })
        .collect()
}

fn fresh() -> (QueryDef, IvmEngine<i64>) {
    let q = QueryDef::example_rst(&["A"]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let mut tree = ViewTree::build(&q, &vo);
    add_indicators(&mut tree, &q);
    let engine = IvmEngine::new(q.clone(), tree, &[0, 1, 2], LiftingMap::new());
    (q, engine)
}

fn sym_vars(q: &QueryDef) -> Vec<VarId> {
    vec![
        q.catalog.lookup("B").unwrap(),
        q.catalog.lookup("E").unwrap(),
    ]
}

fn materialized_snapshot(
    nodes: &[usize],
    view: impl Fn(usize) -> Option<Relation<i64>>,
) -> Snapshot {
    nodes
        .iter()
        .map(|&n| (n, view(n).expect("materialized node").sorted()))
        .collect()
}

/// Reference state after every prefix: `refs[k]` is the full view state
/// (plus the oracle's canonical root result) after exactly `k` updates.
fn references(
    q: &QueryDef,
) -> (
    Vec<Snapshot>,
    Vec<std::collections::BTreeMap<Vec<i64>, i64>>,
) {
    let (_, mut engine) = fresh();
    let mut db: OracleDb = q.relations.iter().map(|_| HashMap::new()).collect();
    let mut live: Vec<Vec<Vec<i64>>> = q.relations.iter().map(|_| Vec::new()).collect();
    let nodes = engine.materialized_nodes();
    let mut snaps = vec![materialized_snapshot(&nodes, |n| engine.view_relation(n))];
    let mut roots = vec![oracle_eval(q, &db, &[])];
    // Mirror the schedule into the oracle db by regenerating the exact
    // same batches (build_batch mutates db as it emits pairs).
    let kinds: Vec<Vec<oracle::ColKind>> = (0..q.relations.len())
        .map(|rel| oracle::col_kinds(q, rel, &sym_vars(q)))
        .collect();
    for spec in specs() {
        let rel = spec.rel % q.relations.len();
        let pairs = oracle::build_batch_with_cols(
            &spec,
            &kinds[rel],
            &q.catalog,
            &mut db[rel],
            &mut live[rel],
        );
        let delta = Relation::from_pairs(q.relations[rel].schema.clone(), pairs);
        engine.apply(rel, &Delta::Flat(delta));
        snaps.push(materialized_snapshot(&nodes, |n| engine.view_relation(n)));
        roots.push(oracle_eval(q, &db, &[]));
    }
    (snaps, roots)
}

/// Drive the schedule through a serving engine with `readers` pinning
/// concurrently; every pin must equal the reference at its exact LSN.
fn run_stress(readers: usize) {
    let (q, engine) = fresh();
    let (refs, root_refs) = references(&q);
    let nodes = engine.materialized_nodes();
    let mut serving = ServingEngine::new(engine).with_publish_every(1);
    let mut gen = ScheduleGen::new(&q, &specs(), &sym_vars(&q));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..readers {
            let reader = serving.reader();
            let refs = &refs;
            let root_refs = &root_refs;
            let nodes = &nodes;
            let q = &q;
            let stop = &stop;
            handles.push(scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut pins = 0usize;
                loop {
                    let done = stop.load(Ordering::Acquire);
                    let snap = reader.pin();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epochs went backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    let lsn = snap.lsn() as usize;
                    assert!(lsn < refs.len(), "pinned LSN {lsn} beyond the schedule");
                    let got =
                        materialized_snapshot(nodes, |n| snap.view(n).map(|v| v.to_relation()));
                    assert_eq!(
                        got, refs[lsn],
                        "pinned epoch {last_epoch} is not the prefix at LSN {lsn} — torn snapshot"
                    );
                    assert_eq!(
                        &canon_engine_result(q, &snap.result()),
                        &root_refs[lsn],
                        "root view at LSN {lsn} diverges from the oracle"
                    );
                    pins += 1;
                    if done {
                        break;
                    }
                }
                pins
            }));
        }
        while let Some((rel, delta)) = gen.next_batch(&q.catalog) {
            serving.apply(rel, &Delta::Flat(delta));
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            let pins = h.join().expect("reader panicked (snapshot violation)");
            assert!(pins > 0, "reader never pinned an epoch");
        }
    });
    // The final epoch is the full schedule.
    let final_snap = serving.reader().pin();
    assert_eq!(final_snap.lsn(), N_UPDATES as u64);
    assert_eq!(
        materialized_snapshot(&nodes, |n| final_snap.view(n).map(|v| v.to_relation())),
        refs[N_UPDATES]
    );
}

#[test]
fn one_reader_never_sees_a_torn_snapshot() {
    run_stress(1);
}

#[test]
fn two_readers_never_see_a_torn_snapshot() {
    run_stress(2);
}

#[test]
fn four_readers_never_see_a_torn_snapshot() {
    run_stress(4);
}

#[test]
fn eight_readers_never_see_a_torn_snapshot() {
    run_stress(8);
}

/// Pin-leak observability: `ServingStats` tracks exactly the epochs
/// still pinned somewhere. Transient readers never push the live-epoch
/// count past `pins held + current`, a wedged reader shows up as a
/// growing `oldest_pinned_age`, and releasing it drains the count back
/// to one — retired epochs are freed, not accumulated.
#[test]
fn serving_stats_stay_bounded_under_pin_churn() {
    let (q, engine) = fresh();
    let mut serving = ServingEngine::new(engine).with_publish_every(1);
    let mut gen = ScheduleGen::new(&q, &specs(), &sym_vars(&q));
    let mut wedged: Option<std::sync::Arc<EngineSnapshot<i64>>> = None;
    let mut wedged_epoch = 0u64;
    let mut applied = 0usize;
    let reader = serving.reader();
    while let Some((rel, delta)) = gen.next_batch(&q.catalog) {
        serving.apply(rel, &Delta::Flat(delta));
        applied += 1;
        if applied == N_UPDATES / 3 {
            let snap = reader.pin();
            wedged_epoch = snap.epoch();
            wedged = Some(snap); // a consumer that stopped progressing
        }
        if applied == 2 * N_UPDATES / 3 {
            wedged = None; // the wedged consumer finally lets go
        }
        // A transient pin, dropped immediately — the common case.
        let transient = reader.pin();
        assert_eq!(transient.lsn(), applied as u64);
        drop(transient);

        let stats = serving.serving_stats();
        let held = usize::from(wedged.is_some());
        assert!(
            stats.live_epochs <= held + 1,
            "after update {applied}: {} live epochs with {held} pins held — \
             retired epochs are leaking",
            stats.live_epochs
        );
        if wedged.is_some() {
            assert_eq!(stats.oldest_live_epoch, Some(wedged_epoch));
            assert_eq!(
                stats.oldest_pinned_age,
                stats.current_epoch - wedged_epoch,
                "wedged reader must be visible as pinned age"
            );
        } else {
            assert_eq!(
                stats.oldest_pinned_age, 0,
                "no pins held, yet stats report a pinned epoch"
            );
        }
    }
    let stats = serving.serving_stats();
    assert_eq!(stats.live_epochs, 1, "only the current epoch stays live");
    assert_eq!(stats.current_epoch, N_UPDATES as u64);
}
