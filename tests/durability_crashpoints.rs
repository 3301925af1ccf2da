//! Fault-injection harness for the durability layer.
//!
//! A deterministic schedule (see `support/oracle.rs`'s `ScheduleGen`)
//! is streamed through a write-ahead-logged engine with periodic
//! incremental checkpoints. The resulting directory is then damaged in
//! every way the torn-write/corruption model admits — the log cut at
//! **every byte boundary of the final record**, bits flipped, the
//! newest checkpoint dropped or left half-written, a checkpoint killed
//! between its view files and its manifest — and recovery must come
//! back **byte-identical on every materialized view** to an
//! uninterrupted reference engine that applied exactly the surviving
//! prefix of updates. Corruption that cannot be safely truncated (a
//! damaged record in the middle of the log, a missing log prefix) must
//! be a clean error, never a panic and never a silently wrong view.

#[path = "support/oracle.rs"]
mod oracle;

use fivm::durability::wal;
use fivm::prelude::*;
use oracle::{BatchSpec, ScheduleGen};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N_UPDATES: usize = 25;
const CHECKPOINT_EVERY: u64 = 7;

/// All materialized views, sorted — the byte-identity witness.
type Snapshot = Vec<(usize, Vec<(Tuple, i64)>)>;

fn specs() -> Vec<BatchSpec> {
    (0..N_UPDATES)
        .map(|i| BatchSpec {
            rel: i % 3,
            // Small final batch keeps the every-byte-boundary sweep
            // cheap without losing generality.
            size_exp: if i + 1 == N_UPDATES {
                1
            } else {
                (i as u32 * 5 + 2) % 4
            },
            jitter: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            seed: 0xC0FF_EE00 + i as u64,
        })
        .collect()
}

/// Fresh engine over the running-example query with indicators (so
/// recovery's indicator-count rebuild is on the hook too).
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

fn cfg() -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        segment_bytes: 2048,
        retained_checkpoints: 2,
        ..DurabilityConfig::default()
    }
}

fn snapshot(e: &IvmEngine<i64>) -> Snapshot {
    e.materialized_nodes()
        .into_iter()
        .map(|n| (n, e.view_relation(n).unwrap().sorted()))
        .collect()
}

/// Run the full schedule through a durable engine into `dir`.
fn run_durable(dir: &Path) {
    run_durable_cfg(dir, cfg());
}

fn run_durable_cfg(dir: &Path, cfg: DurabilityConfig) {
    let (q, engine) = fresh();
    let mut gen = ScheduleGen::new(&q, &specs(), &sym_vars(&q));
    let mut d = DurableEngine::create(dir, engine, cfg).unwrap();
    while let Some((rel, delta)) = gen.next_batch(&q.catalog) {
        d.apply(rel, &Delta::Flat(delta)).unwrap();
    }
    d.sync_all().unwrap();
}

/// Reference snapshots: `out[k]` is the state after applying exactly
/// the first `k` updates on an uninterrupted engine.
fn reference_snapshots() -> Vec<Snapshot> {
    let (q, mut engine) = fresh();
    let mut gen = ScheduleGen::new(&q, &specs(), &sym_vars(&q));
    let mut out = vec![snapshot(&engine)];
    while let Some((rel, delta)) = gen.next_batch(&q.catalog) {
        engine.apply(rel, &Delta::Flat(delta));
        out.push(snapshot(&engine));
    }
    out
}

/// Recover from `dir` into a brand-new engine (fresh catalog — the
/// restart simulation) and assert every materialized view equals the
/// reference at the recovered LSN.
fn recover_and_check(dir: &Path, refs: &[Snapshot]) -> RecoveryReport {
    let (_q2, engine) = fresh();
    let (recovered, report) =
        DurableEngine::open(dir, engine, cfg()).expect("recovery must succeed");
    let got = snapshot(recovered.engine());
    assert_eq!(
        got, refs[report.last_lsn as usize],
        "recovered views diverge from the reference at LSN {}",
        report.last_lsn
    );
    report
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fivm-crashpoints-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
    }
}

/// Byte span (offset, len) of the final record of the final segment.
fn final_record_span(dir: &Path) -> (PathBuf, u64, u64) {
    let segments = wal::list_segments(dir).unwrap();
    let last = segments.last().expect("log has segments").path.clone();
    let spans = wal::frame_spans(&last).unwrap();
    let &(off, len) = spans.last().expect("final segment has records");
    (last, off, len)
}

#[test]
fn cut_at_every_byte_boundary_of_final_record() {
    let base = scratch("cuts");
    run_durable(&base);
    let refs = reference_snapshots();
    let (seg, off, len) = final_record_span(&base);
    let seg_name = seg.file_name().unwrap().to_owned();
    let n = N_UPDATES as u64;

    for cut in off..=off + len {
        let dir = scratch("cut-case");
        copy_dir(&base, &dir);
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(&seg_name))
            .unwrap()
            .set_len(cut)
            .unwrap();
        let report = recover_and_check(&dir, &refs);
        let expect = if cut == off + len { n } else { n - 1 };
        assert_eq!(
            report.last_lsn,
            expect,
            "cut at byte {cut} (record spans {off}..{})",
            off + len
        );
        if cut > off && cut < off + len {
            // A cut exactly at `off` leaves a valid record boundary —
            // nothing to truncate. Any cut *inside* the record must be.
            assert!(report.truncated_bytes > 0, "torn tail must be truncated");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn bit_flips_in_final_record_are_detected_and_truncated() {
    let base = scratch("flips");
    run_durable(&base);
    let refs = reference_snapshots();
    let (seg, off, len) = final_record_span(&base);
    let seg_name = seg.file_name().unwrap().to_owned();

    for byte in 0..len {
        let dir = scratch("flip-case");
        copy_dir(&base, &dir);
        let path = dir.join(&seg_name);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(off + byte) as usize] ^= 1 << (byte % 8);
        std::fs::write(&path, &bytes).unwrap();
        let report = recover_and_check(&dir, &refs);
        assert_eq!(
            report.last_lsn,
            N_UPDATES as u64 - 1,
            "flip at record byte {byte} must drop exactly the final record"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn corruption_mid_log_is_a_clean_error() {
    let base = scratch("midlog");
    // Tiny segments and no auto-checkpoints: recovery must replay the
    // whole multi-segment log, so a damaged middle segment is always on
    // the replay path (with checkpoints, replay starts past it).
    let midlog_cfg = DurabilityConfig {
        checkpoint_every: 0,
        segment_bytes: 512,
        ..DurabilityConfig::default()
    };
    run_durable_cfg(&base, midlog_cfg.clone());
    let segments = wal::list_segments(&base).unwrap();
    assert!(segments.len() >= 2, "schedule must span multiple segments");
    // Damage a record in a non-final segment: recovery cannot truncate
    // (later records exist) so it must refuse — with an error, not a
    // panic, and not a silently shortened replay.
    let victim = &segments[segments.len() - 2];
    let spans = wal::frame_spans(&victim.path).unwrap();
    let &(off, len) = spans.first().unwrap();
    let mut bytes = std::fs::read(&victim.path).unwrap();
    bytes[(off + len / 2) as usize] ^= 0x10;
    std::fs::write(&victim.path, &bytes).unwrap();

    let (_q2, engine) = fresh();
    let result = DurableEngine::open(&base, engine, midlog_cfg);
    assert!(result.is_err(), "mid-log corruption must be rejected");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn dropped_newest_checkpoint_recovers_from_previous() {
    let base = scratch("dropckpt");
    run_durable(&base);
    let refs = reference_snapshots();
    let manifests = fivm::durability::checkpoint::list_manifests(&base).unwrap();
    assert_eq!(manifests.len(), 2, "two checkpoints retained");
    std::fs::remove_file(&manifests.last().unwrap().path).unwrap();

    let report = recover_and_check(&base, &refs);
    assert_eq!(
        report.last_lsn, N_UPDATES as u64,
        "full state via longer tail"
    );
    assert_eq!(report.checkpoint_seq, Some(manifests[0].seq));
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn all_checkpoints_lost_with_truncated_log_is_a_clean_error() {
    let base = scratch("allckpt");
    run_durable(&base);
    // Log segments before the oldest retained checkpoint were
    // truncated, so with every manifest gone there is no consistent
    // state to rebuild — recovery must say so, not guess.
    for m in fivm::durability::checkpoint::list_manifests(&base).unwrap() {
        std::fs::remove_file(&m.path).unwrap();
    }
    let (_q2, engine) = fresh();
    let result = DurableEngine::open(&base, engine, cfg());
    assert!(result.is_err(), "missing log prefix must be rejected");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn partial_newest_checkpoint_falls_back() {
    let base = scratch("partial");
    run_durable(&base);
    let refs = reference_snapshots();

    // Case 1: manifest half-written (kill during the manifest write —
    // possible only before the atomic rename, but a torn rename target
    // must be tolerated identically).
    let dir1 = scratch("partial-man");
    copy_dir(&base, &dir1);
    let manifests = fivm::durability::checkpoint::list_manifests(&dir1).unwrap();
    let newest = manifests.last().unwrap();
    let size = std::fs::metadata(&newest.path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&newest.path)
        .unwrap()
        .set_len(size / 2)
        .unwrap();
    let report = recover_and_check(&dir1, &refs);
    assert_eq!(report.last_lsn, N_UPDATES as u64);
    assert_eq!(report.manifests_skipped, 1);
    std::fs::remove_dir_all(&dir1).unwrap();

    // Case 2: a view file the newest manifest references is torn.
    let dir2 = scratch("partial-view");
    copy_dir(&base, &dir2);
    let manifests = fivm::durability::checkpoint::list_manifests(&dir2).unwrap();
    let m = fivm::durability::checkpoint::read_manifest(&manifests.last().unwrap().path).unwrap();
    // Pick a view file not shared with the previous manifest.
    let prev = fivm::durability::checkpoint::read_manifest(&manifests[0].path).unwrap();
    let &(node, file_seq) = m
        .views
        .iter()
        .find(|v| !prev.views.contains(v))
        .expect("newest checkpoint rewrote at least one view");
    let vpath = fivm::durability::checkpoint::view_file_path(&dir2, node, file_seq);
    let size = std::fs::metadata(&vpath).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&vpath)
        .unwrap()
        .set_len(size.saturating_sub(7))
        .unwrap();
    let report = recover_and_check(&dir2, &refs);
    assert_eq!(report.last_lsn, N_UPDATES as u64);
    assert_eq!(report.manifests_skipped, 1);
    std::fs::remove_dir_all(&dir2).unwrap();
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn kill_between_view_files_and_manifest_is_invisible() {
    let base = scratch("midckpt");
    run_durable(&base);
    let refs = reference_snapshots();
    // A checkpoint that died after writing view files but before the
    // manifest rename leaves stray view files and possibly a .tmp
    // manifest. Recovery must ignore both.
    std::fs::write(
        fivm::durability::checkpoint::view_file_path(&base, 0, 999_999),
        b"FIVMVIW1 partial garbage",
    )
    .unwrap();
    std::fs::write(base.join("ckpt-000099.tmp"), b"FIVMCKP1 torn").unwrap();
    let report = recover_and_check(&base, &refs);
    assert_eq!(report.last_lsn, N_UPDATES as u64);
    assert_eq!(report.manifests_skipped, 0);
    std::fs::remove_dir_all(&base).unwrap();
}

// ---------------------------------------------------------------------
// Sync-policy crash points: the fsync gap between acknowledgement and
// durability, and checkpoint GC against damaged retained checkpoints.
// ---------------------------------------------------------------------

const N_EXTRA: usize = 7;

/// A second, disjoint schedule appended after [`specs`] (fresh seeds;
/// deletes only ever target rows this schedule inserted, so combined
/// multiplicities stay non-negative).
fn extra_specs() -> Vec<BatchSpec> {
    (0..N_EXTRA)
        .map(|i| BatchSpec {
            rel: (i + 1) % 3,
            size_exp: (i as u32) % 3,
            jitter: (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            seed: 0xBEEF_0000 + i as u64,
        })
        .collect()
}

/// Reference snapshots over `specs()` followed by `extra_specs()`.
fn reference_snapshots_extended() -> Vec<Snapshot> {
    let (q, mut engine) = fresh();
    let mut out = vec![snapshot(&engine)];
    for s in [specs(), extra_specs()] {
        let mut gen = ScheduleGen::new(&q, &s, &sym_vars(&q));
        while let Some((rel, delta)) = gen.next_batch(&q.catalog) {
            engine.apply(rel, &Delta::Flat(delta));
            out.push(snapshot(&engine));
        }
    }
    out
}

/// `SyncPolicy::Batched` contract under the worst crash the model
/// admits: the process dies *between* the group-commit flush (bytes at
/// the OS) and the fsync (bytes on the platter), and the power then
/// fails. Everything at or below the engine's reported `durable_lsn`
/// must survive; the loss window must stay under `max_updates`.
#[test]
fn acked_durable_survives_loss_of_unsynced_tail() {
    let dir = scratch("batched");
    let refs = reference_snapshots();
    let (q, engine) = fresh();
    let mut gen = ScheduleGen::new(&q, &specs(), &sym_vars(&q));
    let batched = DurabilityConfig {
        checkpoint_every: 0,
        // No rotation: the batching cadence alone drives durability.
        segment_bytes: 1 << 20,
        sync: SyncPolicy::Batched {
            max_updates: 8,
            max_delay: std::time::Duration::from_secs(3600),
        },
        ..DurabilityConfig::default()
    };
    let mut d = DurableEngine::create(&dir, engine, batched.clone()).unwrap();
    while let Some((rel, delta)) = gen.next_batch(&q.catalog) {
        d.apply(rel, &Delta::Flat(delta)).unwrap();
        assert!(
            d.last_lsn() - d.durable_lsn() < 8,
            "ack window exceeded max_updates at LSN {}",
            d.last_lsn()
        );
    }
    let durable = d.durable_lsn();
    let n = N_UPDATES as u64;
    assert!(durable >= n - 7, "batching must sync at least every 8 acks");
    assert!(
        durable < n,
        "fixture: the schedule must end with an unsynced tail (25 % 8 != 0)"
    );
    let (seq, synced_len) = d.wal_durable_span();
    // Process kill: Drop flushes the group-commit buffer to the OS…
    drop(d);
    // …then power loss: the OS page cache never reaches the platter.
    // Cut the segment back to its fsynced prefix.
    let seg = wal::list_segments(&dir)
        .unwrap()
        .into_iter()
        .find(|s| s.seq == seq)
        .expect("current segment exists");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg.path)
        .unwrap()
        .set_len(synced_len)
        .unwrap();

    let (_q2, engine2) = fresh();
    let (recovered, report) = DurableEngine::open(&dir, engine2, batched).unwrap();
    assert!(
        report.last_lsn >= durable,
        "acknowledged-durable updates were lost: recovered {} < durable {durable}",
        report.last_lsn
    );
    assert_eq!(
        snapshot(recovered.engine()),
        refs[report.last_lsn as usize],
        "recovered views diverge at LSN {}",
        report.last_lsn
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corrupt *retained* manifest must not wedge checkpointing: GC
/// treats it as unrestorable, purges it, and keeps the truncation
/// watermark anchored on manifests that actually restore. (The old GC
/// hard-errored on the first unreadable retained manifest, making
/// every subsequent checkpoint fail permanently.)
#[test]
fn gc_tolerates_corrupt_retained_manifest() {
    let dir = scratch("gccorrupt");
    let refs = reference_snapshots_extended();
    let (q, engine) = fresh();
    let mut d = DurableEngine::create(&dir, engine, cfg()).unwrap();
    let mut gen = ScheduleGen::new(&q, &specs(), &sym_vars(&q));
    while let Some((rel, delta)) = gen.next_batch(&q.catalog) {
        d.apply(rel, &Delta::Flat(delta)).unwrap();
    }
    // Truncate the newest retained manifest to half its size.
    let manifests = fivm::durability::checkpoint::list_manifests(&dir).unwrap();
    assert_eq!(manifests.len(), 2, "two checkpoints retained");
    let victim = manifests.last().unwrap().path.clone();
    let size = std::fs::metadata(&victim).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .unwrap()
        .set_len(size / 2)
        .unwrap();
    // The next auto-checkpoint runs GC over the damaged directory: it
    // must succeed and purge the corrupt manifest.
    let mut gen2 = ScheduleGen::new(&q, &extra_specs(), &sym_vars(&q));
    while let Some((rel, delta)) = gen2.next_batch(&q.catalog) {
        d.apply(rel, &Delta::Flat(delta))
            .expect("checkpoint GC must survive a corrupt retained manifest");
    }
    d.sync_all().unwrap();
    let total = d.last_lsn();
    drop(d);
    let remaining = fivm::durability::checkpoint::list_manifests(&dir).unwrap();
    assert!(
        remaining
            .iter()
            .all(|m| fivm::durability::checkpoint::read_manifest(&m.path).is_ok()),
        "the corrupt manifest must be gone after GC"
    );
    let (_q2, engine2) = fresh();
    let (recovered, report) = DurableEngine::open(&dir, engine2, cfg()).unwrap();
    assert_eq!(report.last_lsn, total);
    assert_eq!(snapshot(recovered.engine()), refs[total as usize]);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite sweep for checkpoint atomicity: inject a storage fault at
/// **every Vfs operation** a checkpoint performs (EIO, ENOSPC and
/// fsync-failure rotate across indices) and assert that no fault can
/// cost recoverability: the previously committed checkpoint remains
/// restorable, GC never truncates WAL segments that checkpoint still
/// needs, and the full durable prefix recovers — from the directory
/// exactly as the fault left it, and again after the engine repairs
/// itself (deferred-checkpoint retry, or heal when the fault hit the
/// WAL-sync half).
#[test]
fn fault_at_every_vfs_call_inside_checkpoint_is_survivable() {
    let refs = reference_snapshots();
    let n = N_UPDATES as u64;
    let sweep_cfg = DurabilityConfig {
        // One retry would mask single one-shot faults.
        max_retries: 0,
        retry_backoff: std::time::Duration::ZERO,
        ..cfg()
    };
    // Everything below replays the same deterministic schedule, so the
    // operation indices measured here line up across runs.
    let run = |dir: &Path, vfs: &FaultVfs| -> DurableEngine<i64> {
        let (q, engine) = fresh();
        let mut gen = ScheduleGen::new(&q, &specs(), &sym_vars(&q));
        let mut d =
            DurableEngine::create_with_vfs(dir, engine, sweep_cfg.clone(), Arc::new(vfs.clone()))
                .unwrap();
        while let Some((rel, delta)) = gen.next_batch(&q.catalog) {
            d.apply(rel, &Delta::Flat(delta)).unwrap();
        }
        d.sync_all().unwrap();
        d
    };

    // Baseline: count the Vfs operations one manual checkpoint makes.
    let base = scratch("ckptsweep-base");
    let base_vfs = FaultVfs::new();
    let mut d = run(&base, &base_vfs);
    let before = base_vfs.op_count();
    d.checkpoint().unwrap();
    let ckpt_ops = base_vfs.op_count() - before;
    assert!(ckpt_ops > 10, "fixture: a checkpoint is many Vfs calls");
    drop(d);
    std::fs::remove_dir_all(&base).unwrap();

    for i in 0..ckpt_ops {
        let kind = match i % 3 {
            0 => FaultKind::Eio,
            1 => FaultKind::Enospc,
            _ => FaultKind::SyncFail,
        };
        let dir = scratch("ckptsweep");
        let vfs = FaultVfs::new();
        let mut d = run(&dir, &vfs);
        vfs.fail_nth(i, kind);
        let result = d.checkpoint();
        assert_eq!(vfs.injected(), 1, "op {i}: the armed fault must fire");
        vfs.set_enabled(false);

        // The fault may surface as an error or be absorbed (GC treats
        // an unreadable manifest as unrestorable and purges it); either
        // way the directory must recover the full durable prefix right
        // now, exactly as the fault left it.
        let crashed = scratch("ckptsweep-crash");
        copy_dir(&dir, &crashed);
        let report = recover_and_check(&crashed, &refs);
        assert_eq!(
            report.last_lsn, n,
            "op {i} ({kind:?}): fault inside checkpoint lost durable updates"
        );
        std::fs::remove_dir_all(&crashed).unwrap();

        // The engine repairs itself: a WAL-half fault degraded it
        // (heal), a file-half fault left it active (retry succeeds).
        if result.is_err() {
            if d.is_degraded() {
                let heal = d.try_heal().expect("heal with faults cleared");
                assert!(heal.healed, "op {i}: heal must succeed");
            } else {
                d.checkpoint()
                    .expect("op {i}: checkpoint retry with faults cleared");
            }
        }
        assert!(!d.is_degraded());
        drop(d);
        let report = recover_and_check(&dir, &refs);
        assert_eq!(
            report.last_lsn, n,
            "op {i} ({kind:?}): post-repair recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Watermark vs. restorability: a retained manifest whose view file is
/// gone must not anchor the WAL truncation cutoff. After GC runs over
/// such a directory, dropping the *newest* manifest must still leave a
/// recoverable pair — an older restorable checkpoint plus a log tail
/// that reaches back to it. (The old GC counted the unrestorable
/// manifest toward `retained`, evicted the older good checkpoint, and
/// truncated the WAL past the point recovery could actually reach.)
#[test]
fn drop_newest_manifest_after_gc() {
    let dir = scratch("gcdropnew");
    let refs = reference_snapshots_extended();
    let (q, engine) = fresh();
    let mut d = DurableEngine::create(&dir, engine, cfg()).unwrap();
    let mut gen = ScheduleGen::new(&q, &specs(), &sym_vars(&q));
    while let Some((rel, delta)) = gen.next_batch(&q.catalog) {
        d.apply(rel, &Delta::Flat(delta)).unwrap();
    }
    // Delete a view file only the newest retained manifest references,
    // making it unrestorable while its manifest still reads fine.
    let manifests = fivm::durability::checkpoint::list_manifests(&dir).unwrap();
    assert_eq!(manifests.len(), 2);
    let newest = fivm::durability::checkpoint::read_manifest(&manifests[1].path).unwrap();
    let older = fivm::durability::checkpoint::read_manifest(&manifests[0].path).unwrap();
    let &(node, file_seq) = newest
        .views
        .iter()
        .find(|v| !older.views.contains(v))
        .expect("newest checkpoint rewrote at least one view");
    std::fs::remove_file(fivm::durability::checkpoint::view_file_path(
        &dir, node, file_seq,
    ))
    .unwrap();
    // More updates trigger the next checkpoint + GC, which must skip
    // the unrestorable manifest when picking what to retain and where
    // to truncate the log.
    let mut gen2 = ScheduleGen::new(&q, &extra_specs(), &sym_vars(&q));
    while let Some((rel, delta)) = gen2.next_batch(&q.catalog) {
        d.apply(rel, &Delta::Flat(delta)).unwrap();
    }
    d.sync_all().unwrap();
    let total = d.last_lsn();
    drop(d);
    // Fixture check: the post-damage checkpoint must have rewritten the
    // damaged node (the extra schedule dirties every relation), so the
    // newest manifest does not share the deleted file.
    let manifests = fivm::durability::checkpoint::list_manifests(&dir).unwrap();
    let newest_after =
        fivm::durability::checkpoint::read_manifest(&manifests.last().unwrap().path).unwrap();
    assert!(
        !newest_after.views.contains(&(node, file_seq)),
        "fixture: node {node} must be rewritten by the post-damage checkpoint"
    );
    // Crash scenario: the newest manifest is lost *after* that GC ran.
    std::fs::remove_file(&manifests.last().unwrap().path).unwrap();
    let (_q2, engine2) = fresh();
    let (recovered, report) = DurableEngine::open(&dir, engine2, cfg())
        .expect("must recover from an older kept checkpoint plus the WAL tail");
    assert_eq!(report.last_lsn, total);
    assert_eq!(snapshot(recovered.engine()), refs[total as usize]);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}
