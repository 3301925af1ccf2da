//! Exhaustive interleaving checks for the serving layer's
//! [`EpochCell`] publish/pin handoff: pins never tear, the advertised
//! epoch never runs ahead of the slot, and pinned epochs are monotonic
//! per reader.
//!
//! Build with `RUSTFLAGS="--cfg fivm_model_check"`; in normal builds
//! this file is empty.
#![cfg(fivm_model_check)]

use fivm_check::Checker;
use fivm_core::sync::thread;
use fivm_engine::snapshot::{faults, EpochCell};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The seeded-fault test flips a process-wide knob; every test in this
/// file holds this lock so no other model run sees the knob set.
static FAULT_KNOB: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    FAULT_KNOB.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Writer publishes epochs 1 and 2 while the reader probes freshness
/// and pins. The cell's contract: once `epoch()` returns `e`, a
/// subsequent `pin()` returns a value published at epoch `>= e`.
fn publish_pin_model() {
    // The cell's payload is its own epoch number, so a torn handoff is
    // directly visible as a number mismatch.
    let cell = Arc::new(EpochCell::new(0, Arc::new(0u64)));
    let c = cell.clone();
    let writer = thread::spawn(move || {
        c.publish(1, Arc::new(1u64));
        c.publish(2, Arc::new(2u64));
    });
    let advertised = cell.epoch();
    let pinned = cell.pin();
    assert!(
        *pinned >= advertised,
        "epoch {advertised} advertised but pin returned epoch {}",
        *pinned
    );
    // Pins are monotonic for a single reader.
    let again = cell.pin();
    assert!(*again >= *pinned, "pinned epochs went backwards");
    let _ = writer.join();
    // Quiescent: the final publish is visible.
    assert_eq!(*cell.pin(), 2);
}

#[test]
fn publish_while_pin_never_tears() {
    let _serial = serial();
    let report = Checker::new().check("epoch-cell publish/pin", publish_pin_model);
    println!("{report}");
    report.assert_ok();
}

#[test]
fn two_readers_one_writer_smoke() {
    let _serial = serial();
    let report = Checker::new().check("epoch-cell two readers", || {
        let cell = Arc::new(EpochCell::new(0, Arc::new(0u64)));
        let c = cell.clone();
        let writer = thread::spawn(move || {
            c.publish(1, Arc::new(1u64));
        });
        let r = cell.clone();
        let reader = thread::spawn(move || {
            let advertised = r.epoch();
            let pinned = r.pin();
            assert!(*pinned >= advertised);
        });
        let advertised = cell.epoch();
        let pinned = cell.pin();
        assert!(*pinned >= advertised);
        let _ = reader.join();
        let _ = writer.join();
    });
    println!("{report}");
    report.assert_ok();
}

/// Mutation verification: advertise the epoch before the slot holds
/// the snapshot (and with Relaxed ordering) — the seeded fault — and
/// the checker must find the interleaving where a reader sees the
/// advertised epoch but pins the previous snapshot.
#[test]
fn torn_publish_is_caught() {
    let _serial = serial();
    faults::TORN_PUBLISH.store(true, std::sync::atomic::Ordering::SeqCst);
    let report = Checker::new().check("epoch-cell torn publish", publish_pin_model);
    faults::TORN_PUBLISH.store(false, std::sync::atomic::Ordering::SeqCst);
    println!("{report}");
    report.assert_fails("advertised but pin returned");
}
