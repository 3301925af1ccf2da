//! Exhaustive interleaving checks for the lock-free `SymbolTable`
//! read path (intern under a mutex, wait-free `resolve` gated by a
//! Release/Acquire length publish).
//!
//! Build with `RUSTFLAGS="--cfg fivm_model_check"`; in normal builds
//! this file is empty.
#![cfg(fivm_model_check)]

use fivm_check::Checker;
use fivm_core::sync::thread;
use fivm_core::SymbolTable;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The seeded-fault test flips a process-wide knob; every test in this
/// file holds this lock so no other model run sees the knob set.
static FAULT_KNOB: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    FAULT_KNOB.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The table's core invariant: any id below an observed `len()` must
/// resolve — the Acquire on the length gate pairs with the Release of
/// the publish, making the slot write visible.
fn reader_checks_gate(table: &SymbolTable) {
    let n = table.len();
    for id in 0..n as u32 {
        assert!(
            table.resolve(id).is_some(),
            "id {id} < observed len {n} must resolve"
        );
    }
}

#[test]
fn concurrent_intern_and_resolve_gate_holds() {
    let _serial = serial();
    let report = Checker::new().check("symbol-table intern/resolve", || {
        let table = Arc::new(SymbolTable::new());
        let t = table.clone();
        let writer = thread::spawn(move || {
            t.intern("alpha");
            t.intern("beta");
        });
        reader_checks_gate(&table);
        reader_checks_gate(&table);
        let _ = writer.join();
        // Quiescent: both symbols are in and stable.
        assert_eq!(table.len(), 2);
        assert_eq!(table.resolve(0), Some("alpha"));
        assert_eq!(table.resolve(1), Some("beta"));
    });
    println!("{report}");
    report.assert_ok();
}

#[test]
fn two_interners_never_duplicate_ids() {
    let _serial = serial();
    let report = Checker::new().check("symbol-table dueling interns", || {
        let table = Arc::new(SymbolTable::new());
        let (ta, tb) = (table.clone(), table.clone());
        let a = thread::spawn(move || ta.intern("shared"));
        let b = thread::spawn(move || tb.intern("shared"));
        let ia = a.join().expect("interner a");
        let ib = b.join().expect("interner b");
        assert_eq!(ia, ib, "equal strings must intern to equal ids");
        assert_eq!(table.len(), 1);
    });
    println!("{report}");
    report.assert_ok();
}

/// Mutation verification: downgrade the length publish from Release to
/// Relaxed (the seeded fault in `fivm-core`'s intern path) and the
/// checker must find an interleaving where a reader observes the new
/// length without the slot write — exactly the bug the Release exists
/// to prevent.
#[test]
fn relaxed_length_publish_is_caught() {
    let _serial = serial();
    fivm_core::schema::SYM_FAULT_RELAXED_PUBLISH.store(true, std::sync::atomic::Ordering::SeqCst);
    let report = Checker::new().check("symbol-table relaxed publish", || {
        let table = Arc::new(SymbolTable::new());
        let t = table.clone();
        let writer = thread::spawn(move || {
            t.intern("alpha");
        });
        reader_checks_gate(&table);
        let _ = writer.join();
    });
    fivm_core::schema::SYM_FAULT_RELAXED_PUBLISH.store(false, std::sync::atomic::Ordering::SeqCst);
    println!("{report}");
    report.assert_fails("must resolve");
}
