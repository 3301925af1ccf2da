//! Property tests for the catalog-owned symbol table: intern→resolve
//! round-trips, `Sym` equality agrees with string equality, and the
//! id-based order is total and deterministic.

use fivm_core::{Catalog, SymbolTable, Value};
use proptest::prelude::*;

/// Short strings with plenty of duplicates (small alphabet, length ≤ 4)
/// so interning's dedup path is exercised as hard as the fresh path.
fn word() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('a'), Just('b'), Just('c'), Just('ø')],
        0..=4,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every interned string resolves back to itself, and re-interning
    /// the resolved string returns the same id.
    #[test]
    fn intern_resolve_roundtrip(words in proptest::collection::vec(word(), 1..40)) {
        let table = SymbolTable::new();
        for w in &words {
            let id = table.intern(w);
            prop_assert_eq!(table.resolve(id), Some(w.as_str()));
            prop_assert_eq!(table.intern(w), id);
            prop_assert_eq!(table.lookup(w), Some(id));
        }
        // Ids are dense: exactly one per distinct string.
        let distinct: std::collections::HashSet<&String> = words.iter().collect();
        prop_assert_eq!(table.len(), distinct.len());
        prop_assert_eq!(table.resolve(table.len() as u32), None);
    }

    /// `Sym` equality through one catalog agrees exactly with string
    /// equality — the property that makes integer-speed string keys
    /// sound.
    #[test]
    fn sym_equality_agrees_with_string_equality(a in word(), b in word()) {
        let c = Catalog::new();
        let sa = c.sym(&a);
        let sb = c.sym(&b);
        prop_assert_eq!(sa == sb, a == b);
        // And hashing agrees (equal values hash equal): via a map probe.
        let mut m: fivm_core::FxHashMap<Value, u8> = fivm_core::FxHashMap::default();
        m.insert(sa.clone(), 1);
        prop_assert_eq!(m.contains_key(&sb), a == b);
        // The catalog-aware comparator is the lexicographic order.
        prop_assert_eq!(sa.cmp_resolved(&sb, &c), a.cmp(&b));
    }

    /// The id order is a total order consistent with equality: ids are
    /// issued in first-intern order, so sorting symbols is sorting
    /// integers and never disagrees with `Eq`.
    #[test]
    fn sym_order_is_total_and_consistent(words in proptest::collection::vec(word(), 1..20)) {
        let c = Catalog::new();
        let mut syms: Vec<Value> = words.iter().map(|w| c.sym(w)).collect();
        syms.sort();
        for pair in syms.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
            prop_assert_eq!(
                pair[0] == pair[1],
                pair[0].as_sym() == pair[1].as_sym()
            );
        }
    }
}

/// Resolution is stable across catalog clones shipped to other threads
/// (snapshot readers resolve only at the display edge, against a shared
/// table).
#[test]
fn clone_to_thread_resolves_same_ids() {
    let c = Catalog::new();
    let ids: Vec<u32> = (0..100).map(|i| c.intern(&format!("v{i}"))).collect();
    let clone = c.clone();
    let handle = std::thread::spawn(move || {
        ids.iter()
            .map(|&id| clone.resolve_sym(id).unwrap().to_string())
            .collect::<Vec<_>>()
    });
    let resolved = handle.join().unwrap();
    for (i, s) in resolved.iter().enumerate() {
        assert_eq!(s, &format!("v{i}"));
    }
}
