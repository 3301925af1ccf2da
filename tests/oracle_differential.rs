//! Differential oracle for the batch fast path: a from-scratch
//! reference evaluator (see `tests/support/oracle.rs`), sharing **no
//! code** with the engine's relational algebra, recomputes every query
//! result from the raw update history and must agree with the
//! incremental engine after every batch.
//!
//! Proptest drives randomized insert/delete batch schedules: batch
//! sizes 1–4096 (log-uniform, straddling every merge-regime threshold
//! of the flat-batch path), skewed join keys (a small hot pool plus a
//! large cold domain), interleaved relations, and deletes drawn from
//! the live multiset so multiplicities stay non-negative.

#[path = "support/oracle.rs"]
mod support;

use fivm::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use support::{
    batch_specs, canon_engine_result, oracle_eval, run_schedule, run_schedule_sym, OracleDb,
};

/// An engine maintaining every relation of `q`.
fn engine(q: &QueryDef, tree: &ViewTree, lifts: &LiftingMap<i64>) -> IvmEngine<i64> {
    let all: Vec<usize> = (0..q.relations.len()).collect();
    IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// COUNT over the running star join (Figure 2): no free variables,
    /// batches up to 4096 tuples across all three relations.
    #[test]
    fn star_count_matches_oracle(specs in batch_specs(12, 6)) {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let mut engine = engine(&q, &tree, &LiftingMap::new());
        run_schedule(&q, &mut engine, &specs, &[])?;
    }

    /// Group-by with non-trivial liftings: free variables A and C,
    /// SUM(B * E) via identity liftings on the bound B and E.
    #[test]
    fn star_group_by_sum_matches_oracle(specs in batch_specs(11, 6)) {
        let q = QueryDef::example_rst(&["A", "C"]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let b = q.catalog.lookup("B").unwrap();
        let e = q.catalog.lookup("E").unwrap();
        let mut lifts = LiftingMap::<i64>::new();
        lifts.set(b, fivm::core::lifting::int_identity());
        lifts.set(e, fivm::core::lifting::int_identity());
        let mut engine = engine(&q, &tree, &lifts);
        run_schedule(&q, &mut engine, &specs, &[b, e])?;
    }

    /// Triangle COUNT with indicator projections (Appendix B): the
    /// cyclic query exercises indicator support counting under batch
    /// deletes.
    #[test]
    fn triangle_with_indicators_matches_oracle(specs in batch_specs(11, 6)) {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        add_indicators(&mut tree, &q);
        let mut engine = engine(&q, &tree, &LiftingMap::new());
        run_schedule(&q, &mut engine, &specs, &[])?;
    }

    /// COUNT over the star join with **string join keys**: A and C —
    /// the variables every sibling probe routes on — carry interned
    /// symbols from skewed categorical domains, with inserts and
    /// deletes. A broken symbol equality/hash/order would corrupt
    /// probes, merges and canonicalization here.
    #[test]
    fn star_count_with_symbol_join_keys_matches_oracle(specs in batch_specs(11, 6)) {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let a = q.catalog.lookup("A").unwrap();
        let c = q.catalog.lookup("C").unwrap();
        let mut engine = engine(&q, &tree, &LiftingMap::new());
        run_schedule_sym(&q, &mut engine, &specs, &[], &[a, c])?;
    }

    /// Group-by over string keys: free variables A (symbolic) and C,
    /// SUM(B * E) over the numeric bound columns — symbol keys flow
    /// into the *result* relation and through `reorder`/canon.
    #[test]
    fn star_group_by_with_symbol_free_var_matches_oracle(specs in batch_specs(10, 6)) {
        let q = QueryDef::example_rst(&["A", "C"]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let a = q.catalog.lookup("A").unwrap();
        let b = q.catalog.lookup("B").unwrap();
        let e = q.catalog.lookup("E").unwrap();
        let mut lifts = LiftingMap::<i64>::new();
        lifts.set(b, fivm::core::lifting::int_identity());
        lifts.set(e, fivm::core::lifting::int_identity());
        let mut engine = engine(&q, &tree, &lifts);
        run_schedule_sym(&q, &mut engine, &specs, &[b, e], &[a])?;
    }

    /// Triangle with indicators over **all-symbol** edges (the Twitter
    /// handle shape): every key column in the cyclic query is an
    /// interned string.
    #[test]
    fn triangle_with_symbol_keys_matches_oracle(specs in batch_specs(10, 6)) {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        add_indicators(&mut tree, &q);
        let vars: Vec<VarId> = ["A", "B", "C"]
            .iter()
            .map(|n| q.catalog.lookup(n).unwrap())
            .collect();
        let mut engine = engine(&q, &tree, &LiftingMap::new());
        run_schedule_sym(&q, &mut engine, &specs, &[], &vars)?;
    }
}

/// Deterministic worst-case shapes the random driver may miss: a
/// batch that is entirely one hot key, a batch that cancels itself,
/// and a batch that deletes everything a previous batch inserted.
#[test]
fn adversarial_batches_match_oracle() {
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let mut engine = engine(&q, &tree, &LiftingMap::new());
    let mut db: OracleDb = q.relations.iter().map(|_| HashMap::new()).collect();

    let apply = |engine: &mut IvmEngine<i64>,
                 db: &mut OracleDb,
                 rel: usize,
                 pairs: Vec<(Vec<i64>, i64)>| {
        for (row, m) in &pairs {
            let e = db[rel].entry(row.clone()).or_insert(0);
            *e += m;
            if *e == 0 {
                db[rel].remove(row);
            }
        }
        let delta = Relation::from_pairs(
            q.relations[rel].schema.clone(),
            pairs
                .into_iter()
                .map(|(row, m)| (Tuple::new(row.iter().map(|&v| Value::Int(v)).collect()), m)),
        );
        engine.apply(rel, &Delta::Flat(delta));
    };
    let check = |engine: &IvmEngine<i64>, db: &OracleDb, what: &str| {
        assert_eq!(
            canon_engine_result(&q, &engine.result()),
            oracle_eval(&q, db, &[]),
            "after {what}"
        );
    };

    // 2000 R-tuples all sharing A=1 (one hot join key).
    apply(
        &mut engine,
        &mut db,
        0,
        (0..2000).map(|b| (vec![1, b], 1)).collect(),
    );
    // S and T matching the hub, enough to cross the hash-merge band.
    apply(
        &mut engine,
        &mut db,
        1,
        (0..1500).map(|c| (vec![1, c % 40, c], 1)).collect(),
    );
    apply(
        &mut engine,
        &mut db,
        2,
        (0..40).map(|c| (vec![c, c], 1)).collect(),
    );
    check(&engine, &db, "hot-key load");

    // A self-cancelling batch (every key nets to zero) is a no-op —
    // including for view stores and index bucket counters downstream.
    let before = engine.result();
    let footprint = engine.index_footprint();
    apply(
        &mut engine,
        &mut db,
        0,
        (0..500)
            .flat_map(|b| [(vec![7, b], 3), (vec![7, b], -3)])
            .collect(),
    );
    assert_eq!(
        engine.result(),
        before,
        "cancelled batch changed the result"
    );
    assert_eq!(
        engine.index_footprint(),
        footprint,
        "cancelled batch touched index buckets"
    );
    check(&engine, &db, "self-cancelling batch");

    // A batch cancelling on *join-output* keys: distinct input rows
    // that project to the same view keys with opposite weights, so the
    // zero only appears after the per-step merge. Nothing downstream
    // of the first projection may observe it.
    let before = engine.result();
    apply(
        &mut engine,
        &mut db,
        0,
        (0..40)
            .flat_map(|b| {
                // A=1 is the hot key: both rows join all 1500 S-tuples,
                // producing opposite-weight products that must cancel
                // in the per-step merge.
                [
                    (vec![1, 10_000 + 2 * b], 1),
                    (vec![1, 10_000 + 2 * b + 1], -1),
                ]
            })
            .collect(),
    );
    // R's leaf store legitimately changed; the *result* must not (the
    // B column is marginalized with COUNT lifting, so +1/−1 pairs at
    // the same A cancel at the first projection).
    assert_eq!(engine.result(), before, "projection-cancelled batch leaked");
    check(&engine, &db, "projection-cancelling batch");

    // Delete everything ever inserted: all views drain to empty.
    for rel in 0..3 {
        let all: Vec<(Vec<i64>, i64)> = db[rel].iter().map(|(row, &m)| (row.clone(), -m)).collect();
        apply(&mut engine, &mut db, rel, all);
    }
    assert!(engine.result().is_empty());
    assert_eq!(engine.total_entries(), 0);
}
