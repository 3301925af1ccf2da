//! Batch/single-tuple equivalence for the flat-batch fast path:
//! applying one N-tuple batch must equal applying its N tuples
//! individually, and equal applying any partition of it into
//! sub-batches — and all of those must equal the general
//! factor-propagation path ([`IvmEngine::set_fast_path`]`(false)`).
//!
//! N is driven across every merge-regime boundary of the batch path:
//! the old 32-tuple fast-path gate (now the linear-merge bound) and
//! the 1024-pair hash-merge threshold. Agreement is asserted not just
//! on the root result but on **every materialized view**, so a
//! divergence is caught at the node where it first appears.

use fivm::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn star_setup() -> (QueryDef, ViewTree, LiftingMap<i64>) {
    let q = QueryDef::example_rst(&["A"]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let mut lifts = LiftingMap::new();
    lifts.set(
        q.catalog.lookup("B").unwrap(),
        fivm::core::lifting::int_identity(),
    );
    (q, tree, lifts)
}

fn triangle_setup() -> (QueryDef, ViewTree, LiftingMap<i64>) {
    let q = QueryDef::triangle();
    let vo = VariableOrder::parse("A - B - C", &q.catalog);
    let mut tree = ViewTree::build(&q, &vo);
    add_indicators(&mut tree, &q);
    (q, tree, LiftingMap::new())
}

/// Random mixed-sign batch over a small key domain (so batches contain
/// duplicate keys, cancellations, and join partners).
fn random_pairs(q: &QueryDef, rel: usize, n: usize, seed: u64) -> Vec<(Tuple, i64)> {
    random_pairs_sym(q, rel, n, seed, &[])
}

/// [`random_pairs`] with symbol-keyed columns: every column holding a
/// variable in `sym_vars` draws an interned string (`"k00"`–`"k31"`,
/// interned through the query catalog; the same skewed 32-value domain
/// as the integer columns) instead of an integer.
fn random_pairs_sym(
    q: &QueryDef,
    rel: usize,
    n: usize,
    seed: u64,
    sym_vars: &[VarId],
) -> Vec<(Tuple, i64)> {
    let schema: Vec<VarId> = q.relations[rel].schema.iter().copied().collect();
    // Pre-intern the shared 32-value domain once per call, not per row.
    let domain: Vec<Value> = (0..32)
        .map(|code| q.catalog.sym(&format!("k{code:02}")))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let vals: Vec<Value> = schema
                .iter()
                .map(|v| {
                    let code = rng.gen_range(0..32);
                    if sym_vars.contains(v) {
                        domain[code as usize].clone()
                    } else {
                        Value::Int(code)
                    }
                })
                .collect();
            let m = *[1i64, 1, 2, -1].get(rng.gen_range(0..4)).unwrap();
            (Tuple::new(vals), m)
        })
        .collect()
}

/// Resident working set so sibling joins have partners from the start.
fn warm(q: &QueryDef, engines: &mut [IvmEngine<i64>], sym_vars: &[VarId]) {
    for rel in 0..q.relations.len() {
        let pairs = random_pairs_sym(q, rel, 64, 0xBA5E + rel as u64, sym_vars);
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), pairs);
        for e in engines.iter_mut() {
            e.apply(rel, &Delta::Flat(d.clone()));
        }
    }
}

/// Every materialized view of every engine must agree with the first
/// engine's.
fn assert_all_views_agree(engines: &[IvmEngine<i64>], context: &str) -> Result<(), TestCaseError> {
    let reference = &engines[0];
    let nodes = reference.tree().nodes.len();
    for (i, e) in engines.iter().enumerate().skip(1) {
        for node in 0..nodes {
            let a = reference.view_relation(node);
            let b = e.view_relation(node);
            prop_assert_eq!(
                &a,
                &b,
                "{}: engine {} diverged from engine 0 at node {}",
                context,
                i,
                node
            );
        }
        prop_assert_eq!(
            &reference.result(),
            &e.result(),
            "{}: engine {} result diverged",
            context,
            i
        );
    }
    Ok(())
}

/// Apply `pairs` to `rel` four ways — one batch, singles, random
/// partition, general path — and assert full-state agreement.
#[allow(clippy::too_many_arguments)]
fn check_equivalence(
    q: &QueryDef,
    tree: &ViewTree,
    lifts: &LiftingMap<i64>,
    rel: usize,
    pairs: &[(Tuple, i64)],
    partition_seed: u64,
    sym_vars: &[VarId],
    context: &str,
) -> Result<(), TestCaseError> {
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut engines: Vec<IvmEngine<i64>> = (0..4)
        .map(|_| IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone()))
        .collect();
    engines[3].set_fast_path(false);
    warm(q, &mut engines, sym_vars);
    let schema = q.relations[rel].schema.clone();

    // Engine 0: the whole batch at once.
    let full = Relation::from_pairs(schema.clone(), pairs.iter().cloned());
    engines[0].apply(rel, &Delta::Flat(full.clone()));

    // Engine 1: one tuple at a time.
    for (t, m) in pairs {
        let d = Relation::from_pairs(schema.clone(), [(t.clone(), *m)]);
        engines[1].apply(rel, &Delta::Flat(d));
    }

    // Engine 2: a random partition into sub-batches.
    let mut rng = SmallRng::seed_from_u64(partition_seed);
    let mut start = 0;
    while start < pairs.len() {
        let end = (start + rng.gen_range(1..=pairs.len() - start)).min(pairs.len());
        let d = Relation::from_pairs(schema.clone(), pairs[start..end].iter().cloned());
        engines[2].apply(rel, &Delta::Flat(d));
        start = end;
    }

    // Engine 3: the whole batch through the general path.
    engines[3].apply(rel, &Delta::Flat(full));

    assert_all_views_agree(&engines, context)
}

/// Deterministic sweep across the regime boundaries: the old 32-tuple
/// gate (linear-merge bound) and the 1024-pair hash threshold.
#[test]
fn batch_sizes_straddling_thresholds_are_equivalent() {
    let (q, tree, lifts) = star_setup();
    for n in [1usize, 31, 32, 33, 100, 1023, 1024, 1025, 2048] {
        for rel in 0..3 {
            let pairs = random_pairs(&q, rel, n, n as u64 * 31 + rel as u64);
            check_equivalence(
                &q,
                &tree,
                &lifts,
                rel,
                &pairs,
                n as u64,
                &[],
                &format!("star N={n} rel={rel}"),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// The same sweep over the cyclic triangle query with indicator
/// projections (support counting must also be batch-size invariant).
#[test]
fn triangle_batches_straddling_thresholds_are_equivalent() {
    let (q, tree, lifts) = triangle_setup();
    for n in [1usize, 32, 33, 64, 512, 1025] {
        let pairs = random_pairs(&q, 0, n, n as u64 * 17);
        check_equivalence(
            &q,
            &tree,
            &lifts,
            0,
            &pairs,
            n as u64,
            &[],
            &format!("triangle N={n}"),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A 10k-tuple skewed batch per relation (a quarter of the rows share
/// join key 1), then its exact negation, on cold engines: the batch
/// sits far above the hash-merge threshold, and the negation must
/// drain every view to empty. One batch, singles and the general path
/// agree after each half.
#[test]
fn large_skewed_batch_then_negation_drains_to_empty() {
    let (q, tree, lifts) = star_setup();
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut engines: Vec<IvmEngine<i64>> = (0..3)
        .map(|_| IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone()))
        .collect();
    engines[2].set_fast_path(false);
    let batch = |rel: usize, sign: i64| {
        let arity = q.relations[rel].schema.len();
        Relation::from_pairs(
            q.relations[rel].schema.clone(),
            (0..10_000).map(move |i| {
                let vals: Vec<Value> = (0..arity)
                    .map(|c| {
                        let v = if i % 4 == 0 && c == 0 {
                            1
                        } else {
                            (i * 7 + c as i64) % 997
                        };
                        Value::Int(v)
                    })
                    .collect();
                (Tuple::new(vals), sign)
            }),
        )
    };
    for sign in [1i64, -1] {
        for rel in 0..3 {
            let d = batch(rel, sign);
            engines[0].apply(rel, &Delta::Flat(d.clone()));
            for (t, m) in d.iter() {
                let single = Relation::from_pairs(d.schema().clone(), [(t.clone(), *m)]);
                engines[1].apply(rel, &Delta::Flat(single));
            }
            engines[2].apply(rel, &Delta::Flat(d));
        }
        assert_all_views_agree(&engines, &format!("large skewed batch, sign {sign}"))
            .unwrap_or_else(|e| panic!("{e}"));
        if sign == 1 {
            assert!(!engines[0].result().is_empty(), "load produced no result");
        }
    }
    for (i, e) in engines.iter().enumerate() {
        assert!(e.result().is_empty(), "engine {i} result not drained");
        assert_eq!(e.total_entries(), 0, "engine {i} views not drained");
    }
}

/// The threshold sweep with **string join keys**: A (the free group-by
/// variable) and C (the inner join variable) carry interned symbols
/// from the same skewed 32-value domain, so duplicate keys,
/// cancellations and join partners all land on symbol equality/hash,
/// across all four application strategies.
#[test]
fn symbol_keyed_batches_straddling_thresholds_are_equivalent() {
    let (q, tree, lifts) = star_setup();
    let sym_vars: Vec<VarId> = ["A", "C"]
        .iter()
        .map(|n| q.catalog.lookup(n).unwrap())
        .collect();
    for n in [1usize, 32, 33, 100, 1024, 1025, 2048] {
        for rel in 0..3 {
            let pairs = random_pairs_sym(&q, rel, n, n as u64 * 13 + rel as u64, &sym_vars);
            check_equivalence(
                &q,
                &tree,
                &lifts,
                rel,
                &pairs,
                n as u64,
                &sym_vars,
                &format!("sym star N={n} rel={rel}"),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random sizes, contents, relations, and partitions.
    #[test]
    fn random_batches_are_partition_invariant(
        n in 1usize..=2048,
        rel in 0usize..3,
        seed in 0u64..u64::MAX,
        partition_seed in 0u64..u64::MAX,
    ) {
        let (q, tree, lifts) = star_setup();
        let pairs = random_pairs(&q, rel, n, seed);
        check_equivalence(&q, &tree, &lifts, rel, &pairs, partition_seed, &[], "random star")?;
    }
}
