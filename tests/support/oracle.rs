//! Shared differential-oracle support for integration tests: a
//! from-scratch reference evaluator plus randomized batch-schedule
//! generation. Included via `#[path = "support/oracle.rs"]` by
//! `oracle_differential.rs` (the original home of this code) and other
//! suites — each test binary compiles its own copy, so nothing here
//! depends on test-specific state.
//!
//! The oracle stores each relation as a plain `HashMap<Vec<i64>, i64>`
//! multiset and evaluates the query by a hand-rolled hash join over
//! variable assignments (index the next relation on the already-bound
//! variables, extend, multiply multiplicities), then groups by the
//! free variables, multiplying in `g(x) = x` lifted values for the
//! designated bound variables. No `Relation`, no `TupleMap`, no view
//! trees — if the engine and the oracle agree across randomized
//! schedules, they agree for independent reasons.
//!
//! **Symbol (string) key columns**: schedules can declare a set of
//! variables whose values are interned strings. Generation draws from
//! a small skewed categorical domain per variable, interns the string
//! through the query catalog, and hands the engine a `Value::Sym` while
//! the oracle keeps the intern id as a plain `i64` — sound because
//! interning is injective (equal ids ⇔ equal strings; verified
//! independently by the `fivm-core` interning proptests), so the
//! oracle's join structure over ids is exactly the join structure over
//! strings, while the oracle still shares no code with the engine.

// Each including test binary uses a subset of these helpers.
#![allow(dead_code)]

use fivm::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// Oracle-side database: per relation, row → signed multiplicity.
pub type OracleDb = Vec<HashMap<Vec<i64>, i64>>;

/// Recompute the query result from scratch: hash join all relations,
/// multiply `g(x) = x` for `identity_lift_vars`, group by `q.free`.
pub fn oracle_eval(
    q: &QueryDef,
    db: &OracleDb,
    identity_lift_vars: &[VarId],
) -> BTreeMap<Vec<i64>, i64> {
    // A partial assignment: var id → value, plus the accumulated weight.
    let n_vars = q
        .relations
        .iter()
        .flat_map(|r| r.schema.iter())
        .map(|&v| v as usize + 1)
        .max()
        .unwrap_or(0);
    let mut partials: Vec<(Vec<Option<i64>>, i64)> = vec![(vec![None; n_vars], 1)];

    for (ri, rel) in q.relations.iter().enumerate() {
        let schema: Vec<VarId> = rel.schema.iter().copied().collect();
        let bound: Vec<usize> = schema
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                partials
                    .first()
                    .is_some_and(|(a, _)| a[**v as usize].is_some())
            })
            .map(|(i, _)| i)
            .collect();
        // `bound` must be identical across partials: every partial has
        // exactly the variables of the previously joined relations.
        let mut index: HashMap<Vec<i64>, Vec<(&Vec<i64>, i64)>> = HashMap::new();
        for (row, &m) in &db[ri] {
            if m == 0 {
                continue;
            }
            index
                .entry(bound.iter().map(|&i| row[i]).collect())
                .or_default()
                .push((row, m));
        }
        let mut next: Vec<(Vec<Option<i64>>, i64)> = Vec::new();
        for (assign, w) in &partials {
            let probe: Vec<i64> = bound
                .iter()
                .map(|&i| assign[schema[i] as usize].expect("bound var"))
                .collect();
            if let Some(rows) = index.get(&probe) {
                for (row, m) in rows {
                    let mut a = assign.clone();
                    let mut consistent = true;
                    for (i, &v) in schema.iter().enumerate() {
                        match a[v as usize] {
                            None => a[v as usize] = Some(row[i]),
                            Some(x) => {
                                // Repeated variable within one schema.
                                if x != row[i] {
                                    consistent = false;
                                    break;
                                }
                            }
                        }
                    }
                    if consistent {
                        next.push((a, w * m));
                    }
                }
            }
        }
        partials = next;
        if partials.is_empty() {
            break;
        }
    }

    let free: Vec<usize> = q.free.iter().map(|&v| v as usize).collect();
    let mut out: BTreeMap<Vec<i64>, i64> = BTreeMap::new();
    for (assign, w) in partials {
        let mut weight = w;
        for &v in identity_lift_vars {
            weight *= assign[v as usize].expect("lifted var is bound in the join");
        }
        let key: Vec<i64> = free
            .iter()
            .map(|&v| assign[v].expect("free var bound"))
            .collect();
        *out.entry(key).or_insert(0) += weight;
    }
    out.retain(|_, w| *w != 0);
    out
}

/// Canonicalize the engine's result into the oracle's shape: reorder
/// the key columns to `q.free` order and map to sorted rows. Symbol
/// keys canonicalize to their intern id — the same `i64` the oracle
/// carried for them.
pub fn canon_engine_result(q: &QueryDef, r: &Relation<i64>) -> BTreeMap<Vec<i64>, i64> {
    let r = if *r.schema() == q.free {
        r.clone()
    } else {
        r.reorder(&q.free)
    };
    r.iter()
        .map(|(t, &p)| {
            let row: Vec<i64> = (0..t.len())
                .map(|i| match t.get(i) {
                    Value::Int(v) => *v,
                    Value::Sym(s) => i64::from(*s),
                    other => panic!("unexpected key value {other:?}"),
                })
                .collect();
            (row, p)
        })
        .collect()
}

/// One randomized batch: which relation, how many tuples (1–4096,
/// log-uniform via `size_exp`), and the RNG seed its contents derive
/// from.
#[derive(Clone, Debug)]
pub struct BatchSpec {
    pub rel: usize,
    pub size_exp: u32,
    pub jitter: u64,
    pub seed: u64,
}

pub fn batch_specs(max_exp: u32, batches: usize) -> impl Strategy<Value = Vec<BatchSpec>> {
    proptest::collection::vec(
        (0usize..64, 0u32..=max_exp, 0u64..u64::MAX, 0u64..u64::MAX).prop_map(
            |(rel, size_exp, jitter, seed)| BatchSpec {
                rel,
                size_exp,
                jitter,
                seed,
            },
        ),
        1..=batches,
    )
}

/// How one column of a generated relation produces key values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColKind {
    /// Skewed integers: a small hot pool plus a 100 k cold domain.
    Int,
    /// Interned strings from a skewed categorical domain, identified by
    /// the variable id so every relation sharing the variable draws
    /// from (and interns into) the same string domain.
    Sym(VarId),
}

/// The per-column kinds for a relation's schema: `Sym` for variables in
/// `sym_vars`, `Int` otherwise.
pub fn col_kinds(q: &QueryDef, rel: usize, sym_vars: &[VarId]) -> Vec<ColKind> {
    q.relations[rel]
        .schema
        .iter()
        .map(|v| {
            if sym_vars.contains(v) {
                ColKind::Sym(*v)
            } else {
                ColKind::Int
            }
        })
        .collect()
}

/// Materialize a batch: skewed fresh inserts mixed with deletes of
/// currently-live rows. The mirror db is updated as the batch is
/// built, so oracle state and emitted pairs always agree.
pub fn build_batch(
    spec: &BatchSpec,
    arity: usize,
    db_rel: &mut HashMap<Vec<i64>, i64>,
    live: &mut Vec<Vec<i64>>,
) -> Vec<(Tuple, i64)> {
    let kinds = vec![ColKind::Int; arity];
    build_batch_with_cols(spec, &kinds, &Catalog::new(), db_rel, live)
}

/// [`build_batch`] with per-column kinds. Symbol columns draw a code
/// from a small skewed categorical domain (hot 0–2, cold 0–39), intern
/// `"v<var>:<code>"` through `catalog`, store the intern id in the
/// oracle row and ship `Value::Sym(id)` to the engine. Skewed
/// categorical domains mean heavy duplicate-key fan-out — the regime
/// where a broken symbol equality would corrupt merges loudly.
pub fn build_batch_with_cols(
    spec: &BatchSpec,
    kinds: &[ColKind],
    catalog: &Catalog,
    db_rel: &mut HashMap<Vec<i64>, i64>,
    live: &mut Vec<Vec<i64>>,
) -> Vec<(Tuple, i64)> {
    let size =
        (((1u64 << spec.size_exp) + spec.jitter % (1u64 << spec.size_exp)) as usize).min(4096);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    // Cap the expected number of hot-key tuples per batch so skewed
    // join fan-out stays measurable without making the oracle's join
    // output explode on 4096-tuple batches.
    let hot_prob = (200.0 / size as f64).min(0.5);
    // Pre-intern each symbol column's 40-value domain once per batch
    // (idempotent across batches) instead of per generated row.
    let domains: Vec<Option<Vec<i64>>> = kinds
        .iter()
        .map(|kind| match kind {
            ColKind::Int => None,
            ColKind::Sym(var) => Some(
                (0..40)
                    .map(|code| i64::from(catalog.intern(&format!("v{var}:{code:02}"))))
                    .collect(),
            ),
        })
        .collect();
    let to_tuple = |row: &[i64]| -> Tuple {
        Tuple::new(
            row.iter()
                .zip(kinds)
                .map(|(&v, kind)| match kind {
                    ColKind::Int => Value::Int(v),
                    ColKind::Sym(_) => Value::Sym(v as u32),
                })
                .collect(),
        )
    };
    let mut out = Vec::with_capacity(size);
    for _ in 0..size {
        let delete = !live.is_empty() && rng.gen_bool(0.3);
        if delete {
            let i = rng.gen_range(0..live.len());
            let row = live[i].clone();
            let m = db_rel.get_mut(&row).expect("live rows are present");
            *m -= 1;
            if *m == 0 {
                db_rel.remove(&row);
                live.swap_remove(i);
            }
            out.push((to_tuple(&row), -1));
        } else {
            let row: Vec<i64> = domains
                .iter()
                .map(|domain| match domain {
                    None => {
                        if rng.gen_bool(hot_prob) {
                            rng.gen_range(0..4)
                        } else {
                            rng.gen_range(0..100_000)
                        }
                    }
                    Some(ids) => {
                        let code: usize = if rng.gen_bool(0.3) {
                            rng.gen_range(0..3)
                        } else {
                            rng.gen_range(0..40)
                        };
                        ids[code]
                    }
                })
                .collect();
            let m = db_rel.entry(row.clone()).or_insert(0);
            if *m == 0 {
                live.push(row.clone());
            }
            *m += 1;
            out.push((to_tuple(&row), 1));
        }
    }
    out
}

/// Lazy, reproducible delta schedules — the crash-point generalization
/// of [`run_schedule`]. Instead of driving engines in lockstep against
/// the oracle, a `ScheduleGen` regenerates the same `(rel, delta)`
/// sequence on demand against *any* catalog: the write-ahead-logged
/// engine under test, the uninterrupted reference engine, and any
/// prefix replay each build their own generator from the same specs,
/// and because generation (including string interning) is
/// seed-deterministic and order-identical, `Value::Sym` ids agree
/// across the independently-built catalogs — which is exactly the
/// property crash recovery must preserve and the fault-injection
/// harness asserts.
///
/// Laziness matters: symbols must be interned just before the batch
/// that uses them, so a durable engine's log interleaves symbol
/// records with update records the way a live system would.
pub struct ScheduleGen {
    kinds: Vec<Vec<ColKind>>,
    schemas: Vec<Schema>,
    db: OracleDb,
    live: Vec<Vec<Vec<i64>>>,
    specs: Vec<BatchSpec>,
    next: usize,
}

impl ScheduleGen {
    pub fn new(q: &QueryDef, specs: &[BatchSpec], sym_vars: &[VarId]) -> Self {
        ScheduleGen {
            kinds: (0..q.relations.len())
                .map(|rel| col_kinds(q, rel, sym_vars))
                .collect(),
            schemas: q.relations.iter().map(|r| r.schema.clone()).collect(),
            db: q.relations.iter().map(|_| HashMap::new()).collect(),
            live: q.relations.iter().map(|_| Vec::new()).collect(),
            specs: specs.to_vec(),
            next: 0,
        }
    }

    /// Generate the next batch, interning any symbol values through
    /// `catalog`.
    pub fn next_batch(&mut self, catalog: &Catalog) -> Option<(usize, Relation<i64>)> {
        let spec = self.specs.get(self.next)?.clone();
        self.next += 1;
        let rel = spec.rel % self.kinds.len();
        let pairs = build_batch_with_cols(
            &spec,
            &self.kinds[rel],
            catalog,
            &mut self.db[rel],
            &mut self.live[rel],
        );
        Some((rel, Relation::from_pairs(self.schemas[rel].clone(), pairs)))
    }
}

/// Drive a schedule through `engine` and the oracle, asserting they
/// agree after every batch.
pub fn run_schedule(
    q: &QueryDef,
    engine: &mut IvmEngine<i64>,
    specs: &[BatchSpec],
    identity_lift_vars: &[VarId],
) -> Result<(), TestCaseError> {
    run_schedule_sym(q, engine, specs, identity_lift_vars, &[])
}

/// [`run_schedule`] with a set of symbol-keyed variables: every column
/// holding one of `sym_vars` generates interned-string values (see
/// [`build_batch_with_cols`]). `identity_lift_vars` must stay disjoint
/// from `sym_vars` — symbols have no numeric lifting.
pub fn run_schedule_sym(
    q: &QueryDef,
    engine: &mut IvmEngine<i64>,
    specs: &[BatchSpec],
    identity_lift_vars: &[VarId],
    sym_vars: &[VarId],
) -> Result<(), TestCaseError> {
    assert!(
        identity_lift_vars.iter().all(|v| !sym_vars.contains(v)),
        "symbol variables cannot take numeric liftings"
    );
    let kinds: Vec<Vec<ColKind>> = (0..q.relations.len())
        .map(|rel| col_kinds(q, rel, sym_vars))
        .collect();
    let mut db: OracleDb = q.relations.iter().map(|_| HashMap::new()).collect();
    let mut live: Vec<Vec<Vec<i64>>> = q.relations.iter().map(|_| Vec::new()).collect();
    for (i, spec) in specs.iter().enumerate() {
        let rel = spec.rel % q.relations.len();
        let pairs =
            build_batch_with_cols(spec, &kinds[rel], &q.catalog, &mut db[rel], &mut live[rel]);
        let delta = Relation::from_pairs(q.relations[rel].schema.clone(), pairs);
        engine.apply(rel, &Delta::Flat(delta));
        let expected = oracle_eval(q, &db, identity_lift_vars);
        let got = canon_engine_result(q, &engine.result());
        prop_assert_eq!(
            &got,
            &expected,
            "engine diverged from the oracle after batch {} (rel {})",
            i,
            rel
        );
    }
    Ok(())
}
