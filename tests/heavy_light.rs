//! Differential tests for the IVM^ε heavy/light triangle engine: the
//! partitioned path must agree with the classical indicator-projected
//! engine and with the code-independent from-scratch oracle (`tests/support/oracle.rs`) on
//! randomized Zipf-skewed insert/delete schedules — including schedules
//! that force repeated heavy↔light migrations and deletions that empty
//! heavy keys — with the engine's internal-consistency checker
//! (partition assignments, degrees, auxiliary views, total) run along
//! the way.

#[path = "support/oracle.rs"]
mod support;

use fivm::prelude::*;
use fivm_data::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The partitioned engine and its classical foil, fed identical
/// single-tuple updates.
struct Harness {
    q: QueryDef,
    hl: TriangleHlEngine<i64>,
    classical: IvmEngine<i64>,
    db: support::OracleDb,
    steps: usize,
}

impl Harness {
    fn new(cfg: HlConfig) -> Harness {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        add_indicators(&mut tree, &q);
        let classical = IvmEngine::new(q.clone(), tree, &[0, 1, 2], LiftingMap::new());
        let hl = TriangleHlEngine::new(q.clone(), cfg).unwrap();
        Harness {
            q,
            hl,
            classical,
            db: vec![Default::default(); 3],
            steps: 0,
        }
    }

    fn apply(&mut self, rel: usize, a: i64, b: i64, m: i64) {
        let t = Tuple::new(vec![Value::Int(a), Value::Int(b)]);
        self.hl.apply_update(rel, &t, m);
        let d = Relation::from_pairs(self.q.relations[rel].schema.clone(), [(t, m)]);
        self.classical.apply(rel, &Delta::Flat(d));
        let row = self.db[rel].entry(vec![a, b]).or_insert(0);
        *row += m;
        if *row == 0 {
            self.db[rel].remove([a, b].as_slice());
        }
        self.steps += 1;
        // Every step: the partitioned total must equal the classical
        // engine's result byte-for-byte (same unit-keyed relation).
        assert_eq!(
            self.hl.result(),
            self.classical.result(),
            "partitioned vs classical at step {}",
            self.steps
        );
        // Periodically: internal invariants + the from-scratch oracle.
        if self.steps.is_multiple_of(64) {
            self.check_deep();
        }
    }

    fn check_deep(&self) {
        self.hl.verify_consistency().unwrap_or_else(|e| {
            panic!("consistency violated at step {}: {e}", self.steps);
        });
        let oracle = support::oracle_eval(&self.q, &self.db, &[]);
        let expect = oracle.get(&Vec::new()).copied().unwrap_or(0);
        assert_eq!(
            *self.hl.total(),
            expect,
            "oracle disagrees at step {}",
            self.steps
        );
    }
}

/// Randomized Zipf(s) schedules: skewed inserts with interleaved
/// deletions of random live tuples. The small node domain plus the
/// skew pushes hub keys far past the promotion bound while deletions
/// drag others back below the demotion bound.
fn run_zipf_schedule(seed: u64, exponent: f64, steps: usize, delete_fraction: f64) -> HlStats {
    // ε = 0.4 keeps θ (and so the promotion bound 2θ) low enough that
    // the hub keys of a skewed 30-node domain genuinely cross it.
    let mut h = Harness::new(HlConfig {
        epsilon: 0.4,
        min_theta: 2,
    });
    let zipf = Zipf::new(30, exponent);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: Vec<(usize, i64, i64)> = Vec::new();
    for _ in 0..steps {
        if !live.is_empty() && rng.gen_bool(delete_fraction) {
            let i = rng.gen_range(0..live.len());
            let (rel, a, b) = live.swap_remove(i);
            h.apply(rel, a, b, -1);
        } else {
            let rel = rng.gen_range(0..3usize);
            let a = zipf.sample(&mut rng) as i64;
            let b = zipf.sample(&mut rng) as i64;
            h.apply(rel, a, b, 1);
            live.push((rel, a, b));
        }
    }
    h.check_deep();
    h.hl.stats()
}

#[test]
fn zipf_schedules_agree_with_classical_and_oracle() {
    for seed in [1u64, 7, 0xC0FFEE] {
        let stats = run_zipf_schedule(seed, 1.5, 1_000, 0.25);
        assert!(
            stats.promotions > 0,
            "skewed schedule never promoted a key (seed {seed}): \
             not exercising the heavy path"
        );
    }
}

#[test]
fn near_uniform_schedule_agrees_too() {
    // s = 0.3: barely skewed — exercises the light/light paths and the
    // lazy re-thresholding as N grows, with a low promotion rate.
    run_zipf_schedule(11, 0.3, 600, 0.20);
}

/// Deletions that empty heavy keys: build a hub past the promotion
/// bound, then delete *all* of its tuples; the key must demote on the
/// way down and leave no residue in stores, degrees or auxiliary
/// views. Repeated across rounds so the same key oscillates
/// heavy→light→heavy.
#[test]
fn deletions_empty_heavy_keys() {
    let mut h = Harness::new(HlConfig {
        epsilon: 0.5,
        min_theta: 2,
    });
    // Standing S/T edges so the hub's R-edges actually close triangles.
    for i in 0..12 {
        h.apply(1, i, i + 50, 1); // S(i, i+50)
        h.apply(2, i + 50, 0, 1); // T(i+50, 0)
    }
    for round in 0..4 {
        for i in 0..24 {
            h.apply(0, 0, i, 1); // R(0, i): hub degree ramps to 24
        }
        assert!(
            h.hl.is_heavy(0, &Value::Int(0)),
            "hub not promoted in round {round}"
        );
        h.check_deep();
        for i in 0..24 {
            h.apply(0, 0, i, -1); // and back to zero
        }
        assert!(
            !h.hl.is_heavy(0, &Value::Int(0)),
            "emptied hub still heavy in round {round}"
        );
        assert_eq!(h.hl.degree(0, &Value::Int(0)), 0);
        h.check_deep();
    }
    let stats = h.hl.stats();
    assert!(stats.promotions >= 4 && stats.demotions >= 4);
    assert!(stats.tuples_migrated > 0);
}

/// The closed aggregate is ring-generic: the same schedule maintained
/// over i64 COUNT and over a multiplicity-weighted variant (payloads
/// > 1) stays exact under mixed-sign updates.
#[test]
fn weighted_payloads_roundtrip() {
    let mut hl = TriangleHlEngine::<i64>::new(QueryDef::triangle(), HlConfig::default()).unwrap();
    let mut rng = SmallRng::seed_from_u64(99);
    let mut applied: Vec<(usize, i64, i64, i64)> = Vec::new();
    for _ in 0..300 {
        let rel = rng.gen_range(0..3usize);
        let a = rng.gen_range(0..12i64);
        let b = rng.gen_range(0..12i64);
        let m = rng.gen_range(1..4i64);
        hl.apply_update(rel, &Tuple::new(vec![Value::Int(a), Value::Int(b)]), m);
        applied.push((rel, a, b, m));
    }
    hl.verify_consistency().unwrap();
    // Undo everything in a shuffled order: exact cancellation.
    for i in (1..applied.len()).rev() {
        let j = rng.gen_range(0..=i);
        applied.swap(i, j);
    }
    for (rel, a, b, m) in applied {
        hl.apply_update(rel, &Tuple::new(vec![Value::Int(a), Value::Int(b)]), -m);
    }
    assert_eq!(*hl.total(), 0);
    assert_eq!(hl.tuple_count(), 0);
    hl.verify_consistency().unwrap();
}
