//! Cyclic queries and indicator projections (paper Appendix B):
//! correctness under random update sequences for the triangle query and
//! the loop-4-with-chord query, with and without indicator projections,
//! plus the space bound the indicator provides.

use fivm::prelude::*;
use proptest::prelude::*;

fn run_cyclic(
    q: &QueryDef,
    vo: &VariableOrder,
    updates: &[(usize, Vec<i64>, i64)],
    with_indicators: bool,
) -> Result<(), TestCaseError> {
    let mut tree = ViewTree::build(q, vo);
    if with_indicators {
        add_indicators(&mut tree, q);
    }
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let lifts = LiftingMap::<i64>::new();
    let mut engine: IvmEngine<i64> = IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone());
    let mut db = Database::empty(q);
    for (rel, vals, mult) in updates {
        let t = Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect());
        let d = Relation::from_pairs(q.relations[*rel].schema.clone(), [(t, *mult)]);
        engine.apply(*rel, &Delta::Flat(d.clone()));
        db.relations[*rel].union_in_place(&d);
        let oracle = eval_tree(&tree, &db, &lifts);
        prop_assert_eq!(
            engine.result().payload(&Tuple::unit()),
            oracle.payload(&Tuple::unit()),
            "diverged (indicators={})",
            with_indicators
        );
    }
    Ok(())
}

fn upd(n_rels: usize) -> impl Strategy<Value = (usize, Vec<i64>, i64)> {
    (
        0..n_rels,
        proptest::collection::vec(0i64..3, 2),
        prop_oneof![Just(1i64), Just(1), Just(-1)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn triangle_with_and_without_indicators(
        updates in proptest::collection::vec(upd(3), 1..30)
    ) {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        run_cyclic(&q, &vo, &updates, false)?;
        run_cyclic(&q, &vo, &updates, true)?;
    }

    #[test]
    fn loop4_with_chord(
        updates in proptest::collection::vec(upd(5), 1..25)
    ) {
        let q = QueryDef::new(
            &[
                ("R", &["A", "B"]),
                ("S", &["B", "C"]),
                ("T", &["C", "D"]),
                ("U", &["D", "A"]),
                ("Chord", &["A", "C"]),
            ],
            &[],
        );
        let vo = VariableOrder::parse("A - B - C - D", &q.catalog);
        run_cyclic(&q, &vo, &updates, false)?;
        run_cyclic(&q, &vo, &updates, true)?;
    }
}

/// Example B.1/B.3: on a bipartite-ish instance where S ⋈ T explodes,
/// the indicator projection bounds the ST view by |R|’s active domain.
#[test]
fn indicator_bounds_view_size() {
    let q = QueryDef::triangle();
    let vo = VariableOrder::parse("A - B - C", &q.catalog);
    let plain = ViewTree::build(&q, &vo);
    let mut ind = plain.clone();
    add_indicators(&mut ind, &q);

    let all = [0usize, 1, 2];
    let lifts = LiftingMap::<i64>::new();
    let mut plain_engine: IvmEngine<i64> =
        IvmEngine::new(q.clone(), plain.clone(), &all, lifts.clone());
    let mut ind_engine: IvmEngine<i64> = IvmEngine::new(q.clone(), ind.clone(), &all, lifts);

    // n S-edges into a hub, n T-edges out of it → S⋈T has n² pairs, but
    // R touches only one (a, b) pair.
    let n = 40i64;
    let apply = |e: &mut IvmEngine<i64>, rel: usize, vals: Vec<Value>| {
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), [(Tuple::new(vals), 1i64)]);
        e.apply(rel, &Delta::Flat(d));
    };
    for b in 0..n {
        for e in [&mut plain_engine, &mut ind_engine] {
            apply(e, 1, vec![Value::Int(b), Value::Int(0)]); // S(b, c=0)
        }
    }
    for a in 0..n {
        for e in [&mut plain_engine, &mut ind_engine] {
            apply(e, 2, vec![Value::Int(0), Value::Int(a)]); // T(c=0, a)
        }
    }
    for e in [&mut plain_engine, &mut ind_engine] {
        apply(e, 0, vec![Value::Int(1), Value::Int(1)]); // R(1,1)
    }
    assert_eq!(
        plain_engine.result().payload(&Tuple::unit()),
        ind_engine.result().payload(&Tuple::unit())
    );
    // The ST view over [A, B]: n² entries without the indicator, ≤ |R|
    // with it.
    let st_view = |t: &ViewTree| {
        t.nodes
            .iter()
            .position(|nd| nd.rels == 0b110 && matches!(nd.kind, NodeKind::Inner { .. }))
            .unwrap()
    };
    let plain_size = plain_engine.view_relation(st_view(&plain)).unwrap().len();
    let ind_size = ind_engine.view_relation(st_view(&ind)).unwrap().len();
    assert_eq!(plain_size, (n * n) as usize, "unbounded view is quadratic");
    assert_eq!(ind_size, 1, "indicator bounds the view by R’s support");
}

/// Migration storm for the heavy/light partitioned triangle engine:
/// a handful of keys oscillate around the partition threshold (hub
/// build-ups interleaved with targeted deletions), forcing repeated
/// promotions and demotions while background edges keep every part
/// combination populated. After every single-tuple update the
/// partitioned result must be byte-identical to the classical
/// indicator-projected engine and to the `eval_tree` oracle.
#[test]
fn heavy_light_migration_storm_matches_classical() {
    let q = QueryDef::triangle();
    let vo = VariableOrder::parse("A - B - C", &q.catalog);
    let mut tree = ViewTree::build(&q, &vo);
    add_indicators(&mut tree, &q);
    let all = [0usize, 1, 2];
    let lifts = LiftingMap::<i64>::new();
    let mut classical: IvmEngine<i64> =
        IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone());
    // ε = 0 pins θ to min_theta: promotion at degree > 6, demotion
    // below 3 — cheap to oscillate across, expensive to get wrong.
    let mut hl = TriangleHlEngine::<i64>::new(
        q.clone(),
        HlConfig {
            epsilon: 0.0,
            min_theta: 3,
        },
    )
    .unwrap();
    let mut db = Database::empty(&q);

    let mut step = 0usize;
    let mut apply = |hl: &mut TriangleHlEngine<i64>,
                     classical: &mut IvmEngine<i64>,
                     db: &mut Database<i64>,
                     rel: usize,
                     a: i64,
                     b: i64,
                     m: i64| {
        let t = Tuple::new(vec![Value::Int(a), Value::Int(b)]);
        hl.apply_update(rel, &t, m);
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), [(t, m)]);
        classical.apply(rel, &Delta::Flat(d.clone()));
        db.relations[rel].union_in_place(&d);
        step += 1;
        let got = hl.result();
        assert_eq!(got, classical.result(), "vs classical at step {step}");
        let oracle = eval_tree(&tree, db, &lifts);
        assert_eq!(
            got.payload(&Tuple::unit()),
            oracle.payload(&Tuple::unit()),
            "vs oracle at step {step}"
        );
    };

    // Background edges: a small dense mesh so the hub updates close
    // real triangles (R(hub, j) ⋈ S(j, c) ⋈ T(c, hub) for j < 5).
    for i in 0..5i64 {
        for j in 0..5i64 {
            apply(&mut hl, &mut classical, &mut db, 1, i, j, 1); // S(i, j)
            apply(&mut hl, &mut classical, &mut db, 2, j, i, 1); // T(j, i)
        }
    }
    // Storm: three R-hub keys ramp past the promotion bound (8 distinct
    // neighbours > 2θ = 6), with tear-downs of the previous hub
    // interleaved into the build-up of the next, then a full drain back
    // below the demotion bound — repeated for three rounds.
    let mut mult = [[0i64; 8]; 3];
    for round in 0..3 {
        for hub in 0..3usize {
            for j in 0..8i64 {
                apply(&mut hl, &mut classical, &mut db, 0, hub as i64, j, 1);
                mult[hub][j as usize] += 1;
                let prev = (hub + 2) % 3;
                if mult[prev][j as usize] > 0 {
                    apply(&mut hl, &mut classical, &mut db, 0, prev as i64, j, -1);
                    mult[prev][j as usize] -= 1;
                }
            }
            assert!(
                hl.is_heavy(0, &Value::Int(hub as i64)),
                "hub {hub} not heavy in round {round}"
            );
        }
        // Finish draining every hub back to light.
        for (hub, row) in mult.iter_mut().enumerate() {
            for (j, m) in row.iter_mut().enumerate() {
                while *m > 0 {
                    apply(
                        &mut hl,
                        &mut classical,
                        &mut db,
                        0,
                        hub as i64,
                        j as i64,
                        -1,
                    );
                    *m -= 1;
                }
            }
            assert!(!hl.is_heavy(0, &Value::Int(hub as i64)));
            assert_eq!(hl.degree(0, &Value::Int(hub as i64)), 0);
        }
        hl.verify_consistency().unwrap();
    }
    let stats = hl.stats();
    assert!(
        stats.promotions >= 9 && stats.demotions >= 9,
        "storm too calm: {stats:?}"
    );
    assert!(stats.tuples_migrated > 0);
}

/// Indicator deltas propagate on both growth and shrinkage of the
/// active domain (Example B.2’s count maintenance).
#[test]
fn indicator_support_shrinks_and_grows() {
    let q = QueryDef::triangle();
    let vo = VariableOrder::parse("A - B - C", &q.catalog);
    let mut tree = ViewTree::build(&q, &vo);
    add_indicators(&mut tree, &q);
    let all = [0usize, 1, 2];
    let lifts = LiftingMap::<i64>::new();
    let mut engine: IvmEngine<i64> = IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone());
    let mut db = Database::empty(&q);
    // build a triangle, then remove R tuples one multiplicity at a time
    let steps: Vec<(usize, Vec<i64>, i64)> = vec![
        (0, vec![1, 1], 1),
        (0, vec![1, 1], 1), // multiplicity 2: support unchanged on first delete
        (1, vec![1, 1], 1),
        (2, vec![1, 1], 1),
        (0, vec![1, 1], -1), // support still present
        (0, vec![1, 1], -1), // support disappears → indicator delta
        (0, vec![1, 1], 1),  // and reappears
    ];
    for (rel, vals, mult) in steps {
        let t = Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect());
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), [(t, mult)]);
        engine.apply(rel, &Delta::Flat(d.clone()));
        db.relations[rel].union_in_place(&d);
        let oracle = eval_tree(&tree, &db, &lifts);
        assert_eq!(
            engine.result().payload(&Tuple::unit()),
            oracle.payload(&Tuple::unit())
        );
    }
    assert_eq!(engine.result().payload(&Tuple::unit()), 1);
}
