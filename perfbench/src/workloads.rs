//! `retailer_cofactor` and `twitter_triangle`: input generation and
//! the oracles their results are checked against.

use crate::flat::Flat;
use crate::harness::Tally;
use crate::metrics::Report;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::Outcome;
use fivm_core::ring::cofactor::Cofactor;
use fivm_core::{Delta, LiftingMap, Tuple, Value};
use fivm_data::stream::single_relation;
use fivm_data::{retailer, twitter, RetailerConfig};
use fivm_engine::reeval::FactorizedReeval;
use fivm_engine::{HlConfig, IvmEngine, TriangleHlEngine};
use fivm_ml::{train, CofactorSpec, TrainConfig};
use std::collections::HashMap;
use std::hint::black_box;

/// Retailer fact-table rows.
pub const RETAILER_ROWS: usize = 50_000;
/// Tuples per Retailer batch: a cycle of the stream makes 1 000 update
/// calls with Inventory batches and 62 with churned dimension batches,
/// enough for a p99 (see [`crate::stats::Positions`]).
pub const RETAILER_BATCH: usize = 100;
/// Inventory batches in the window.
pub const RETAILER_WINDOW: usize = 200;
/// Writer steps between two dimension-table batches. The dimension
/// tables stay loaded (a window without them would join to nothing);
/// every `RETAILER_CHURN` steps one of their batches is retracted and
/// inserted again, which fans out to every matching Inventory row.
pub const RETAILER_CHURN: u64 = 16;
/// Writer steps (an insert and a retract batch each) between model
/// refreshes.
pub const RETAILER_REFRESH: u64 = 200;
/// Gradient-descent iterations per refresh: a fixed count (zero
/// tolerance), so refresh cost does not depend on how fast a seed's
/// data converges.
pub const TRAIN_ITERS: usize = 500;
/// Relative tolerance of the cofactor check, against the largest
/// entry of the cofactor matrix: incremental sums that saw many
/// retractions round differently from a fresh evaluation.
pub const COFACTOR_TOL: f64 = 1e-6;

/// The Retailer generator at the benchmark's size.
pub fn retailer_input(seed: u64) -> retailer::Retailer {
    retailer::generate(&RetailerConfig {
        inventory_rows: RETAILER_ROWS,
        seed,
        ..Default::default()
    })
}

/// `retailer_cofactor`: the cofactor matrix over all Retailer variables
/// (Fig. 7), with periodic model refreshes.
pub fn retailer(
    seed: u64,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    rep: &mut Report,
    tally: &mut Tally,
) -> Outcome {
    let r = retailer_input(seed);
    let q = r.query.clone();
    let spec = CofactorSpec::over_all_vars(&q);
    let var = |name: &str| {
        spec.index_of(q.catalog.lookup(name).expect("Retailer variable"))
            .expect("indexed variable") as usize
    };
    let label = var("inventoryunits");
    let features: Vec<usize> = (0..spec.m()).filter(|&j| j != label).collect();
    let cfg = TrainConfig {
        max_iters: TRAIN_ITERS,
        tolerance: 0.0,
        ..Default::default()
    };
    let flat = Flat {
        query: q.clone(),
        order: r.order.clone(),
        indicators: false,
        lifts: spec.liftings(),
        batches: r.stream_largest_only(RETAILER_BATCH),
        width: RETAILER_WINDOW,
        churn: (0..q.relations.len())
            .filter(|&rel| rel != r.largest)
            .flat_map(|rel| single_relation(rel, &r.tuples[rel], RETAILER_BATCH))
            .collect(),
        churn_every: RETAILER_CHURN,
        refresh_every: RETAILER_REFRESH,
        read_every: 1,
        slice_cycles: 1,
    };
    let mut iterations = Vec::new();
    let refresh = |engine: &IvmEngine<Cofactor>, tr: &mut Tracer, k: u64| {
        let res = tr.span("executor.result", k, || engine.result());
        let (c, s, qm) = tr.span("ml.extract", k, || spec.extract(&res));
        let model = tr.span("ml.train", k, || train(c, &s, &qm, label, &features, &cfg));
        iterations.push(model.iterations as f64);
        black_box(model);
    };
    let check = |engine: &IvmEngine<Cofactor>,
                 tree: &fivm_query::ViewTree,
                 db: &fivm_engine::Database<Cofactor>,
                 tally: &mut Tally| {
        let mut oracle = FactorizedReeval::new(q.clone(), tree.clone(), spec.liftings());
        for (rel, part) in db.relations.iter().enumerate() {
            oracle.apply(rel, &Delta::Flat(part.clone()));
        }
        let (c1, s1, q1) = spec.extract(&engine.result());
        let (c2, s2, q2) = spec.extract(oracle.result());
        let scale = q2.iter().chain(&s2).fold(1.0f64, |a, x| a.max(x.abs()));
        let worst = s1
            .iter()
            .zip(&s2)
            .chain(q1.iter().zip(&q2))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        tally.check(
            "cofactor equals FactorizedReeval over the final window",
            c1 == c2 && worst <= COFACTOR_TOL * scale,
            || format!("count {c1} against {c2}, largest difference {worst} at scale {scale}"),
        );
    };
    let out = flat.run(seconds, trace, tracer, rep, tally, refresh, check);
    let spans = tracer.spans();
    rep.set_q(
        "ml.extract_ms_p50",
        stats::tail(&trace::durations(spans, "ml.extract"), 0.5),
        1e-6,
    );
    rep.set_q(
        "ml.train_ms_p50",
        stats::tail(&trace::durations(spans, "ml.train"), 0.5),
        1e-6,
    );
    rep.set(
        "ml.train_iterations",
        stats::median(&iterations),
        "median per refresh",
    );
    out
}

/// Edges of the Twitter graph (split round-robin into R, S, T).
pub const TWITTER_EDGES: usize = 60_000;
/// Nodes of the Twitter graph.
pub const TWITTER_NODES: usize = 6_000;
/// Zipf exponent of the edge endpoints.
pub const TWITTER_SKEW: f64 = 1.0;
/// Edges in the window.
pub const TWITTER_WINDOW: usize = 20_000;
/// Single-tuple updates between two in-line reads, so that reads take a
/// small share of the writer's time.
pub const TWITTER_READ_EVERY: u64 = 16;

/// The Zipf-skewed Twitter generator at the benchmark's size.
pub fn twitter_input(seed: u64) -> twitter::Twitter {
    twitter::generate_zipf(&twitter::ZipfTwitterConfig {
        edges: TWITTER_EDGES,
        nodes: TWITTER_NODES,
        exponent: TWITTER_SKEW,
        seed,
    })
}

/// Triangles in `R(A,B) ⋈ S(B,C) ⋈ T(C,A)`, with multiplicities.
pub fn count_triangles(rels: [&[(Tuple, i64)]; 3]) -> i64 {
    let key = |t: &Tuple, i: usize| match t.get(i) {
        Value::Int(v) => *v,
        other => panic!("triangle edges are integer pairs, got {other:?}"),
    };
    let mut s_by_b: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
    for (t, m) in rels[1] {
        s_by_b.entry(key(t, 0)).or_default().push((key(t, 1), *m));
    }
    let t_edges: HashMap<(i64, i64), i64> = rels[2]
        .iter()
        .map(|(t, m)| ((key(t, 0), key(t, 1)), *m))
        .collect();
    let mut total = 0;
    for (t, mr) in rels[0] {
        let (a, b) = (key(t, 0), key(t, 1));
        for &(c, ms) in s_by_b.get(&b).map_or(&[][..], |v| v) {
            if let Some(mt) = t_edges.get(&(c, a)) {
                total += mr * ms * mt;
            }
        }
    }
    total
}

/// `twitter_triangle`: the triangle count with indicator projections
/// (Fig. 13) over a Zipf-skewed edge stream.
pub fn triangle(
    seed: u64,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    rep: &mut Report,
    tally: &mut Tally,
) -> Outcome {
    let t = twitter_input(seed);
    let q = t.query.clone();
    let flat = Flat {
        query: q.clone(),
        order: t.order.clone(),
        indicators: true,
        lifts: LiftingMap::<i64>::new(),
        batches: t.stream(1),
        width: TWITTER_WINDOW,
        churn: Vec::new(),
        churn_every: 1,
        refresh_every: 0,
        read_every: TWITTER_READ_EVERY,
        slice_cycles: 1,
    };
    let check = |engine: &IvmEngine<i64>,
                 _: &fivm_query::ViewTree,
                 db: &fivm_engine::Database<i64>,
                 tally: &mut Tally| {
        let live = engine.result().payload(&Tuple::unit());
        let mut hl = TriangleHlEngine::<i64>::new(q.clone(), HlConfig::default())
            .expect("the triangle query partitions");
        for (rel, part) in db.relations.iter().enumerate() {
            hl.apply(rel, &Delta::Flat(part.clone()));
        }
        let parts: Vec<Vec<(Tuple, i64)>> = db
            .relations
            .iter()
            .map(|r| r.iter().map(|(t, m)| (t.clone(), *m)).collect())
            .collect();
        let recount = count_triangles([&parts[0], &parts[1], &parts[2]]);
        tally.check(
            "triangle count equals TriangleHlEngine and a recount",
            live == *hl.total() && live == recount,
            || {
                format!(
                    "engine {live}, heavy/light {}, recount {recount}",
                    hl.total()
                )
            },
        );
    };
    // One in four steps is traced, so that the spans fit in memory.
    tracer.sample_every(4);
    flat.run(seconds, trace, tracer, rep, tally, |_, _, _| {}, check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(i64, i64, i64)]) -> Vec<(Tuple, i64)> {
        pairs
            .iter()
            .map(|&(a, b, m)| (Tuple::new(vec![Value::Int(a), Value::Int(b)]), m))
            .collect()
    }

    #[test]
    fn recount_counts_with_multiplicity() {
        let r = edges(&[(1, 2, 1), (4, 2, 1)]);
        let s = edges(&[(2, 3, 2)]);
        let t = edges(&[(3, 1, 1), (3, 4, 3)]);
        assert_eq!(count_triangles([&r, &s, &t]), 2 + 6);
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let sig = |t: &twitter::Twitter| format!("{:?}", t.tuples);
        assert_eq!(sig(&twitter_input(3)), sig(&twitter_input(3)));
        assert_ne!(sig(&twitter_input(3)), sig(&twitter_input(4)));
        let sig = |r: &retailer::Retailer| format!("{:?}", r.tuples);
        let (a, b) = (retailer_input(5), retailer_input(5));
        assert_eq!(sig(&a), sig(&b));
        assert_ne!(sig(&a), sig(&retailer_input(6)));
    }
}
