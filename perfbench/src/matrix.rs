//! `matrix_chain_rank1`: the chain `A1·A2·A3` (Fig. 6) maintained by
//! [`EngineChainIvm`] under one-row rank-1 updates, alternating `A2`
//! and `A3`, shipped as factored deltas.

use crate::harness::{drive, span_share, InlineReads, Tally, Window};
use crate::metrics::Report;
use crate::stats::tail;
use crate::trace::{self, Tracer};
use crate::{Outcome, SETUPS, SETUP_OP};
use fivm_data::matrices;
use fivm_linalg::{EngineChainIvm, Matrix};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Matrix dimension.
pub const N: usize = 64;
/// Rank-1 updates in the cyclic stream.
pub const UPDATES: usize = 256;
/// Updates in the window.
pub const WINDOW: usize = 64;
/// Writer steps per slice of the measured phase: two cycles of the
/// stream.
pub const SLICE_STEPS: u64 = 2 * UPDATES as u64;
/// Tolerance of the product check, relative to its largest entry.
pub const PRODUCT_TOL: f64 = 1e-6;

/// One rank-1 update `δA_rel = u·vᵀ` and its retraction `(−u)·vᵀ`.
pub struct Rank1 {
    /// Chain position (1 for `A2`, 2 for `A3`).
    pub rel: usize,
    /// Row factor.
    pub u: Vec<f64>,
    /// `−u`.
    pub neg_u: Vec<f64>,
    /// Column factor.
    pub v: Vec<f64>,
}

/// The chain's matrices and the cyclic update stream for `seed`.
pub fn matrix_input(seed: u64) -> (Vec<Matrix>, Vec<Rank1>) {
    let mats = matrices::random_chain(3, N, seed)
        .iter()
        .map(|d| Matrix::from_fn(N, N, |i, j| d[i * N + j]))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6a09_e667_f3bc_c908);
    let updates = (0..UPDATES)
        .map(|i| {
            let (u, v) = matrices::one_row_update(N, (i * 13) % N, &mut rng);
            Rank1 {
                rel: 1 + i % 2,
                neg_u: u.iter().map(|x| -x).collect(),
                u,
                v,
            }
        })
        .collect();
    (mats, updates)
}

/// The matrices with the window after `steps` steps added in.
fn with_window(mats: &[Matrix], updates: &[Rank1], window: &Window, steps: u64) -> Vec<Matrix> {
    let mut out = mats.to_vec();
    for i in window.contents(steps) {
        let up = &updates[i];
        out[up.rel].add_outer(&up.u, &up.v);
    }
    out
}

/// Run the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    rep: &mut Report,
    tally: &mut Tally,
) -> Outcome {
    let (mats, updates) = matrix_input(seed);
    let window = Window::new(updates.len(), WINDOW);
    let mut out = Outcome::default();

    let mut built = None;
    for i in 0..SETUPS {
        let input = with_window(&mats, &updates, &window, 0);
        let t0 = Instant::now();
        let chain = tracer.span("linalg.new", SETUP_OP + i, || EngineChainIvm::new(input));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(chain);
    }
    let mut chain = built.expect("at least one setup");

    let mut reads = InlineReads::new(chain.engine(), 1);
    let (slices, steps) = drive(seconds, trace, SLICE_STEPS, tracer, |tr, k| {
        for (idx, retract) in [(window.inserted(k), false), (window.retracted(k), true)] {
            let up = &updates[idx];
            let u = if retract { &up.neg_u } else { &up.u };
            let t0 = Instant::now();
            tr.span("linalg.apply_rank1", k, || {
                chain.apply_rank1(up.rel, u, &up.v)
            });
            let ns = t0.elapsed().as_nanos() as f64;
            out.update_ns.push(tr.slice(), tr.slice_traced(), ns);
            reads.after_update(chain.engine(), tr, k, &mut out.read_ns);
        }
        2
    });
    out.slices = slices;

    let expect = with_window(&mats, &updates, &window, steps);
    let dense = expect[0].matmul(&expect[1]).matmul(&expect[2]);
    let diff = chain.product().max_abs_diff(&dense);
    let scale = dense.max_abs().max(1.0);
    tally.check(
        "the maintained product equals a dense recomputation",
        diff <= PRODUCT_TOL * scale,
        || format!("largest difference {diff} at scale {scale}"),
    );
    let e = chain.engine();
    rep.set(
        "executor.view_entries",
        e.total_entries() as f64,
        "at the end",
    );
    rep.set(
        "executor.index_bytes",
        e.index_footprint() as f64,
        "at the end",
    );
    rep.set(
        "executor.approx_bytes",
        e.approx_bytes() as f64,
        "at the end",
    );
    rep.set(
        "executor.max_probe_run",
        e.max_probe_run() as f64,
        "at the end",
    );
    let shapes: usize = (0..3).map(|r| e.factored_shapes_cached(r)).sum();
    rep.set(
        "executor.factored_shapes_cached",
        shapes as f64,
        "at the end",
    );
    drop(chain);

    let spans = tracer.spans();
    let applies = trace::durations(spans, "linalg.apply_rank1");
    rep.set_q("executor.apply_us_p50", tail(&applies, 0.5), 1e-3);
    rep.set_q("executor.apply_us_p99", tail(&applies, 0.99), 1e-3);
    rep.set(
        "executor.busy_share",
        span_share(tracer, "linalg.apply_rank1"),
        "apply_rank1 time over the recorded steps' time",
    );
    rep.set(
        "executor.read_share",
        span_share(tracer, "executor.read"),
        "in-line reads",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_in_the_seed() {
        let sig = |(m, u): (Vec<Matrix>, Vec<Rank1>)| {
            let mut s: Vec<f64> = m.iter().flat_map(|x| x.data().to_vec()).collect();
            s.extend(u.iter().flat_map(|r| r.u.iter().chain(&r.v).copied()));
            s
        };
        assert_eq!(sig(matrix_input(1)), sig(matrix_input(1)));
        assert_ne!(sig(matrix_input(1)), sig(matrix_input(2)));
    }
}
