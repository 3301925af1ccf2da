//! The in-memory flat-delta workloads (`retailer_cofactor`,
//! `twitter_triangle`): an [`IvmEngine`] at its defaults, fed a sliding
//! window of insert and retract batches by one closed-loop writer that
//! also makes the reads between its updates (an in-memory engine has
//! no snapshot layer; see [`InlineReads`]).

use crate::harness::{database, delta, drive, span_share, InlineReads, Tally, Window};
use crate::metrics::Report;
use crate::trace::{self, Tracer};
use crate::{Outcome, SETUPS, SETUP_OP};
use fivm_core::{LiftingMap, Ring, Schema};
use fivm_data::Batch;
use fivm_engine::{Database, IvmEngine};
use fivm_query::{QueryDef, VariableOrder, ViewTree};
use std::time::Instant;

/// One flat-delta workload.
pub struct Flat<R: Ring> {
    /// The query.
    pub query: QueryDef,
    /// Its variable order.
    pub order: VariableOrder,
    /// Add indicator projections to the view tree.
    pub indicators: bool,
    /// Liftings of the query's variables.
    pub lifts: LiftingMap<R>,
    /// The cyclic stream; each batch is one `apply`.
    pub batches: Vec<Batch>,
    /// Batches in the window.
    pub width: usize,
    /// Batches that stay loaded; every `churn_every` steps the next one
    /// is retracted and inserted again.
    pub churn: Vec<Batch>,
    /// Writer steps between two churned batches.
    pub churn_every: u64,
    /// Writer steps between two refreshes of the answer; 0 for none.
    pub refresh_every: u64,
    /// Update calls between two in-line reads.
    pub read_every: u64,
    /// Cycles of the stream per slice: enough that a slice holds the
    /// 1 000 update calls and reads a p99 needs (see [`Positions`]).
    ///
    /// [`Positions`]: crate::stats::Positions
    pub slice_cycles: u64,
}

/// Whether step `k` is the last of a period of `every` steps, counted
/// from the start of the stream's cycle of `len` steps, so that every
/// cycle repeats the same periodic work.
fn ends_period(k: u64, len: usize, every: u64) -> bool {
    every > 0 && (k % len as u64 + 1).is_multiple_of(every)
}

impl<R: Ring> Flat<R> {
    /// The database holding the window after `steps` steps and every
    /// churned batch.
    pub fn window_db(&self, window: &Window, steps: u64) -> Database<R> {
        let window = window.contents(steps).map(|i| &self.batches[i]);
        database(
            &self.query,
            window
                .chain(&self.churn)
                .flat_map(|b| b.tuples.iter().map(move |t| (b.relation, t))),
        )
    }

    /// The batches step `k` applies: the window's insert and retract,
    /// then on churn steps a retract and re-insert of a churned batch.
    fn step_batches(&self, window: &Window, k: u64) -> impl Iterator<Item = (&Batch, bool)> {
        let churn =
            (!self.churn.is_empty() && ends_period(k, window.len, self.churn_every)).then(|| {
                let n = (k % window.len as u64) / self.churn_every;
                &self.churn[n as usize % self.churn.len()]
            });
        [
            (&self.batches[window.inserted(k)], false),
            (&self.batches[window.retracted(k)], true),
        ]
        .into_iter()
        .chain(churn.into_iter().flat_map(|b| [(b, true), (b, false)]))
    }

    fn tree(&self) -> ViewTree {
        let mut tree = ViewTree::build(&self.query, &self.order);
        if self.indicators {
            fivm_query::add_indicators(&mut tree, &self.query);
        }
        tree
    }

    fn engine(&self, tree: &ViewTree) -> IvmEngine<R> {
        let all: Vec<usize> = (0..self.query.relations.len()).collect();
        IvmEngine::new(self.query.clone(), tree.clone(), &all, self.lifts.clone())
    }

    /// Set up, stream for `seconds` in slices of `slice_cycles` cycles
    /// of the stream each, and check the result. `refresh` derives the
    /// answer users consume from the engine; `check` compares the engine
    /// against an oracle over the final window.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        seconds: f64,
        trace: bool,
        tracer: &mut Tracer,
        rep: &mut Report,
        tally: &mut Tally,
        mut refresh: impl FnMut(&IvmEngine<R>, &mut Tracer, u64),
        check: impl FnOnce(&IvmEngine<R>, &ViewTree, &Database<R>, &mut Tally),
    ) -> Outcome {
        let window = Window::new(self.batches.len(), self.width);
        let schemas: Vec<Schema> = self
            .query
            .relations
            .iter()
            .map(|r| r.schema.clone())
            .collect();
        let mut out = Outcome::default();

        let mut built = None;
        for i in 0..SETUPS {
            let op = SETUP_OP + i;
            let t0 = Instant::now();
            let tree = tracer.span("query.build", op, || self.tree());
            let mut engine = tracer.span("executor.new", op, || self.engine(&tree));
            let db = tracer.span("core.preload_build", op, || self.window_db(&window, 0));
            tracer.span("executor.load", op, || engine.load(&db));
            out.setup_s.push(t0.elapsed().as_secs_f64());
            built = Some((tree, engine));
        }
        let (tree, mut engine) = built.expect("at least one setup");

        let mut reads = InlineReads::new(&engine, self.read_every);
        let (one, neg) = (R::one(), R::one().neg());
        let slice = window.len as u64 * self.slice_cycles;
        let (slices, steps) = drive(seconds, trace, slice, tracer, |tr, k| {
            let mut n = 0;
            for (b, retract) in self.step_batches(&window, k) {
                let payload = if retract { &neg } else { &one };
                let t0 = Instant::now();
                let d = delta(&schemas[b.relation], &b.tuples, payload);
                if tr.is_on() {
                    tr.record("core.delta_build", k, t0, Instant::now());
                }
                let id = tr.begin("executor.apply", k);
                engine.apply(b.relation, &d);
                tr.end(id);
                let ns = t0.elapsed().as_nanos() as f64;
                out.update_ns.push(tr.slice(), tr.slice_traced(), ns);
                n += b.tuples.len() as u64;
                reads.after_update(&engine, tr, k, &mut out.read_ns);
            }
            if ends_period(k, window.len, self.refresh_every) {
                let t = Instant::now();
                refresh(&engine, tr, k);
                out.refresh_ns.push(t.elapsed().as_nanos() as f64);
            }
            n
        });
        out.slices = slices;

        let db = self.window_db(&window, steps);
        check(&engine, &tree, &db, tally);
        rep.set(
            "executor.view_entries",
            engine.total_entries() as f64,
            "at the end",
        );
        rep.set(
            "executor.index_bytes",
            engine.index_footprint() as f64,
            "at the end",
        );
        rep.set(
            "executor.approx_bytes",
            engine.approx_bytes() as f64,
            "at the end",
        );
        rep.set(
            "executor.max_probe_run",
            engine.max_probe_run() as f64,
            "at the end",
        );
        let shapes: usize = (0..schemas.len())
            .map(|r| engine.factored_shapes_cached(r))
            .sum();
        rep.set(
            "executor.factored_shapes_cached",
            shapes as f64,
            "at the end",
        );
        drop(engine);

        let spans = tracer.spans();
        rep.set_q(
            "executor.apply_us_p50",
            crate::stats::tail(&trace::durations(spans, "executor.apply"), 0.5),
            1e-3,
        );
        rep.set_q(
            "executor.apply_us_p99",
            crate::stats::tail(&trace::durations(spans, "executor.apply"), 0.99),
            1e-3,
        );
        let share = |name| span_share(tracer, name);
        rep.set(
            "executor.busy_share",
            share("executor.apply"),
            "apply time over the recorded steps' time",
        );
        rep.set(
            "executor.read_share",
            share("executor.read"),
            "in-line reads",
        );
        out
    }
}
