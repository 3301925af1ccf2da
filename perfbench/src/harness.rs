//! What every workload shares: arguments, the sliding window, the
//! timed loop with its slices and blocks, in-line reads, correctness
//! bookkeeping and the host fingerprint.

use crate::stats::{median, Positions};
use crate::trace::Tracer;
use fivm_core::{Delta, Relation, Ring, Schema, Tuple};
use fivm_engine::{Database, IvmEngine};
use fivm_query::{NodeId, QueryDef, RelIndex};
use std::time::Instant;

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = val.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad(&"must lie in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A sliding window of `width` items over a cyclic stream of `len`
/// items: step `k` inserts item `width + k` and retracts item `k`
/// (both modulo `len`), so state size stays steady and every insert
/// has a retraction beside it.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Stream length.
    pub len: usize,
    /// Items in the window.
    pub width: usize,
}

impl Window {
    /// A window of `width` over `len` items; `len` must exceed `width`
    /// so an inserted item is never already in the window.
    pub fn new(len: usize, width: usize) -> Self {
        assert!(
            len > width && width > 0,
            "window {width} over a stream of {len}"
        );
        Window { len, width }
    }
    /// The item step `k` inserts.
    pub fn inserted(&self, k: u64) -> usize {
        ((self.width as u64 + k) % self.len as u64) as usize
    }
    /// The item step `k` retracts.
    pub fn retracted(&self, k: u64) -> usize {
        (k % self.len as u64) as usize
    }
    /// The items in the window after `steps` steps.
    pub fn contents(&self, steps: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.width as u64).map(move |i| ((steps + i) % self.len as u64) as usize)
    }
}

/// A flat delta giving each tuple `payload`.
pub fn delta<R: Ring>(schema: &Schema, tuples: &[Tuple], payload: &R) -> Delta<R> {
    Delta::Flat(Relation::from_pairs(
        schema.clone(),
        tuples.iter().map(|t| (t.clone(), payload.clone())),
    ))
}

/// A database holding `items` with payload one.
pub fn database<'a, R: Ring>(
    q: &QueryDef,
    items: impl Iterator<Item = (RelIndex, &'a Tuple)>,
) -> Database<R> {
    let mut db = Database::empty(q);
    for (rel, t) in items {
        db.relations[rel].insert(t.clone(), R::one());
    }
    db
}

/// One slice of the measured phase: a fixed number of writer steps.
#[derive(Clone, Debug)]
pub struct Slice {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Updates applied (tuples, or rank-1 updates).
    pub updates: u64,
    /// Wall seconds.
    pub secs: f64,
    /// Wall seconds of each block of consecutive steps; block `j`
    /// covers the same steps in every slice.
    pub blocks: Vec<f64>,
}

impl Slice {
    /// Updates per second.
    pub fn rate(&self) -> f64 {
        self.updates as f64 / self.secs.max(1e-9)
    }
}

/// Slices a run takes at least, however long they last.
pub const MIN_SLICES: usize = 6;

/// Blocks a slice is timed in, at most (a slice of fewer steps times
/// each step): short enough that a quiet moment of the host holds a
/// whole block.
pub const BLOCKS: u64 = 1000;

/// Run `step` (one closed-loop writer step; returns the updates it
/// applied) in slices of `steps_per_slice` steps, until `seconds` have
/// elapsed and at least [`MIN_SLICES`] slices are done. A workload
/// makes `steps_per_slice` a whole number of its cycles (the stream's
/// length and the period of everything it does every n-th step), so
/// that every slice does the same work and slices differ only in the
/// host conditions they met. A traced run alternates untraced and
/// traced slices and ends on a traced one, so both halves see the same
/// host and their difference is the tracing overhead. Each step is one
/// operation of the trace, under a `bench.step` span. Returns the
/// slices and the number of steps taken. Each slice is timed in
/// [`BLOCKS`] blocks of consecutive steps, for [`rate`].
pub fn drive(
    seconds: f64,
    trace: bool,
    steps_per_slice: u64,
    tracer: &mut Tracer,
    mut step: impl FnMut(&mut Tracer, u64) -> u64,
) -> (Vec<Slice>, u64) {
    let mut k = 0u64;
    let mut slices = Vec::new();
    let run = Instant::now();
    while slices.len() < MIN_SLICES
        || run.elapsed().as_secs_f64() < seconds
        || (trace && slices.len() % 2 == 1)
    {
        let traced = trace && slices.len() % 2 == 1;
        tracer.enter_slice(slices.len(), traced);
        let nb = steps_per_slice.min(BLOCKS);
        let mut blocks = Vec::with_capacity(nb as usize);
        let start = Instant::now();
        let mut block_start = start;
        let mut updates = 0;
        for i in 0..steps_per_slice {
            tracer.enter_op(k);
            let id = tracer.begin("bench.step", k);
            updates += step(tracer, k);
            tracer.end(id);
            k += 1;
            if (i + 1) * nb / steps_per_slice != i * nb / steps_per_slice {
                let now = Instant::now();
                blocks.push(now.duration_since(block_start).as_secs_f64());
                block_start = now;
            }
        }
        slices.push(Slice {
            traced,
            updates,
            secs: start.elapsed().as_secs_f64(),
            blocks,
        });
    }
    tracer.set_on(false);
    (slices, k)
}

/// Nanoseconds the writer's recorded steps took: the time that per-layer
/// shares are taken of. Sampled steps carry their own tracing cost, so
/// this is a steadier base than the traced slices' wall time.
pub fn step_ns(tracer: &Tracer) -> f64 {
    crate::trace::durations(tracer.spans(), "bench.step")
        .iter()
        .sum()
}

/// The share of the writer's recorded steps' time spent in spans called
/// `name`.
pub fn span_share(tracer: &Tracer, name: &str) -> f64 {
    let ns: f64 = crate::trace::durations(tracer.spans(), name).iter().sum();
    ns / step_ns(tracer).max(1.0)
}

/// Update rate of a slice run at the best pace each block of it
/// reached: the slices' updates over the sum, across blocks, of the
/// shortest time a block took in any untraced (or any traced) slice.
/// Like [`Positions`], this reads each piece of work on its least
/// disturbed pass. 0 when there is no slice of the kind.
pub fn rate(slices: &[Slice], traced: bool) -> f64 {
    let kind: Vec<&Slice> = slices.iter().filter(|s| s.traced == traced).collect();
    let Some(first) = kind.first() else {
        return 0.0;
    };
    let secs: f64 = (0..first.blocks.len())
        .map(|j| {
            kind.iter()
                .map(|s| s.blocks[j])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let updates: Vec<f64> = kind.iter().map(|s| s.updates as f64).collect();
    median(&updates) / secs.max(1e-9)
}

/// Reads probe this many keys.
pub const PROBES: usize = 16;

/// The view reads probe and the keys they cycle through: the largest
/// materialized view with a non-empty key, and up to 256 of its keys
/// spread evenly over their sorted order.
fn probe_keys<R: Ring>(engine: &IvmEngine<R>) -> (NodeId, Vec<Tuple>) {
    let node = engine
        .materialized_nodes()
        .into_iter()
        .filter(|&n| !engine.tree().nodes[n].keys.is_empty())
        .max_by_key(|&n| {
            (
                engine.view_store(n).map_or(0, |s| s.len()),
                std::cmp::Reverse(n),
            )
        })
        .expect("some materialized view has a key");
    let mut keys: Vec<Tuple> = engine
        .view_store(node)
        .expect("node is materialized")
        .iter()
        .map(|(t, _)| t.clone())
        .collect();
    keys.sort();
    let step = keys.len().div_ceil(256).max(1);
    (node, keys.into_iter().step_by(step).collect())
}

/// In-line reads: after every `every`-th update call the writer itself
/// reads [`PROBES`] keys of the view [`probe_keys`] picks, timed from
/// the read's start. Reads are tied to update calls rather than to a
/// clock so that a read sits in the same place among the updates however
/// fast the host runs: served on a clock, due reads came in bursts whose
/// length followed the writer's speed, and the warm reads of long bursts
/// pulled the median down whenever the host was slow. Counts start again
/// with every slice, so the n-th read of every slice probes the same
/// keys in the same state (see [`Positions`]).
pub struct InlineReads {
    node: NodeId,
    keys: Vec<Tuple>,
    every: u64,
    slice: usize,
    calls: u64,
    next: usize,
}

impl InlineReads {
    /// Reads of the view [`probe_keys`] picks, one per `every` update
    /// calls.
    pub fn new<R: Ring>(engine: &IvmEngine<R>, every: u64) -> Self {
        let (node, keys) = probe_keys(engine);
        InlineReads {
            node,
            keys,
            every: every.max(1),
            slice: 0,
            calls: 0,
            next: 0,
        }
    }

    /// Count one update call of step `k`; on every `every`-th, run
    /// `read` on the view and the keys due, under a span `span`, and
    /// record its latency in nanoseconds in `latency`.
    pub fn after_update_with(
        &mut self,
        tr: &mut Tracer,
        k: u64,
        span: &'static str,
        latency: &mut Positions,
        read: impl FnOnce(&mut Tracer, NodeId, [&Tuple; PROBES]),
    ) {
        if tr.slice() != self.slice {
            (self.slice, self.calls, self.next) = (tr.slice(), 0, 0);
        }
        self.calls += 1;
        if !self.calls.is_multiple_of(self.every) {
            return;
        }
        let keys = std::array::from_fn(|j| &self.keys[(self.next + j) % self.keys.len()]);
        self.next += PROBES;
        let start = Instant::now();
        let id = tr.begin(span, k);
        read(tr, self.node, keys);
        tr.end(id);
        latency.push(
            tr.slice(),
            tr.slice_traced(),
            start.elapsed().as_nanos() as f64,
        );
    }

    /// [`Self::after_update_with`] reading an in-memory engine, which
    /// has no snapshot layer: `IvmEngine::view_store` lookups.
    pub fn after_update<R: Ring>(
        &mut self,
        engine: &IvmEngine<R>,
        tr: &mut Tracer,
        k: u64,
        latency: &mut Positions,
    ) {
        self.after_update_with(tr, k, "executor.read", latency, |_, node, keys| {
            let store = engine
                .view_store(node)
                .expect("probed view is materialized");
            for key in keys {
                std::hint::black_box(store.get(key));
            }
        });
    }
}

/// Calls into the engine and correctness checks, counted apart: a run
/// makes millions of calls and a handful of checks, so one failed check
/// must not be diluted by the calls.
#[derive(Default, Debug)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Calls that returned an error.
    pub failed_calls: u64,
    /// Checks made.
    pub checks: u64,
    /// Checks that did not hold.
    pub failed_checks: u64,
}

impl Tally {
    /// Count one call's outcome.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.calls += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed_calls += 1;
                eprintln!("error: {what}: {e}");
                None
            }
        }
    }

    /// Count one correctness check.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if ok {
            eprintln!("check ok: {what}");
        } else {
            self.failed_checks += 1;
            eprintln!("CHECK FAILED: {what}: {}", detail());
        }
    }

    /// Calls and checks made.
    pub fn attempted(&self) -> u64 {
        self.calls + self.checks
    }

    /// Failed calls and checks.
    pub fn failed(&self) -> u64 {
        self.failed_calls + self.failed_checks
    }

    /// The larger of the failed share of calls and of checks: one
    /// failed check among millions of calls still reads as a failure
    /// rate of at least 1 / checks.
    pub fn error_rate(&self) -> f64 {
        let share = |failed: u64, n: u64| failed as f64 / n.max(1) as f64;
        share(self.failed_calls, self.calls).max(share(self.failed_checks, self.checks))
    }

    /// Whether every check ran and held and no call failed.
    pub fn correct(&self) -> bool {
        self.checks > 0 && self.failed() == 0
    }
}

/// Whether `a` and `b` agree within `rel` of the larger magnitude (or
/// of 1, for values near zero).
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and with what the numbers were taken.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let first_line = |s: String| s.lines().next().unwrap_or("").trim().to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(first_line)
        .unwrap_or_else(|_| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| first_line(String::from_utf8_lossy(&o.stdout).into_owned()))
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("rustc", rustc),
        (
            "log_dir",
            format!(
                "{} (StdVfs system calls, fsync left out)",
                crate::housing::log_parent().display()
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload housing_served --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "housing_served".into(),
                seed: 7,
                seconds: 2.5,
                trace: true
            }
        );
        assert!(args("--seed 7").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--workload x --bogus 1").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn window_slides_without_reinserting_a_live_item() {
        let w = Window::new(5, 3);
        let mut live: Vec<usize> = w.contents(0).collect();
        assert_eq!(live, vec![0, 1, 2]);
        for k in 0..12 {
            let (ins, ret) = (w.inserted(k), w.retracted(k));
            assert!(!live.contains(&ins));
            live.retain(|&i| i != ret);
            live.push(ins);
            let mut want: Vec<usize> = w.contents(k + 1).collect();
            want.sort();
            let mut got = live.clone();
            got.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn drive_runs_whole_slices_and_traced_runs_alternate() {
        let mut tracer = Tracer::new(Instant::now());
        let mut seen = Vec::new();
        let (slices, steps) = drive(0.0, true, 3, &mut tracer, |tr, k| {
            seen.push((k, tr.slice(), tr.slice_traced()));
            2
        });
        assert_eq!((slices.len(), steps), (MIN_SLICES, 3 * MIN_SLICES as u64));
        assert!(slices.iter().all(|s| s.updates == 6));
        let traced: Vec<bool> = slices.iter().map(|s| s.traced).collect();
        assert_eq!(traced, [false, true].repeat(MIN_SLICES / 2));
        assert_eq!(seen[4], (4, 1, true));
        assert!(!tracer.is_on());
        let (plain, _) = drive(0.0, false, 1, &mut tracer, |_, _| 1);
        assert!(plain.iter().all(|s| !s.traced));
    }

    #[test]
    fn drive_times_every_slice_in_the_same_blocks() {
        let mut tracer = Tracer::new(Instant::now());
        let (slices, _) = drive(0.0, false, 2500, &mut tracer, |_, _| 1);
        assert!(slices.iter().all(|s| s.blocks.len() == BLOCKS as usize));
        let (slices, _) = drive(0.0, false, 7, &mut tracer, |_, _| 1);
        assert!(slices.iter().all(|s| s.blocks.len() == 7));
    }

    #[test]
    fn rate_runs_each_block_at_its_best_pace() {
        let s = |traced, blocks: &[f64]| Slice {
            traced,
            updates: 100,
            secs: blocks.iter().sum(),
            blocks: blocks.to_vec(),
        };
        let slices = [
            s(false, &[1.0, 4.0]),
            s(true, &[0.1, 0.1]),
            s(false, &[3.0, 1.0]),
            s(false, &[2.0, 9.0]),
        ];
        // Untraced: the best block times are 1.0 and 1.0.
        assert_eq!(rate(&slices, false), 50.0);
        assert_eq!(rate(&slices, true), 500.0);
        assert_eq!(rate(&slices[..1], true), 0.0);
    }

    #[test]
    fn one_failed_check_among_many_calls_fails_the_success_rate_bound() {
        let mut t = Tally::default();
        for _ in 0..1_000_000 {
            t.call::<(), String>("apply", Ok(()));
        }
        t.check("first", true, String::new);
        assert_eq!((t.error_rate(), t.correct()), (0.0, true));
        for _ in 0..3 {
            t.check("later", true, String::new);
        }
        t.check("oracle", false, || "differs".into());
        // success_rate = 1 - error_rate is 0.8, far outside its 0.01 bound.
        assert_eq!(t.error_rate(), 0.2);
        assert!(!t.correct());
        assert_eq!((t.attempted(), t.failed()), (1_000_005, 1));
        let mut calls = Tally::default();
        calls.check("oracle", true, String::new);
        calls.call::<(), _>("apply", Err("disk full"));
        calls.call::<(), String>("apply", Ok(()));
        assert_eq!(calls.error_rate(), 0.5);
        assert!(
            !Tally::default().correct(),
            "a run without checks is not correct"
        );
    }

    #[test]
    fn closeness_is_relative() {
        assert!(close(1e9, 1e9 + 1.0, 1e-6));
        assert!(!close(1e9, 1.001e9, 1e-6));
        assert!(close(0.0, 1e-9, 1e-6));
    }
}
