//! End-to-end and per-layer benchmark of the F-IVM engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload housing_served --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Generates the workload's inputs from the seed, sets the engine up
//! several times, streams a sliding window of updates for the given
//! seconds, checks the result against an oracle and recovers. The last
//! line of standard output is one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). README.md explains the workloads and every metric.

mod filevfs;
mod flat;
mod harness;
mod housing;
mod matrix;
mod metrics;
mod stats;
mod trace;
mod workloads;

use harness::{rate, Slice, Tally};
use metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, tail, Positions, Series};
use std::time::Instant;
use trace::Tracer;

/// Set-ups (and, on `housing_served`, recoveries) per run; the median
/// is reported.
pub const SETUPS: u64 = 9;
/// Operation ids of set-ups start here (writer steps count from 0).
pub const SETUP_OP: u64 = 1 << 40;
/// Operation ids of recoveries start here.
pub const RECOVERY_OP: u64 = 2 << 40;

/// What a workload measured, in seconds or nanoseconds as named.
#[derive(Default)]
pub struct Outcome {
    /// Each set-up's duration.
    pub setup_s: Vec<f64>,
    /// The measured phase's slices.
    pub slices: Vec<Slice>,
    /// Each update call's latency, delta construction included.
    pub update_ns: Positions,
    /// Each read's latency from its start.
    pub read_ns: Positions,
    /// Each update's delay until snapshot readers could see it
    /// (`housing_served`).
    pub stale_ns: Series,
    /// Each model refresh (`retailer_cofactor`).
    pub refresh_ns: Series,
}

fn end_to_end(out: &Outcome, rep: &mut Report, tally: &Tally) {
    rep.set(
        "setup_s",
        median(&out.setup_s),
        format!("median of {}", out.setup_s.len()),
    );
    let plain = out.slices.iter().filter(|s| !s.traced).count();
    rep.set(
        "update_tput",
        rate(&out.slices, false),
        format!("each block at its best pace over {plain} slices"),
    );
    for (name, q) in [("update_p50_us", 0.5), ("update_p99_us", 0.99)] {
        rep.set_q(name, out.update_ns.quantile(q), 1e-3);
    }
    println!("setup samples (s): {:?}", out.setup_s);
    let rates: Vec<f64> = out.slices.iter().map(Slice::rate).collect();
    println!("slice update rates (1/s): {rates:.0?}");
    rep.set("peak_rss_mb", harness::peak_rss_mb(), "VmHWM");
    let error_rate = tally.error_rate();
    rep.set(
        "success_rate",
        1.0 - error_rate,
        format!(
            "error_rate = {error_rate}: {} of {} calls and {} of {} checks failed",
            tally.failed_calls, tally.calls, tally.failed_checks, tally.checks
        ),
    );
}

fn per_layer(out: &Outcome, tracer: &Tracer, rep: &mut Report) {
    let spans = tracer.spans();
    let p50_ms = |name| tail(&trace::durations(spans, name), 0.5);
    for (metric, span) in [
        ("query.build_ms", "query.build"),
        ("executor.new_ms", "executor.new"),
        ("executor.load_ms", "executor.load"),
        ("durability.create_ms", "durability.create"),
        ("linalg.new_ms", "linalg.new"),
    ] {
        let q = p50_ms(span);
        if q.n > 0 {
            rep.set_q(metric, q, 1e-6);
        }
    }
    // Reads are timed in every slice like updates, but they wait on
    // memory and follow the host's shared caches too closely to bound
    // (see README.md), so they are reported here.
    rep.set_q("bench.read_us_p50", out.read_ns.quantile(0.5), 1e-3);
    rep.set_q("bench.read_us_p99", out.read_ns.quantile(0.99), 1e-3);
    let builds = trace::durations(spans, "core.delta_build");
    if !builds.is_empty() {
        rep.set_q("core.delta_build_ns_p50", tail(&builds, 0.5), 1.0);
    }
    // Self time of the writer's recorded steps, per layer.
    let step_ns = harness::step_ns(tracer);
    for (layer, ns) in trace::self_by_layer(spans, |s| s.op < SETUP_OP) {
        let name = match layer {
            "core" => "core.self_share",
            "executor" => "executor.self_share",
            "durability" => "durability.self_share",
            "snapshot" => "snapshot.self_share",
            "subscribe" => "subscribe.self_share",
            "ml" => "ml.self_share",
            "linalg" => "linalg.self_share",
            "bench" => "bench.self_share",
            other => panic!("span of unknown layer {other}"),
        };
        rep.set(
            name,
            ns as f64 / step_ns.max(1.0),
            "self time of writer steps",
        );
    }
    if out.stale_ns.seen() > 0 {
        rep.set_q(
            "snapshot.staleness_ms_p99",
            out.stale_ns.quantile(0.99),
            1e-6,
        );
    }
    if out.refresh_ns.seen() > 0 {
        rep.set_q("ml.refresh_ms_p50", out.refresh_ns.quantile(0.5), 1e-6);
    }
    let (plain, traced) = (rate(&out.slices, false), rate(&out.slices, true));
    rep.set(
        "trace.overhead_pct",
        (plain / traced.max(1e-9) - 1.0) * 100.0,
        format!("untraced {plain:.0}/s against traced {traced:.0}/s"),
    );
}

fn main() {
    let args = match harness::parse_args(std::env::args().skip(1)) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "unknown workload {}; one of {}",
                a.workload,
                WORKLOADS.join(", ")
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // The engine runs at its defaults, so the worker pool stays off.
    if std::env::var_os("FIVM_WORKERS").is_some() {
        eprintln!("FIVM_WORKERS is set; unsetting it so the engine runs at its defaults");
        std::env::remove_var("FIVM_WORKERS");
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in harness::fingerprint() {
        println!("host {k}: {v}");
    }
    let mut tracer = Tracer::new(Instant::now());
    tracer.set_on(args.trace);
    let (mut rep, mut tally) = (Report::default(), Tally::default());
    let (seed, secs, tr) = (args.seed, args.seconds, args.trace);
    let out = match args.workload.as_str() {
        "housing_served" => housing::run(seed, secs, tr, &mut tracer, &mut rep, &mut tally),
        "retailer_cofactor" => {
            workloads::retailer(seed, secs, tr, &mut tracer, &mut rep, &mut tally)
        }
        "twitter_triangle" => {
            workloads::triangle(seed, secs, tr, &mut tracer, &mut rep, &mut tally)
        }
        "matrix_chain_rank1" => matrix::run(seed, secs, tr, &mut tracer, &mut rep, &mut tally),
        _ => unreachable!("checked above"),
    };
    end_to_end(&out, &mut rep, &tally);
    let kind = if args.trace {
        per_layer(&out, &tracer, &mut rep);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        match trace::write_tsv(tracer.spans(), &path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    rep.fill_absent(kind, &args.workload);
    print!("{}", rep.table(kind));
    println!("{}", rep.json(kind, &tally));
}
