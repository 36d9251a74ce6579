//! `perfbench` — the andi repository benchmark.
//!
//! ```text
//! perfbench --workload <assess_cold|assess_hot|update_mix|recipe_batch>
//!           --seed <n> --seconds <s> --trace <0|1> --serve-bin <path>
//! ```
//!
//! Prints a table of every metric, then one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. Exits non-zero when a served
//! or recipe answer differs from its in-process reference. See
//! `README.md` for the workloads and the layer map.

mod gen;
mod metrics;
mod procs;
mod recipe;
mod replay;
mod served;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{count_above, mean, median, percentile, Report};
use trace::Recorder;

/// How many times each run sets its system up; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// The gated end-to-end metrics, in result-line order.
pub const END_TO_END: [&str; 8] = [
    "throughput_ops",
    "latency_p50_ms",
    "latency_p95_ms",
    "success_rate",
    "risk_accuracy",
    "cpu_ms_per_op",
    "peak_rss_mb",
    "setup_s",
];

/// Every per-layer metric of the traced run, with its unit. A layer a
/// workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("http.wire_ms", "ms"),
    ("admission.shed", "count"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.result_uncacheable", "ratio"),
    ("cache.scaffold_hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("instance.parse_us", "us"),
    ("grouped.scaffold_us", "us"),
    ("grouped.graph_us", "us"),
    ("ladder.ms", "ms"),
    ("exact.ms", "ms"),
    ("sampler.ms", "ms"),
    ("convex.ms", "ms"),
    ("incremental.apply_us", "us"),
    ("recipe.groups_us", "us"),
    ("recipe.belief_us", "us"),
    ("recipe.ladder_ms", "ms"),
    ("recipe.mask_ms", "ms"),
    ("ladder.rung_exact", "ratio"),
    ("ladder.rung_sampler", "ratio"),
    ("ladder.rung_oestimate", "ratio"),
    ("ladder.trips", "count/op"),
    ("trace.overhead", "ratio"),
    ("degraded_share", "ratio"),
    ("risk_rel_err", "ratio"),
    ("error_rate", "ratio"),
];

/// Parsed command line of a benchmark run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
}

/// Throughput and CPU per op are medians over windows of about this
/// many seconds, so a short burst of load from outside the benchmark
/// moves one window, not the run.
pub const WINDOW_S: f64 = 2.5;

/// How many windows a timed phase of `seconds` splits into.
pub fn window_count(seconds: f64) -> u32 {
    (seconds / WINDOW_S).round().max(1.0) as u32
}

/// One window of a timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub secs: f64,
    /// Successful ops that completed inside the window.
    pub ops: u64,
    /// CPU time of the system under test inside the window.
    pub cpu_ns: u64,
}

/// What a workload run measured, before it becomes metrics.
pub struct Outcome {
    /// Answer mismatches against the in-process references.
    pub mismatches: usize,
    /// Ops attempted and failed over the whole run.
    pub attempted: u64,
    pub failed: u64,
    /// Latencies (ms) of the successful ops of the untraced phase.
    pub latencies_ms: Vec<f64>,
    /// Ops attempted in the untraced phase, and its windows.
    pub phase_ops: usize,
    pub windows: Vec<Window>,
    pub rss_mb: f64,
    pub setups_s: Vec<f64>,
    /// Share of answers from a rung below exact, over the whole run.
    pub degraded_share: f64,
    /// Relative risk errors of the ops that have a convex reference.
    pub rel_errs: Vec<f64>,
    /// Per-layer metrics and spans, when traced.
    pub layers: Option<(Report, Recorder)>,
}

impl Outcome {
    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics, then the table-only ones.
    fn end_to_end(&self) -> Report {
        let lat = &self.latencies_ms;
        let ok = lat.len();
        let mut r = Report::default();
        let per_window = |f: &dyn Fn(&Window) -> f64| -> f64 {
            let v: Vec<f64> = self.windows.iter().filter(|w| w.ops > 0).map(f).collect();
            median(&v)
        };
        r.add(
            "throughput_ops",
            "ops/s",
            per_window(&|w| w.ops as f64 / w.secs),
        );
        r.add("latency_p50_ms", "ms", percentile(lat, 0.50));
        r.add("latency_p95_ms", "ms", percentile(lat, 0.95));
        r.add(
            "success_rate",
            "ratio",
            ok as f64 / self.phase_ops.max(1) as f64,
        );
        r.add("risk_accuracy", "ratio", 1.0 - mean(&self.rel_errs));
        r.add(
            "cpu_ms_per_op",
            "ms",
            per_window(&|w| w.cpu_ns as f64 / 1e6 / w.ops as f64),
        );
        r.add("peak_rss_mb", "MB", self.rss_mb);
        r.add("setup_s", "s", median(&self.setups_s));
        self.answer_ratios(&mut r);
        r.add("samples", "count", ok as f64);
        r.add("samples_above_p95", "count", count_above(lat, 0.95) as f64);
        // Printed, not gated: on a shared host the tenth-largest of
        // ~1,000 samples lands on scheduling hiccups from outside the
        // benchmark, so it does not repeat within any allowed bound.
        r.add("latency_p99_ms", "ms", percentile(lat, 0.99));
        r.add("samples_above_p99", "count", count_above(lat, 0.99) as f64);
        r
    }

    /// The answer-level ratios that read 0 on some workloads.
    fn answer_ratios(&self, r: &mut Report) {
        r.add("degraded_share", "ratio", self.degraded_share);
        r.add("risk_rel_err", "ratio", mean(&self.rel_errs));
        r.add("error_rate", "ratio", self.error_rate());
    }
}

fn parse_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = PathBuf::from(".bench_build/release/andi-serve");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--serve-bin" => serve_bin = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        serve_bin,
    })
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "assess_cold" => served::run(served::Kind::Cold, args),
        "assess_hot" => served::run(served::Kind::Hot, args),
        "update_mix" => served::run(served::Kind::Update, args),
        "recipe_batch" => recipe::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Writes the traced run's spans under `.bench_out/`.
fn write_spans(args: &RunArgs, rec: &Recorder) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, rec.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--recipe-host") {
        return match recipe::host() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("recipe host: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let title = format!(
        "{} seed={} seconds={} attempted={} succeeded={} failed={}",
        args.workload,
        args.seed,
        args.seconds,
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    let e2e = outcome.end_to_end();
    print!("{}", e2e.table(&format!("end-to-end: {title}")));
    let correct = outcome.mismatches == 0;
    let line = match outcome.layers.take() {
        Some((mut layers, rec)) => {
            outcome.answer_ratios(&mut layers);
            print!("{}", layers.table(&format!("per-layer (traced): {title}")));
            match write_spans(&args, &rec) {
                Ok(path) => println!("{} spans written to {}", rec.len(), path.display()),
                Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
            }
            let keep: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
            layers.json_line(correct, outcome.attempted, outcome.failed, &keep)
        }
        None => e2e.json_line(correct, outcome.attempted, outcome.failed, &END_TO_END),
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: answer mismatch (see the first failed op above)");
        ExitCode::FAILURE
    }
}
