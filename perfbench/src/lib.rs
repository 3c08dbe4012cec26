//! Seeded end-to-end and per-layer benchmark for the felim stack.
//!
//! One binary runs one workload per process (so `peak_rss_mb` and
//! `setup_s` belong to that workload):
//!
//! | workload | layers |
//! |---|---|
//! | `serve_local` | service admission, kernel plans, read cache, decompose/settle, backend emulation; an untimed remote check covers `serve::wire`, `serve::remote`, `serve::replica` |
//! | `serve_protected` | the serving path on the Protected tier: the reliability controller (ECC, scrub, drift) |
//! | `fig6_arch` | the eight Fig 6 kernels on DRAM and FeRAM through `BulkBackend` |
//! | `cell_transients` | `ferro` device sampling, `cell` testbenches, `spice` transients |
//!
//! Every run checks its outputs against an oracle and fails on any
//! mismatch. The traced build (`--features telemetry`) additionally
//! records benchmark-side spans around each layer call and reads the
//! library's telemetry counters.

mod cell;
mod fig6;
pub mod gen;
pub mod oracle;
mod serve;
pub mod spans;
pub mod stats;
pub mod timing;

use spans::Recorder;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = [
    "serve_local",
    "serve_protected",
    "fig6_arch",
    "cell_transients",
];

/// Everything a workload run needs.
#[derive(Debug)]
pub struct RunCtx {
    /// Input seed.
    pub seed: u64,
    /// Measuring budget.
    pub budget: Duration,
    /// Span recorder (disabled in the untraced run).
    pub rec: Recorder,
    /// Path of the `felim-shardd` daemon binary (remote workload only).
    pub shardd: Option<PathBuf>,
    /// Corrupt one expected value, so the oracle must fail.
    pub corrupt_oracle: bool,
}

impl RunCtx {
    /// Whether spans and per-layer metrics are recorded.
    pub fn traced(&self) -> bool {
        felim_telemetry::enabled()
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Oracle mismatches and failed operations, as messages.
    pub errors: Vec<String>,
    /// Operations attempted (requests, simulated commands or transients).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Informational lines (sizes, op mix, digests).
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records an informational key/value line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// Records the error of a failed step; the value otherwise.
    pub fn ok<T>(&mut self, result: Result<T, String>) -> Option<T> {
        result.map_err(|e| self.errors.push(e)).ok()
    }

    /// Records an oracle failure unless `check` passed.
    pub fn check(&mut self, check: Result<(), String>) {
        if let Err(e) = check {
            self.errors.push(e);
        }
    }

    /// True when every oracle check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// Setup samples timed at the start of every run. Each repetition of the
/// run then times one more, so the samples spread over the whole run.
pub const SETUP_SAMPLES: u64 = 21;

/// Host time one setup sample lasts at least, s. A setup that is faster
/// runs several times per sample, so a sample is never down at the scale
/// of timer and scheduler noise.
pub const MIN_SETUP_SAMPLE_S: f64 = 5e-3;

/// Times a workload's setup in batches: one sample is the mean time of
/// one setup in a batch that lasts at least [`MIN_SETUP_SAMPLE_S`].
#[derive(Debug, Clone)]
pub struct SetupTimer {
    per_batch: u64,
    samples_s: Vec<f64>,
}

impl SetupTimer {
    /// Sizes the batch (1, 2, 4, … setups until one batch lasts at least
    /// [`MIN_SETUP_SAMPLE_S`]), then times [`SETUP_SAMPLES`] batches, all
    /// inside one `setup_samples` span.
    ///
    /// # Errors
    ///
    /// The first setup failure.
    pub fn start(
        rec: &mut Recorder,
        setup: &mut impl FnMut() -> Result<(), String>,
    ) -> Result<Self, String> {
        rec.span("setup_samples", 0, |_| {
            let mut timer = Self {
                per_batch: 1,
                samples_s: Vec::new(),
            };
            while timer.batch(setup)? * (timer.per_batch as f64) < MIN_SETUP_SAMPLE_S {
                timer.per_batch *= 2;
            }
            for _ in 0..SETUP_SAMPLES {
                timer.sample(setup)?;
            }
            Ok(timer)
        })
    }

    /// Times one more batch and keeps it as a sample.
    ///
    /// # Errors
    ///
    /// The first setup failure.
    pub fn sample(&mut self, setup: &mut impl FnMut() -> Result<(), String>) -> Result<(), String> {
        let s = self.batch(setup)?;
        self.samples_s.push(s);
        Ok(())
    }

    /// The samples of `timer`, s per setup; none without a timer.
    pub fn samples_s(timer: Option<&Self>) -> &[f64] {
        timer.map_or(&[], |t| &t.samples_s)
    }

    fn batch(&self, setup: &mut impl FnMut() -> Result<(), String>) -> Result<f64, String> {
        let t = Instant::now();
        for _ in 0..self.per_batch {
            setup()?;
        }
        Ok(t.elapsed().as_secs_f64() / self.per_batch as f64)
    }
}

/// Repeats `rep` until at least `min_reps` repetitions ran and the
/// budget is spent; returns the repetition count.
pub fn repeat(budget: Duration, min_reps: u64, mut rep: impl FnMut(u64)) -> u64 {
    let start = Instant::now();
    let mut n = 0;
    while n < min_reps || start.elapsed() < budget {
        rep(n);
        n += 1;
    }
    n
}

/// Peak resident set size of this process, MB (`VmHWM`).
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

/// One step of a repetition: a service tick, a figure sweep or a cell
/// transient.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Step {
    /// Operations the step completed.
    pub ops: f64,
    /// Host time of the whole step, s (a service tick's submits included).
    pub busy_s: f64,
    /// Host time of the step's timed call (`step()`, the sweep, the
    /// transient), µs.
    pub call_us: f64,
}

/// The fastest time of every step over a run's repetitions: entry `i` is
/// the step `i` with the least host time among the repetitions (cut to the
/// shortest). Every repetition does the same work, so a slower step was
/// slowed by other work on a shared host, which comes and goes over
/// seconds to minutes; each step's fastest time shows the program.
pub fn fastest_steps(reps: &[Vec<Step>]) -> Vec<Step> {
    let len = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            reps.iter()
                .map(|r| r[i])
                .min_by(|a, b| a.busy_s.total_cmp(&b.busy_s))
                .expect("at least one repetition")
        })
        .collect()
}

/// Host-time metrics every workload reports, over the fastest time of
/// every step (see [`fastest_steps`]): throughput, the median and tail
/// step; the fastest setup sample (see [`SetupTimer`]), for the same
/// reason; and the peak memory.
pub fn host_metrics(out: &mut Outcome, reps: &[Vec<Step>], setups_s: &[f64]) {
    let steps = fastest_steps(reps);
    if steps.is_empty() || setups_s.is_empty() {
        out.errors.push("no repetition completed".to_owned());
        return;
    }
    let ops: f64 = steps.iter().map(|s| s.ops).sum();
    let busy: f64 = steps.iter().map(|s| s.busy_s).sum();
    out.metric("ops_per_s", stats::ratio(ops, busy), "1/s");
    let fastest_setup = setups_s.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("setup_s", fastest_setup, "s");
    let calls: Vec<f64> = steps.iter().map(|s| s.call_us).collect();
    if let Some(p50) = stats::percentile(&calls, 0.50) {
        out.metric("tick_p50_us", p50, "us");
    }
    if let Some(p99) = stats::percentile(&calls, 0.99) {
        out.metric("tick_p99_us", p99, "us");
    }
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let mut rep_busy: Vec<f64> = reps
        .iter()
        .map(|r| r.iter().map(|s| s.busy_s).sum())
        .collect();
    rep_busy.sort_by(f64::total_cmp);
    out.note("reps", reps.len());
    out.note(
        "rep_busy_s",
        format!(
            "fastest {:.6} median {:.6} slowest {:.6} fastest-steps {busy:.6}",
            rep_busy[0],
            stats::median(&rep_busy),
            rep_busy[rep_busy.len() - 1]
        ),
    );
    out.note("steps", calls.len());
    out.note("setups", setups_s.len());
}

/// Runs workload `name`, or `None` for an unknown name.
pub fn run(name: &str, ctx: &mut RunCtx) -> Option<Outcome> {
    Some(match name {
        "serve_local" => serve::run(serve::Kind::Local, ctx),
        "serve_protected" => serve::run(serve::Kind::Protected, ctx),
        "fig6_arch" => fig6::run(ctx),
        "cell_transients" => cell::run(ctx),
        _ => return None,
    })
}

/// Adds the span-derived figures every traced run reports: coverage of
/// the run wall by top-level spans (checked against
/// [`spans::MIN_COVERAGE`]).
pub fn finish_trace(out: &mut Outcome, rec: &Recorder) {
    let wall_ns = rec.now_ns();
    let cover = spans::coverage(rec.spans(), wall_ns);
    out.layer("trace.span_coverage", cover, "share");
    if cover < spans::MIN_COVERAGE {
        out.errors.push(format!(
            "top-level spans cover {:.1}% of the run wall, below {:.0}%",
            cover * 100.0,
            spans::MIN_COVERAGE * 100.0
        ));
    }
}
