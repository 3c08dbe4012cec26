//! The `fig6_arch` workload: the paper's eight Fig 6 kernels on DRAM and
//! FeRAM through [`BulkBackend`] directly (`Workload::execute`), with no
//! service in between.
//!
//! A sweep is a regeneration of the figure: for every kernel and
//! technology a fresh backend (`setup`) and one `execute` (verified
//! against the kernel's software reference), each `execute` one step.
//! All sweeps of a run use the run's seed, so the first pays the cold
//! data-generation cache and the rest regenerate with it warm. The traced run wraps each backend in
//! [`TimedBackend`].
//!
//! After the timed sweeps, the figure's ratios come from the Fig 6 driver
//! itself ([`compare`], extrapolated to the paper's 1 GB workload), once
//! per kernel: FeRAM must win every kernel, and the geomeans give
//! `fig6_energy_err` and `fig6_speedup_err`.

use crate::spans::{self, Recorder};
use crate::stats::ratio;
use crate::timing::{Class, ClassTimes, TimedBackend};
use crate::{host_metrics, repeat, Outcome, RunCtx, SetupTimer, Step};
use felim_arch::MemoryGeometry;
use felim_telemetry as telemetry;
use felim_workloads::driver::{compare, geomean, make_backend, Tech};
use felim_workloads::{all_workloads, Workload, WorkloadError};
use std::time::Instant;

/// Metric labels of the eight kernels, in Fig 6 order.
const KERNEL_LABELS: [&str; 8] = [
    "crc8",
    "xor_cipher",
    "set_union",
    "set_intersection",
    "set_difference",
    "masked_init",
    "bitmap_index",
    "bnn",
];

/// The paper's headline ratios: 2.5× energy, 2.0× speed-up.
const PAPER_ENERGY: f64 = 2.5;
/// See [`PAPER_ENERGY`].
const PAPER_SPEEDUP: f64 = 2.0;

/// The Fig 6 extrapolation target, bytes.
const LOGICAL_BYTES: u64 = 1 << 30;

/// Sweeps per repetition. A step is one kernel run on one technology, a
/// few milliseconds, so each step position takes its fastest time over
/// the run's repetitions (see [`crate::fastest_steps`]) from brief quiet
/// moments on a shared host, which whole sweeps seldom fit into.
const SWEEPS_PER_REP: u64 = 20;

/// Simulated data rows per kernel run (the row count of the committed
/// Fig 6 golden).
const SIM_ROWS: u64 = 64;

/// One kernel on one technology.
struct KernelRun {
    /// Simulated primitive commands.
    commands: u64,
    /// Wrapper tally (all zero when untimed).
    times: ClassTimes,
}

/// Executes `workload` on a fresh backend of `tech`, optionally through
/// the timing wrapper. Returns the host time of the execution alone
/// (backend construction excluded), s.
fn execute(
    workload: &dyn Workload,
    tech: Tech,
    rows: u64,
    seed: u64,
    timed: bool,
    rec: &mut Recorder,
    id: u64,
) -> (f64, Result<KernelRun, WorkloadError>) {
    let mut backend = rec.span("setup", id, |_| {
        make_backend(tech, MemoryGeometry::paper_8gb())
    });
    let t = Instant::now();
    let result = rec.span("kernel", id, |_| {
        if timed {
            let mut wrapped = TimedBackend::new(backend.as_mut());
            workload.execute(&mut wrapped, rows, seed)?;
            Ok(wrapped.times)
        } else {
            workload.execute(backend.as_mut(), rows, seed)?;
            Ok(ClassTimes::default())
        }
    });
    let exec_s = t.elapsed().as_secs_f64();
    let run = result.map(|times| KernelRun {
        commands: backend.stats().total_commands(),
        times,
    });
    (exec_s, run)
}

/// Per-sweep results of [`sweep`].
#[derive(Default)]
struct Sweep {
    /// One step per kernel run: its simulated commands and host time.
    steps: Vec<Step>,
    commands: u64,
    times: [ClassTimes; 2],
    self_ns: [u64; 8],
}

/// One figure regeneration: every kernel on both technologies.
fn sweep(
    workloads: &[Box<dyn Workload>],
    rows: u64,
    seed: u64,
    timed: bool,
    rec: &mut Recorder,
    id: u64,
    out: &mut Outcome,
) -> Sweep {
    let mut s = Sweep::default();
    for (k, w) in workloads.iter().enumerate() {
        for (ti, tech) in [Tech::Dram, Tech::Feram].into_iter().enumerate() {
            let (exec_s, result) = execute(w.as_ref(), tech, rows, seed, timed, rec, id);
            let commands = result.as_ref().map_or(0, |r| r.commands);
            s.steps.push(Step {
                ops: commands as f64,
                busy_s: exec_s,
                call_us: exec_s * 1e6,
            });
            out.attempted += 1;
            match result {
                Ok(r) => {
                    s.commands += commands;
                    s.self_ns[k] += ((exec_s * 1e9) as u64).saturating_sub(r.times.total_ns());
                    s.times[ti].merge(&r.times);
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors
                        .push(format!("{} on {}: {e}", w.name(), tech.name()));
                }
            }
        }
    }
    s
}

/// The figure's ratios from the Fig 6 driver: checks that FeRAM wins
/// every kernel on energy and cycles and reports how far the geomeans
/// lie from the paper's.
fn paper_ratios(workloads: &[Box<dyn Workload>], seed: u64, out: &mut Outcome) {
    let mut ratios = Vec::new();
    for w in workloads {
        match compare(w.as_ref(), SIM_ROWS, LOGICAL_BYTES, seed) {
            Ok(c) => {
                let (e, v) = (c.energy_ratio(), c.cycle_ratio());
                if e <= 1.0 || v <= 1.0 {
                    out.errors.push(format!(
                        "{}: FeRAM must win (energy {e:.3}x, speed {v:.3}x)",
                        w.name()
                    ));
                }
                ratios.push((e, v));
            }
            Err(e) => out.errors.push(format!("{} comparison: {e}", w.name())),
        }
    }
    if ratios.len() != workloads.len() {
        return;
    }
    let (e, v): (Vec<f64>, Vec<f64>) = ratios.into_iter().unzip();
    let (e, v) = (geomean(e), geomean(v));
    out.note("geomean_energy", format!("{e:.4}"));
    out.note("geomean_speedup", format!("{v:.4}"));
    out.metric(
        "fig6_energy_err",
        (e - PAPER_ENERGY).abs() / PAPER_ENERGY,
        "share",
    );
    out.metric(
        "fig6_speedup_err",
        (v - PAPER_SPEEDUP).abs() / PAPER_SPEEDUP,
        "share",
    );
}

/// Runs the `fig6_arch` workload for the context's budget.
pub(crate) fn run(ctx: &mut RunCtx) -> Outcome {
    let mut out = Outcome::default();
    let rows = SIM_ROWS;
    let timed = ctx.traced();
    let workloads = all_workloads();
    out.note("sim_rows", rows);
    out.note("kernels", workloads.len());
    telemetry::reset();

    // A sweep's setup: its sixteen backend constructions.
    let mut setup = || {
        for _ in 0..workloads.len() {
            for tech in [Tech::Dram, Tech::Feram] {
                drop(make_backend(tech, MemoryGeometry::paper_8gb()));
            }
        }
        Ok(())
    };
    let mut setups =
        SetupTimer::start(&mut ctx.rec, &mut setup).expect("backend construction cannot fail");
    let mut reps = Vec::new();
    let mut times = [ClassTimes::default(); 2];
    let mut self_ns = [0u64; 8];
    let mut commands = 0u64;
    let (seed, budget) = (ctx.seed, ctx.budget);
    let rec = &mut ctx.rec;
    repeat(budget, 3, |rep| {
        rec.span("rep", rep, |rec| {
            rec.span("setup_sample", rep, |_| setups.sample(&mut setup))
                .expect("backend construction cannot fail");
            let mut steps = Vec::new();
            for i in 0..SWEEPS_PER_REP {
                let id = rep * SWEEPS_PER_REP + i;
                let s = rec.span("sweep", id, |rec| {
                    sweep(&workloads, rows, seed, timed, rec, id, &mut out)
                });
                steps.extend(s.steps);
                commands += s.commands;
                for (t, st) in times.iter_mut().zip(&s.times) {
                    t.merge(st);
                }
                for (a, b) in self_ns.iter_mut().zip(s.self_ns) {
                    *a += b;
                }
            }
            reps.push(steps);
        });
    });

    host_metrics(&mut out, &reps, SetupTimer::samples_s(Some(&setups)));
    ctx.rec
        .span("compare", 0, |_| paper_ratios(&workloads, seed, &mut out));
    if timed {
        layer_metrics(
            &mut out,
            &ctx.rec,
            &times,
            &self_ns,
            reps.len() as u64 * SWEEPS_PER_REP,
            commands,
        );
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    rec: &Recorder,
    times: &[ClassTimes; 2],
    self_ns: &[u64; 8],
    sweeps: u64,
    commands: u64,
) {
    for (ti, tech) in ["dram", "feram"].into_iter().enumerate() {
        for class in Class::ALL {
            let i = class as usize;
            let label = class.label();
            out.layer(
                &format!("arch.{tech}.{label}.calls"),
                times[ti].calls[i] as f64,
                "count",
            );
            out.layer(
                &format!("arch.{tech}.{label}.ns"),
                times[ti].ns[i] as f64,
                "ns",
            );
        }
    }
    let arch_ns = (times[0].total_ns() + times[1].total_ns()) as f64;
    let kernel_ns = spans::totals(rec.spans())
        .get("kernel")
        .map_or(0, |t| t.total_ns) as f64;
    out.layer("arch.ns_per_command", ratio(arch_ns, commands as f64), "ns");
    out.layer("arch.busy_share", ratio(arch_ns, kernel_ns), "share");
    out.layer("arch.commands", commands as f64, "count");
    for (label, ns) in KERNEL_LABELS.iter().zip(self_ns) {
        out.layer(
            &format!("workloads.{label}.self_ms"),
            *ns as f64 * 1e-6 / sweeps as f64,
            "ms",
        );
    }
    let snap = telemetry::snapshot();
    let hits = snap.counter("datagen.sparse_hits").unwrap_or(0) as f64;
    let misses = snap.counter("datagen.sparse_misses").unwrap_or(0) as f64;
    out.layer(
        "datagen.sparse_hit_ratio",
        ratio(hits, hits + misses),
        "share",
    );
}
