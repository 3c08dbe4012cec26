//! The `cell_transients` workload: uncached Monte-Carlo TBA read
//! transients of the transistor-level 2T-nC cell.
//!
//! Each sample draws a freshly varied device
//! ([`DeviceSampler::sample`]), builds the TBA testbench for a seeded
//! input pattern ([`tba_testbench`]), runs the transient
//! ([`run_with_solver`]) and samples the read current
//! ([`sensed_current`]). Every device of a repetition differs, and the
//! solver is called directly, so no transient cache is involved. Every
//! repetition runs the same samples. A repetition's setup calibrates the
//! MINORITY sense reference from the nominal 8-pattern sweep; the oracle
//! requires that sweep to decode MINORITY exactly.

use crate::spans::{self, Recorder};
use crate::stats::ratio;
use crate::{host_metrics, repeat, Outcome, RunCtx, SetupTimer, Step};
use felim_cell::netlists::{
    run_with_solver, sensed_current, tba_testbench, NetlistConfig, SolverOptions,
};
use felim_exec::derive_seed;
use felim_ferro::variation::{DeviceSampler, VariationSpec};
use felim_spice::SpiceError;
use felim_telemetry as telemetry;
use std::time::Instant;

/// Samples per repetition.
const SAMPLES_PER_REP: u64 = 200;

/// MINORITY of a 3-bit TBA pattern: 1 when at most one input is 1.
fn minority(pattern: u8) -> bool {
    pattern.count_ones() <= 1
}

/// Sensed read current of the nominal cell storing `pattern`.
fn nominal_current(
    cfg: &NetlistConfig,
    solver: &SolverOptions,
    pattern: u8,
) -> Result<f64, SpiceError> {
    let mut tb = tba_testbench(cfg, pattern);
    let trace = run_with_solver(&mut tb, cfg, solver)?;
    sensed_current(&trace, &tb.schedule)
}

/// Calibrates the MINORITY sense reference from the nominal 8-pattern
/// sweep: the geometric mean of the `001` and `011` levels. Checks that
/// the reference decodes all eight nominal patterns; `corrupt` flips the
/// expected output of pattern `000` (the oracle's self-test).
///
/// # Errors
///
/// A simulator failure, or a nominal pattern that decodes wrongly.
fn calibrate(cfg: &NetlistConfig, solver: &SolverOptions, corrupt: bool) -> Result<f64, String> {
    let currents = (0..8u8)
        .map(|p| nominal_current(cfg, solver, p).map_err(|e| format!("nominal {p:03b}: {e}")))
        .collect::<Result<Vec<f64>, String>>()?;
    let reference = (currents[0b001] * currents[0b011]).sqrt();
    for (p, &i) in currents.iter().enumerate() {
        let expected = minority(p as u8) != (corrupt && p == 0);
        if (i > reference) != expected {
            return Err(format!(
                "nominal pattern {p:03b} ({i:e} A) decodes wrongly against reference {reference:e} A"
            ));
        }
    }
    Ok(reference)
}

/// Result of one varied sample.
struct Sample {
    decoded_ok: bool,
    time_points: usize,
}

/// One Monte-Carlo sample `i`, with a span around each layer call.
fn sample(
    cfg: &NetlistConfig,
    solver: &SolverOptions,
    reference: f64,
    seed: u64,
    i: u64,
    rec: &mut Recorder,
) -> Result<Sample, SpiceError> {
    let mut sample_cfg = cfg.clone();
    sample_cfg.mfm = rec.span("ferro.sample", i, |_| {
        DeviceSampler::new(&cfg.mfm, VariationSpec::typical(), derive_seed(seed, i)).sample()
    });
    let pattern = (derive_seed(seed ^ 0x7ba, i) % 8) as u8;
    let mut tb = rec.span("cell.testbench", i, |_| tba_testbench(&sample_cfg, pattern));
    let trace = rec.span("spice.transient", i, |_| {
        run_with_solver(&mut tb, &sample_cfg, solver)
    })?;
    let current = rec.span("cell.sense", i, |_| sensed_current(&trace, &tb.schedule))?;
    Ok(Sample {
        decoded_ok: (current > reference) == minority(pattern),
        time_points: trace.times().len(),
    })
}

/// Runs the `cell_transients` workload for the context's budget.
pub(crate) fn run(ctx: &mut RunCtx) -> Outcome {
    let mut out = Outcome::default();
    // Full 200-domain capacitors.
    let cfg = NetlistConfig::standard();
    let solver = SolverOptions::optimized();
    out.note("domains", cfg.mfm.n_domains);
    out.note("samples_per_rep", SAMPLES_PER_REP);
    telemetry::reset();

    let (seed, budget, corrupt) = (ctx.seed, ctx.budget, ctx.corrupt_oracle);
    let mut setup = || calibrate(&cfg, &solver, corrupt).map(drop);
    let mut setups = out.ok(SetupTimer::start(&mut ctx.rec, &mut setup));
    let mut reps = Vec::new();
    let (mut done, mut decode_errors, mut points) = (0u64, 0u64, 0u64);
    let rec = &mut ctx.rec;
    repeat(budget, 3, |rep| {
        rec.span("rep", rep, |rec| {
            if let Some(t) = &mut setups {
                out.check(rec.span("setup_sample", rep, |_| t.sample(&mut setup)));
            }
            let calibrated = rec.span("setup", rep, |_| calibrate(&cfg, &solver, corrupt));
            let reference = match calibrated {
                Ok(r) => r,
                Err(e) => {
                    out.errors.push(e);
                    return;
                }
            };
            let mut r = Vec::new();
            for i in 0..SAMPLES_PER_REP {
                out.attempted += 1;
                let t = Instant::now();
                let result = rec.span("sample", i, |rec| {
                    sample(&cfg, &solver, reference, seed, i, rec)
                });
                let dt = t.elapsed().as_secs_f64();
                r.push(Step {
                    ops: f64::from(u8::from(result.is_ok())),
                    busy_s: dt,
                    call_us: dt * 1e6,
                });
                match result {
                    Ok(s) => {
                        done += 1;
                        decode_errors += u64::from(!s.decoded_ok);
                        points += s.time_points as u64;
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(format!("sample {i}: {e}"));
                    }
                }
            }
            reps.push(r);
        });
    });

    host_metrics(&mut out, &reps, SetupTimer::samples_s(setups.as_ref()));
    out.note("decode_errors", decode_errors);
    if ctx.traced() {
        let snap = telemetry::snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let totals = spans::totals(ctx.rec.spans());
        for name in [
            "ferro.sample",
            "cell.testbench",
            "spice.transient",
            "cell.sense",
        ] {
            let mean = totals.get(name).map_or(0.0, |t| t.mean_ns());
            out.layer(&format!("{name}.ns"), mean, "ns");
        }
        out.layer(
            "spice.newton_iterations",
            c("spice.newton_iterations"),
            "count",
        );
        // Every Newton linear solve either factorises afresh or reuses
        // the stored factors; the ratio is the share that reused them.
        let factorizations = c("spice.lu_factorizations");
        let reuse_hits = c("spice.lu_reuse_hits");
        out.layer("spice.lu_factorizations", factorizations, "count");
        out.layer(
            "spice.lu_reuse_ratio",
            ratio(reuse_hits, reuse_hits + factorizations),
            "share",
        );
        let accepted = c("spice.accepted_steps");
        out.layer("spice.accepted_steps", accepted, "count");
        out.layer(
            "spice.rejected_ratio",
            ratio(
                c("spice.rejected_steps"),
                accepted + c("spice.rejected_steps"),
            ),
            "share",
        );
        out.layer("spice.mna_allocations", c("spice.mna_allocations"), "count");
        out.layer(
            "cell.time_points_mean",
            ratio(points as f64, done as f64),
            "count",
        );
        out.layer("cell.decode_errors", decode_errors as f64, "count");
    }
    out
}
