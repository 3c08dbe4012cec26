//! The serve workloads: one client thread submits each virtual tick's due
//! events, then calls [`BulkService::step`] (a closed loop in host time
//! over a fixed per-tick arrival schedule).
//!
//! A repetition builds a fresh service (`setup`: pool and vector
//! creation), replays the whole trace, and checks every response and every
//! final vector against the oracle. Repetitions run until the time budget
//! is spent. `serve_local` then replays the trace once more with both
//! primaries on a `felim-shardd` child and a local hot standby per stripe
//! (the remote check): its log must equal the local log, and the traced
//! run reports the wire, remote and replica layers from it.

use crate::gen::{self, ServeSpec, ServeTrace};
use crate::oracle::{self, Expected};
use crate::spans::{self, Recorder};
use crate::stats::{percentile, ratio};
use crate::{host_metrics, repeat, Outcome, RunCtx, SetupTimer, Step};
use felim_arch::{DriftSpec, MemoryGeometry};
use felim_serve::{
    BulkService, LogicalOp, ReplicationConfig, RequestId, ServeResponse, ServiceConfig,
    ServiceReport, ServiceTier, ShardHostChild,
};
use felim_telemetry as telemetry;
use std::path::Path;
use std::time::Instant;

/// Which serve deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Two local FeRAM shards, Baseline tier (`serve_local`).
    Local,
    /// Both primaries on one `felim-shardd` child, one local hot standby
    /// per stripe (the remote check of `serve_local`).
    RemoteReplicated,
    /// Two local shards on the Protected tier (`serve_protected`).
    Protected,
}

/// Shards in every serve workload.
const SHARDS: u32 = 2;
/// Row size of every shard, bytes.
const ROW_BYTES: u64 = 8 << 10;

/// The trace shape of a workload.
fn spec(kind: Kind) -> ServeSpec {
    let (vector_rows, ticks, per_tick) = match kind {
        Kind::Protected => (2, 1000, 1),
        Kind::Local | Kind::RemoteReplicated => (32, 1000, 3),
    };
    ServeSpec {
        vector_rows,
        ticks,
        per_tick,
    }
}

/// The service configuration of a workload. `remote` is the daemon
/// address for [`Kind::RemoteReplicated`].
fn config(kind: Kind, seed: u64, remote: Option<&str>) -> ServiceConfig {
    let mut c = ServiceConfig::small(SHARDS);
    c.shard_geometry = MemoryGeometry {
        capacity_bytes: 8 << 20,
        row_bytes: ROW_BYTES,
        rows_per_subarray: 64,
    };
    c.tenants = gen::TENANTS;
    c.seed = seed;
    match kind {
        Kind::Local => {}
        Kind::Protected => {
            c.tier = ServiceTier::Protected {
                drift: DriftSpec::quiet(seed),
                scrub_period_s: 1.0,
            };
        }
        Kind::RemoteReplicated => {
            let addr = remote.expect("remote workload needs a daemon address");
            c.remote_shards = (0..SHARDS).map(|s| (s, addr.to_owned())).collect();
            c.replication = Some(ReplicationConfig::default());
        }
    }
    c
}

/// A built service plus the daemon it talks to (killed and reaped on drop,
/// after the service has closed its sessions).
struct Deployment {
    /// The service.
    service: BulkService,
    _daemon: Option<ShardHostChild>,
}

/// Builds a service for `kind` and creates the trace's vectors.
///
/// # Errors
///
/// A message when the daemon, the service or a vector cannot be built.
fn deploy(
    kind: Kind,
    seed: u64,
    trace: &ServeTrace,
    shardd: Option<&std::path::Path>,
) -> Result<Deployment, String> {
    let daemon = match kind {
        Kind::RemoteReplicated => {
            let bin = shardd.ok_or("the remote workload needs --shardd")?;
            Some(ShardHostChild::spawn(bin).map_err(|e| format!("spawn felim-shardd: {e}"))?)
        }
        _ => None,
    };
    let cfg = config(kind, seed, daemon.as_ref().map(ShardHostChild::addr));
    let mut service = BulkService::new(cfg).map_err(|e| format!("build service: {e}"))?;
    for (name, rows) in &trace.vectors {
        service
            .create_vector(name, *rows)
            .map_err(|e| format!("create {name}: {e}"))?;
    }
    Ok(Deployment {
        service,
        _daemon: daemon,
    })
}

/// What one replay produced.
struct Replay {
    /// Request id of every event, in submission order.
    ids: Vec<RequestId>,
    /// One step per tick: responses produced, host time of the tick
    /// (submits and `step()`), host time of `step()`.
    steps: Vec<Step>,
    /// The response log, in completion order.
    responses: Vec<ServeResponse>,
}

/// Submits each tick's due events, then steps, until every event has its
/// response. Spans: `submit` / `submit_kernel` per event, `step` per tick.
fn replay(svc: &mut BulkService, trace: &ServeTrace, rec: &mut Recorder) -> Replay {
    let events = &trace.events;
    let mut ids = Vec::with_capacity(events.len());
    let mut steps = Vec::new();
    let mut next = 0;
    // A generous cap: a correct service drains long before it.
    let cap = events.last().map_or(0, |e| e.at_tick) * 4 + 1000;
    for _ in 0..cap {
        let done = svc.responses().len();
        if next == events.len() && done >= events.len() {
            break;
        }
        let tick = svc.now();
        let start = Instant::now();
        while next < events.len() && events[next].at_tick <= tick {
            let e = &events[next];
            let name = match e.op {
                LogicalOp::Kernel { .. } => "submit_kernel",
                _ => "submit",
            };
            let id = rec.span(name, tick, |_| {
                svc.submit(e.tenant, e.op.clone(), e.deadline_ticks)
            });
            // A rejection still gets its response; the oracle reports it.
            ids.push(id.unwrap_or(RequestId(u64::MAX)));
            next += 1;
        }
        let call = Instant::now();
        rec.span("step", tick, |_| svc.step());
        steps.push(Step {
            ops: (svc.responses().len() - done) as f64,
            busy_s: start.elapsed().as_secs_f64(),
            call_us: call.elapsed().as_secs_f64() * 1e6,
        });
    }
    Replay {
        ids,
        steps,
        responses: svc.take_responses(),
    }
}

/// Checks a replay and the service's final vectors against the oracle.
fn verify(
    svc: &mut BulkService,
    trace: &ServeTrace,
    expected: &Expected,
    replay: &Replay,
) -> Result<(), String> {
    oracle::check_responses(expected, &replay.ids, &replay.responses)?;
    for (name, _) in &trace.vectors {
        let rows = svc
            .read_vector(name)
            .map_err(|e| format!("read {name}: {e}"))?;
        oracle::check_vector(expected, name, &rows)?;
    }
    Ok(())
}

/// One untimed replay on a reference configuration: its response log.
fn reference_log(
    kind: Kind,
    seed: u64,
    trace: &ServeTrace,
    expected: &Expected,
) -> Result<Vec<ServeResponse>, String> {
    let mut d = deploy(kind, seed, trace, None)?;
    let r = replay(&mut d.service, trace, &mut Recorder::new(false));
    verify(&mut d.service, trace, expected, &r)?;
    Ok(r.responses)
}

/// Compares a response log with the reference log. With
/// `ignore_latency`, simulated latencies are left out: a Protected-tier
/// tick that runs a patrol-scrub pass takes longer, but every outcome,
/// digest and tick must still match.
///
/// # Errors
///
/// The first differing response, in both versions.
fn same_log(
    got: &[ServeResponse],
    want: &[ServeResponse],
    ignore_latency: bool,
) -> Result<(), String> {
    let show = |r: Option<&ServeResponse>| {
        r.map_or("(none)".to_owned(), |r| {
            let mut r = r.clone();
            if ignore_latency {
                r.latency_cycles = 0;
            }
            serde_json::to_string(&r).expect("responses serialise")
        })
    };
    match (0..got.len().max(want.len())).find(|&i| show(got.get(i)) != show(want.get(i))) {
        None => Ok(()),
        Some(i) => Err(format!(
            "response log differs from the local Baseline log at entry {i}: {} vs {}",
            show(got.get(i)),
            show(want.get(i))
        )),
    }
}

/// Deterministic figures of one replay: simulated throughput, latency
/// and energy per completed request.
fn sim_metrics(out: &mut Outcome, report: &ServiceReport, responses: &[ServeResponse]) {
    let completed = report.stats.completed as f64;
    let latencies: Vec<f64> = responses
        .iter()
        .filter(|r| r.is_ok())
        .map(|r| r.latency_cycles as f64)
        .collect();
    out.metric("sim_req_per_s", ratio(completed, report.sim_seconds), "1/s");
    if let Some(p50) = percentile(&latencies, 0.50) {
        out.metric("sim_latency_p50_cycles", p50, "cycles");
    }
    if let Some(p99) = percentile(&latencies, 0.99) {
        out.metric("sim_latency_p99_cycles", p99, "cycles");
    }
    out.metric(
        "energy_nj_per_req",
        ratio(report.energy_mj * 1e6, completed),
        "nJ",
    );
}

/// Runs one serve workload for the context's budget.
pub(crate) fn run(kind: Kind, ctx: &mut RunCtx) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(kind);
    let seed = ctx.seed;
    let row_words = (ROW_BYTES / 8) as usize;

    // Prepare: inputs, expectations and the reference log (untimed).
    let (trace, expected, reference) = ctx.rec.span("prepare", 0, |_| {
        let trace = gen::generate(&spec, seed);
        let mut expected = Expected::new(&trace.vectors, &trace.events, row_words);
        // The same events on local Baseline shards must produce the same
        // log (up to the scrub ticks' latency, see `same_log`).
        let reference = match kind {
            Kind::Protected => Some(reference_log(Kind::Local, seed, &trace, &expected)),
            _ => None,
        };
        if ctx.corrupt_oracle {
            expected.corrupt();
        }
        (trace, expected, reference)
    });
    let reference = match reference.transpose() {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(format!("reference replay: {e}"));
            None
        }
    };
    out.note("tenants", gen::TENANTS);
    out.note("vector_rows", spec.vector_rows);
    out.note("row_bytes", ROW_BYTES);
    out.note("events", trace.events.len());
    out.note(
        "op_mix",
        gen::op_counts(&trace.events)
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    telemetry::reset();

    let shardd = ctx.shardd.clone();
    let mut setup = || deploy(kind, seed, &trace, shardd.as_deref()).map(drop);
    let mut setups = out.ok(SetupTimer::start(&mut ctx.rec, &mut setup));
    let mut reps = Vec::new();
    let mut totals = ReplayTotals::default();
    let mut first: Option<(ServiceReport, Vec<ServeResponse>)> = None;
    let budget = ctx.budget;
    let rec = &mut ctx.rec;
    repeat(budget, 3, |rep| {
        rec.span("rep", rep, |rec| {
            if let Some(t) = &mut setups {
                out.check(rec.span("setup_sample", rep, |_| t.sample(&mut setup)));
            }
            let deployed = rec.span("setup", rep, |_| {
                deploy(kind, seed, &trace, shardd.as_deref())
            });
            let mut d = match deployed {
                Ok(d) => d,
                Err(e) => {
                    out.errors.push(e);
                    return;
                }
            };
            let r = rec.span("replay", rep, |rec| replay(&mut d.service, &trace, rec));
            rec.span("verify", rep, |_| {
                let check = verify(&mut d.service, &trace, &expected, &r);
                out.check(check);
                if let Some(want) = &reference {
                    out.check(same_log(&r.responses, want, kind == Kind::Protected));
                }
                if rep == 0 {
                    let digest = oracle::log_digest(&r.responses);
                    out.note("log_digest", format!("{digest:#018x}"));
                }
            });
            let report = d.service.report();
            out.attempted += r.ids.len() as u64;
            out.failed += r.responses.iter().filter(|x| !x.is_ok()).count() as u64;
            totals.add(&report, &r.steps);
            reps.push(r.steps.clone());
            if first.is_none() {
                first = Some((report, r.responses));
            }
            rec.span("teardown", rep, |_| drop(d));
        });
    });

    host_metrics(&mut out, &reps, SetupTimer::samples_s(setups.as_ref()));
    if let Some((report, responses)) = &first {
        sim_metrics(&mut out, report, responses);
    }
    if ctx.traced() {
        layer_metrics(&mut out, kind, &ctx.rec, &totals);
    }
    if let (Kind::Local, Some(bin), Some((_, local_log))) = (kind, &shardd, &first) {
        let traced = ctx.traced();
        ctx.rec.span("remote_check", 0, |_| {
            remote_check(&mut out, seed, &trace, &expected, local_log, bin, traced)
        });
    }
    out
}

/// The remote check: one untimed replay with both primaries on a
/// `felim-shardd` child and a local hot standby per stripe. Its log must
/// equal the local log byte for byte; the traced run reports the wire,
/// remote and replica layers from it.
fn remote_check(
    out: &mut Outcome,
    seed: u64,
    trace: &ServeTrace,
    expected: &Expected,
    local_log: &[ServeResponse],
    shardd: &Path,
    traced: bool,
) {
    let before = telemetry::snapshot();
    let result = deploy(Kind::RemoteReplicated, seed, trace, Some(shardd)).and_then(|mut d| {
        let r = replay(&mut d.service, trace, &mut Recorder::new(false));
        verify(&mut d.service, trace, expected, &r)?;
        same_log(&r.responses, local_log, false)?;
        Ok((r, d.service.report()))
    });
    let (r, report) = match result {
        Ok(x) => x,
        Err(e) => {
            out.errors.push(format!("remote check: {e}"));
            return;
        }
    };
    out.attempted += r.ids.len() as u64;
    if !traced {
        return;
    }
    let after = telemetry::snapshot();
    let delta =
        |name: &str| (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64;
    let step_ns: f64 = r.steps.iter().map(|s| s.call_us * 1e3).sum();
    let row_ops: u64 = report.per_shard.iter().map(|s| s.row_ops).sum();
    out.layer(
        "remote.step_ns_per_row_op",
        ratio(step_ns, row_ops as f64),
        "ns",
    );
    for name in [
        "serve.remote.batches_sent",
        "serve.remote.connect_retries",
        "serve.remote.transport_errors",
        "serve.replica.failovers",
        "serve.replica.divergences",
    ] {
        out.layer(name, delta(name), "count");
    }
    // Primaries run in the daemon, so every batch executed in this
    // process is a standby dispatch.
    out.layer(
        "serve.replica.dispatches",
        delta("arch.batch.dispatches"),
        "count",
    );
    let standby_nj = report.replica.map_or(0.0, |x| x.standby_energy_nj);
    out.layer("serve.replica.standby_energy_nj", standby_nj, "nJ");
}

/// Sums over the measured replays of a run.
#[derive(Default)]
struct ReplayTotals {
    busy_s: f64,
    row_ops: u64,
    max_queue_depth: usize,
}

impl ReplayTotals {
    fn add(&mut self, report: &ServiceReport, steps: &[Step]) {
        self.busy_s += steps.iter().map(|s| s.busy_s).sum::<f64>();
        for shard in &report.per_shard {
            self.row_ops += shard.row_ops;
            self.max_queue_depth = self.max_queue_depth.max(shard.max_queue_depth);
        }
    }
}

/// Per-layer figures from telemetry counters, replay totals and spans.
fn layer_metrics(out: &mut Outcome, kind: Kind, rec: &Recorder, totals: &ReplayTotals) {
    let ReplayTotals {
        busy_s,
        row_ops,
        max_queue_depth,
    } = *totals;
    let snap = telemetry::snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let by_name = spans::totals(rec.spans());
    let span = |name: &str| by_name.get(name).copied().unwrap_or_default();

    out.layer("serve.submit.ns", span("submit").mean_ns(), "ns");
    out.layer("serve.submitted", c("serve.submitted"), "count");
    let rejected =
        c("serve.rejected.overloaded") + c("serve.rejected.quota") + c("serve.rejected.invalid");
    out.layer("serve.rejected", rejected, "count");
    out.layer("serve.shed", c("serve.shed.deadline"), "count");

    out.layer(
        "serve.submit_kernel.ns",
        span("submit_kernel").mean_ns(),
        "ns",
    );
    let kernels = c("serve.kernel.requests");
    out.layer("serve.kernel.requests", kernels, "count");
    out.layer(
        "serve.kernel.plan_cache_hit_ratio",
        ratio(c("serve.kernel.plan_cache_hits"), kernels),
        "share",
    );
    out.layer(
        "serve.kernel.fused_ops",
        c("serve.kernel.fused_ops"),
        "count",
    );
    out.layer("serve.kernel.cse_hits", c("serve.kernel.cse_hits"), "count");

    let step = span("step");
    let step_ns_per_row_op = ratio(step.total_ns as f64, row_ops as f64);
    let batches = c("serve.batches");
    out.layer("serve.step.busy_s", step.total_ns as f64 * 1e-9, "s");
    out.layer(
        "serve.step.share",
        ratio(step.total_ns as f64 * 1e-9, busy_s),
        "share",
    );
    out.layer("serve.step.ns_per_row_op", step_ns_per_row_op, "ns");
    out.layer("serve.batches", batches, "count");
    out.layer("serve.row_ops", row_ops as f64, "count");
    let window = ServiceConfig::small(SHARDS).batch_window as f64;
    out.layer(
        "serve.batch_fill",
        ratio(c("serve.completed"), batches * window),
        "share",
    );
    let hits = c("serve.cache.hits");
    out.layer(
        "serve.cache.hit_ratio",
        ratio(hits, hits + c("serve.cache.misses")),
        "share",
    );
    out.layer(
        "serve.cache.invalidations",
        c("serve.cache.invalidations"),
        "count",
    );
    out.layer("serve.max_queue_depth", max_queue_depth as f64, "count");

    let dispatches = c("exec.pool.dispatches");
    out.layer("exec.pool.dispatches", dispatches, "count");
    out.layer(
        "exec.pool.tasks_per_dispatch",
        ratio(c("exec.pool.tasks"), dispatches),
        "count",
    );

    let batch_dispatches = c("arch.batch.dispatches");
    out.layer("arch.batch.dispatches", batch_dispatches, "count");
    out.layer("arch.batch.ops", c("arch.batch.ops"), "count");
    out.layer(
        "arch.batch.ops_per_dispatch",
        ratio(c("arch.batch.ops"), batch_dispatches),
        "count",
    );

    if kind == Kind::Protected {
        out.layer("protected.step_ns_per_row_op", step_ns_per_row_op, "ns");
    }
    for name in [
        "arch.ecc.corrected",
        "arch.ecc.uncorrectable",
        "arch.scrub.passes",
        "arch.scrub.rewrites",
        "arch.drift.ticks",
        "arch.drift.flips",
        "serve.retries",
        "serve.maintenance_errors",
    ] {
        out.layer(name, c(name), "count");
    }
}
