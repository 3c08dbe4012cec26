//! PR 7 service baseline: simulated throughput and latency of the
//! `felim-serve` request service, swept over shard count × batch
//! window × reliability tier against one fixed seeded trace.
//!
//! This binary requires the `telemetry` feature and is the documented
//! one-command producer of `results/BENCH_PR7.json`:
//!
//! ```text
//! FELIM_THREADS=1 cargo run --release -p felim-bench --features telemetry --bin bench_pr7
//! ```
//!
//! The headline metric is **simulated** throughput: each virtual tick
//! costs the slowest shard's subarray-parallel makespan, so adding
//! shards shrinks simulated time for the same completed work — a
//! hardware-scaling claim, independent of host core count (CI runs on
//! one core). Wall-clock per cell is recorded for the bench gate, and
//! the sweep asserts the PR 7 acceptance floor: ≥1.5× aggregate
//! simulated throughput going from 1 to 4 shards.

use felim::serve::{
    generate_trace, BulkService, LatencySummary, ServiceConfig, ServiceTier, TraceSpec,
};
use felim::arch::DriftSpec;
use felim::telemetry;
use felim_bench::{header, results_dir};
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 42;

/// One sweep cell: a full trace replay at one service configuration.
#[derive(Debug, Serialize)]
struct Mode {
    mode: String,
    shards: u32,
    batch_window: usize,
    tier: &'static str,
    technology: &'static str,
    /// Completed requests (the gate's work-unit count).
    samples: u64,
    /// Host wall-clock for the replay, ms (gate bookkeeping only).
    wall_ms: f64,
    /// Simulated time the replay spanned, s.
    sim_seconds: f64,
    /// Completed requests per simulated second — the headline.
    throughput_rps: f64,
    row_ops_per_second: f64,
    latency_cycles: LatencySummary,
    rejected_overloaded: u64,
    retries: u64,
    energy_mj: f64,
    /// Simulated-throughput speedup vs the 1-shard cell of the same
    /// batch window and tier.
    speedup_vs_1_shard: f64,
}

#[derive(Debug, Serialize)]
struct Baseline {
    schema: &'static str,
    seed: u64,
    threads: usize,
    trace: TraceSpec,
    /// Service telemetry counters over the whole sweep.
    telemetry: Vec<(String, u64)>,
    modes: Vec<Mode>,
}

fn trace_spec() -> TraceSpec {
    TraceSpec {
        tenants: 4,
        vector_rows: 64,
        requests: 256,
        per_tick: 8,
        deadline_ticks: None,
        seed: SEED,
    }
}

fn run_cell(shards: u32, batch_window: usize, tier: ServiceTier) -> Mode {
    let tier_label = tier.label();
    let config = ServiceConfig {
        tier,
        queue_depth: 64,
        batch_window,
        seed: SEED,
        ..ServiceConfig::small(shards)
    };
    let (vectors, events) = generate_trace(&trace_spec());
    let mut service = BulkService::new(config).expect("valid sweep config");
    for (name, rows) in &vectors {
        service.create_vector(name, *rows).expect("vectors fit");
    }
    let started = Instant::now();
    service.run_trace(&events);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = service.report();
    assert_eq!(
        report.stats.completed + report.stats.failed + report.stats.rejected_overloaded
            + report.stats.rejected_quota + report.stats.shed_deadline
            + report.stats.rejected_invalid,
        report.stats.submitted,
        "every submission must be accounted"
    );
    Mode {
        mode: format!("s{shards}_w{batch_window}_{tier_label}"),
        shards,
        batch_window,
        tier: tier_label,
        technology: report.technology,
        samples: report.stats.completed,
        wall_ms,
        sim_seconds: report.sim_seconds,
        throughput_rps: report.throughput_rps,
        row_ops_per_second: report.row_ops_per_second,
        latency_cycles: report.latency,
        rejected_overloaded: report.stats.rejected_overloaded,
        retries: report.stats.retries,
        energy_mj: report.energy_mj,
        speedup_vs_1_shard: 0.0, // filled once the 1-shard cell is known
    }
}

fn main() {
    assert!(
        telemetry::enabled(),
        "bench_pr7 must be built with --features telemetry"
    );
    header(
        "BENCH_PR7",
        "sharded bulk-bitwise service: simulated throughput/latency vs shards × batch window × tier",
    );
    telemetry::reset();

    let tiers = [
        ServiceTier::Baseline,
        ServiceTier::Protected {
            drift: DriftSpec::quiet(SEED),
            scrub_period_s: 1.0,
        },
    ];
    let mut modes: Vec<Mode> = Vec::new();
    for tier in &tiers {
        for batch_window in [1usize, 8] {
            let mut group: Vec<Mode> = [1u32, 2, 4, 8]
                .into_iter()
                .map(|shards| run_cell(shards, batch_window, tier.clone()))
                .collect();
            let base_rps = group[0].throughput_rps;
            for m in &mut group {
                m.speedup_vs_1_shard = m.throughput_rps / base_rps;
            }
            modes.append(&mut group);
        }
    }

    println!(
        "  {:<18} {:>9} {:>10} {:>12} {:>9} {:>9} {:>8}",
        "mode", "completed", "sim_s", "req/sim_s", "p50 cyc", "p99 cyc", "speedup"
    );
    for m in &modes {
        println!(
            "  {:<18} {:>9} {:>10.3e} {:>12.1} {:>9} {:>9} {:>7.2}x",
            m.mode,
            m.samples,
            m.sim_seconds,
            m.throughput_rps,
            m.latency_cycles.p50,
            m.latency_cycles.p99,
            m.speedup_vs_1_shard,
        );
    }

    // The PR 7 acceptance floor, enforced on every regeneration.
    for (tier_label, window) in [("baseline", 8usize), ("protected", 8)] {
        let find = |shards: u32| {
            modes
                .iter()
                .find(|m| m.shards == shards && m.batch_window == window && m.tier == tier_label)
                .expect("sweep covers the cell")
        };
        let speedup = find(4).throughput_rps / find(1).throughput_rps;
        assert!(
            speedup > 1.5,
            "{tier_label}/w{window}: 1→4 shards must scale >1.5×, got {speedup:.2}×"
        );
        println!("  {tier_label:<10} w{window}: 1→4 shard speedup {speedup:.2}× (floor 1.5×)");
    }

    let snapshot = telemetry::snapshot();
    let counters: Vec<(String, u64)> = [
        "serve.submitted",
        "serve.completed",
        "serve.batches",
        "serve.retries",
        "serve.rejected.overloaded",
        "exec.pool.dispatches",
        "exec.pool.tasks",
        "arch.batch.dispatches",
        "arch.batch.ops",
    ]
    .into_iter()
    .map(|name| (name.to_owned(), snapshot.counter(name).unwrap_or(0)))
    .collect();
    for (name, value) in &counters {
        println!("  {name:<24} {value}");
    }

    let baseline = Baseline {
        schema: "felim-bench-pr7/v1",
        seed: SEED,
        threads: felim::exec::thread_count(),
        trace: trace_spec(),
        telemetry: counters,
        modes,
    };

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_PR7.json");
    let json = serde_json::to_string_pretty(&baseline).expect("serialise baseline");
    std::fs::write(&path, json + "\n").expect("write BENCH_PR7.json");
    println!("\nwrote {}", path.display());
}
