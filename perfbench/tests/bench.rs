//! The benchmark's own tests: statistics, span arithmetic, generator
//! determinism, the oracle, the timing wrapper, and the binary's
//! determinism and failure behaviour.

use felim_arch::BulkBackend;
use felim_perfbench::gen::{self, ServeSpec, KERNEL_PROGRAMS};
use felim_perfbench::oracle::{self, Expected};
use felim_perfbench::spans::{self, Recorder, Span};
use felim_perfbench::stats::{median, percentile, MIN_BEYOND};
use felim_perfbench::timing::TimedBackend;
use felim_serve::dsl::Program;
use felim_serve::{LogicalOp, RequestId, ResponsePayload, ServeResponse, TenantId};
use felim_workloads::all_workloads;
use felim_workloads::driver::{make_backend, Tech};
use std::collections::BTreeMap;
use std::process::Command;

fn samples(n: usize) -> Vec<f64> {
    // 1..=n, shuffled so the percentile must sort.
    (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
}

#[test]
fn nearest_rank_percentile_needs_ten_samples_beyond() {
    // p99 of 1000 samples: rank 990, exactly ten beyond.
    assert_eq!(percentile(&samples(1000), 0.99), Some(990.0));
    // p99 of 999 samples: rank 990, nine beyond — not reported.
    assert_eq!(percentile(&samples(999), 0.99), None);
    // p50 of 20: rank 10, ten beyond; of 19: rank 10, nine beyond.
    assert_eq!(percentile(&samples(20), 0.50), Some(10.0));
    assert_eq!(percentile(&samples(19), 0.50), None);
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        id: 0,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let tree = [
        span("rep", 0, 100, None),
        span("replay", 10, 90, Some(0)),
        span("step", 20, 50, Some(1)),
        span("step", 60, 80, Some(1)),
        span("rep", 100, 130, None),
    ];
    assert_eq!(spans::self_times(&tree), vec![20, 30, 30, 20, 30]);
    let totals = spans::totals(&tree);
    assert_eq!(totals["step"].count, 2);
    assert_eq!(totals["step"].total_ns, 50);
    assert_eq!(totals["rep"].self_ns, 50);
    assert_eq!(totals["step"].mean_ns(), 25.0);
}

#[test]
fn coverage_counts_top_level_spans_against_the_wall() {
    let tree = [
        span("prepare", 0, 10, None),
        span("rep", 10, 96, None),
        span("step", 20, 90, Some(1)),
    ];
    assert_eq!(spans::coverage(&tree, 100), 0.96);
    assert!(spans::coverage(&tree, 100) >= spans::MIN_COVERAGE);
    assert!(spans::coverage(&tree, 110) < spans::MIN_COVERAGE);

    // A recorder whose wall is mostly outside any span fails the check.
    let mut rec = Recorder::new(true);
    rec.span("short", 0, |_| ());
    std::thread::sleep(std::time::Duration::from_millis(20));
    let mut out = felim_perfbench::Outcome::default();
    felim_perfbench::finish_trace(&mut out, &rec);
    assert!(!out.errors.is_empty(), "uncovered wall must be reported");

    // A recorder whose wall is one span passes it.
    let mut rec = Recorder::new(true);
    rec.span("all", 0, |_| {
        std::thread::sleep(std::time::Duration::from_millis(20))
    });
    let mut out = felim_perfbench::Outcome::default();
    felim_perfbench::finish_trace(&mut out, &rec);
    assert!(out.errors.is_empty(), "{:?}", out.errors);

    // Disabled recorders record nothing.
    let mut rec = Recorder::new(false);
    assert_eq!(rec.span("x", 0, |_| 7), 7);
    assert!(rec.spans().is_empty());
}

fn spec() -> ServeSpec {
    ServeSpec {
        vector_rows: 2,
        ticks: 60,
        per_tick: 3,
    }
}

#[test]
fn generator_is_deterministic_per_seed() {
    let encode = |seed| {
        let t = gen::generate(&spec(), seed);
        serde_json::to_string(&t.events).unwrap()
    };
    assert_eq!(encode(5), encode(5));
    assert_ne!(encode(5), encode(6));

    let t = gen::generate(&spec(), 5);
    assert_eq!(t.vectors.len(), 20);
    assert_eq!(t.events.len(), 20 + 180);
    assert!(t.events.windows(2).all(|w| w[0].at_tick <= w[1].at_tick));
    let mix: BTreeMap<_, _> = gen::op_counts(&t.events).into_iter().collect();
    for op in ["read", "write", "kernel", "and", "xor", "not"] {
        assert!(mix.contains_key(op), "mix lacks {op}: {mix:?}");
    }
}

#[test]
fn kernel_truth_tables_agree_with_eval_words() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for text in KERNEL_PROGRAMS {
        let program = Program::parse(text).unwrap();
        let bindings = gen::kernel_bindings(&program, 0);
        let vectors: Vec<(String, u64)> = gen::LETTERS
            .iter()
            .map(|l| (gen::vector_name(0, l), 1))
            .collect();
        let mut model = oracle::Model::new(&vectors, 4);
        for (v, _) in &vectors {
            let words = vec![next(), next(), next(), next()];
            model.apply(&LogicalOp::Write {
                dst: v.clone(),
                words,
            });
        }
        let before = model.clone();
        model.apply(&LogicalOp::Kernel {
            program: text.to_owned(),
            bindings: bindings.clone(),
        });
        for k in 0..4 {
            let env: BTreeMap<String, u64> = bindings
                .iter()
                .map(|(n, v)| (n.clone(), before.words(v)[k]))
                .collect();
            let want = program.eval_words(&env);
            for (n, v) in &bindings {
                assert_eq!(model.words(v)[k], want[n], "{text}: {n} word {k}");
            }
        }
    }
}

fn response(request: u64, payload: ResponsePayload) -> ServeResponse {
    ServeResponse {
        request: RequestId(request),
        tenant: TenantId(0),
        op: "read",
        outcome: Ok(payload),
        submitted_tick: 0,
        completed_tick: 0,
        latency_cycles: 1,
        retries: 0,
    }
}

#[test]
fn a_corrupted_expected_digest_fails_the_check() {
    let vectors = vec![("v".to_owned(), 1)];
    let events = vec![
        felim_serve::TraceEvent {
            at_tick: 0,
            tenant: TenantId(0),
            op: LogicalOp::Write {
                dst: "v".into(),
                words: vec![7],
            },
            deadline_ticks: None,
        },
        felim_serve::TraceEvent {
            at_tick: 0,
            tenant: TenantId(0),
            op: LogicalOp::Read { src: "v".into() },
            deadline_ticks: None,
        },
    ];
    let mut expected = Expected::new(&vectors, &events, 2);
    let digest = expected.digests[1].unwrap();
    assert_eq!(digest, felim_serve::fnv1a_words(&[7, 7]));
    let ids = [RequestId(0), RequestId(1)];
    let log = vec![
        response(0, ResponsePayload::Done),
        response(1, ResponsePayload::Digest { rows: 1, digest }),
    ];
    assert_eq!(oracle::check_responses(&expected, &ids, &log), Ok(()));
    assert!(oracle::check_responses(&expected, &ids, &log[..1]).is_err());
    expected.corrupt();
    assert!(oracle::check_responses(&expected, &ids, &log).is_err());
}

#[test]
fn timing_wrapper_leaves_stats_and_results_unchanged() {
    for w in all_workloads() {
        for tech in [Tech::Dram, Tech::Feram] {
            let mut plain = make_backend(tech, felim_arch::MemoryGeometry::paper_8gb());
            let a = w
                .execute(plain.as_mut(), 8, 11)
                .expect("plain run verifies");
            let mut inner = make_backend(tech, felim_arch::MemoryGeometry::paper_8gb());
            let mut timed = TimedBackend::new(inner.as_mut());
            let b = w.execute(&mut timed, 8, 11).expect("wrapped run verifies");
            let calls: u64 = timed.times.calls.iter().sum();
            assert!(calls > 0, "{}: wrapper saw no commands", w.name());
            assert_eq!(timed.tech_name(), plain.tech_name());
            assert_eq!(a, b, "{} on {tech:?}: rows consumed", w.name());
            assert_eq!(
                plain.stats(),
                inner.stats(),
                "{} on {tech:?}: ExecStats",
                w.name()
            );
            assert_eq!(
                plain.snapshot_state(),
                inner.snapshot_state(),
                "{} on {tech:?}: backend state",
                w.name()
            );
        }
    }
}

/// Runs the benchmark binary at its real sizes with the minimum number of
/// repetitions; returns (exit code, stdout lines, result).
fn bench(workload: &str, threads: u32, extra: &[&str]) -> (i32, Vec<String>, serde_json::Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_felim-perfbench"))
        .args(["--workload", workload, "--seed", "9", "--seconds", "0"])
        .args(extra)
        .env("FELIM_THREADS", threads.to_string())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<String> = stdout.lines().map(str::to_owned).collect();
    let result =
        serde_json::from_str(lines.last().expect("a result line")).expect("result is JSON");
    (out.status.code().unwrap_or(-1), lines, result)
}

/// The deterministic figures of a run, rendered exactly: simulated
/// throughput, latency and energy, the Fig 6 errors, the response-log
/// digest.
fn deterministic(lines: &[String], result: &serde_json::Value) -> Vec<String> {
    let metrics = result.get("metrics").unwrap();
    let mut figures: Vec<String> = [
        "sim_req_per_s",
        "sim_latency_p50_cycles",
        "sim_latency_p99_cycles",
        "energy_nj_per_req",
        "fig6_energy_err",
        "fig6_speedup_err",
    ]
    .iter()
    .filter_map(|m| {
        metrics
            .get(m)
            .map(|v| format!("{m}={:?}", v.get("value").unwrap().as_f64()))
    })
    .collect();
    figures.extend(
        lines
            .iter()
            .filter(|l| l.contains(" log_digest = "))
            .cloned(),
    );
    figures
}

#[test]
fn deterministic_metrics_are_identical_at_one_and_two_threads() {
    // serve_local's remote check needs a daemon binary: set
    // FELIM_SHARDD_BIN to a built `felim-shardd` to include it.
    let shardd = std::env::var("FELIM_SHARDD_BIN").ok();
    let extra: Vec<&str> = shardd
        .iter()
        .flat_map(|b| ["--shardd", b.as_str()])
        .collect();
    for workload in ["serve_local", "serve_protected", "fig6_arch"] {
        let (code1, lines1, one) = bench(workload, 1, &extra);
        let (code2, lines2, two) = bench(workload, 2, &extra);
        assert_eq!((code1, code2), (0, 0), "{workload}: {one:?}");
        assert_eq!(one.get("correct").unwrap().as_bool(), Some(true));
        let (d1, d2) = (deterministic(&lines1, &one), deterministic(&lines2, &two));
        assert!(
            d1.len() >= 2,
            "{workload} reports deterministic figures: {d1:?}"
        );
        assert_eq!(d1, d2, "{workload}");
    }
}

#[test]
fn a_corrupted_oracle_makes_the_benchmark_fail() {
    for workload in ["serve_local", "cell_transients"] {
        let (code, _, result) = bench(workload, 2, &["--corrupt-oracle"]);
        assert_eq!(code, 1, "{workload} must exit non-zero");
        assert_eq!(result.get("correct").unwrap().as_bool(), Some(false));
    }
    let (code, _, _) = bench("cell_transients", 2, &[]);
    assert_eq!(code, 0);
}

fn steps(busy: &[f64]) -> Vec<felim_perfbench::Step> {
    busy.iter()
        .map(|&b| felim_perfbench::Step {
            ops: 1.0,
            busy_s: b,
            call_us: b * 1e6,
        })
        .collect()
}

#[test]
fn host_metrics_take_each_steps_fastest_time() {
    use felim_perfbench::fastest_steps;
    let reps = vec![
        steps(&[1.0, 5.0, 2.0]),
        steps(&[2.0, 1.0, 9.0]),
        steps(&[9.0, 2.0, 3.0]),
    ];
    let busy: Vec<f64> = fastest_steps(&reps).iter().map(|s| s.busy_s).collect();
    assert_eq!(busy, vec![1.0, 1.0, 2.0]);
    // Ragged repetitions are cut to the shortest.
    let ragged = vec![steps(&[1.0, 2.0, 3.0]), steps(&[4.0])];
    assert_eq!(fastest_steps(&ragged).len(), 1);
    assert!(fastest_steps(&[]).is_empty());

    // The metrics come from the fastest steps and the fastest setup.
    let reps = vec![steps(&[0.25; 20]), steps(&[0.125; 20]), steps(&[4.0; 20])];
    let mut out = felim_perfbench::Outcome::default();
    felim_perfbench::host_metrics(&mut out, &reps, &[3.0, 1.0, 2.0, 9.0]);
    let metric = |name: &str| out.metrics.iter().find(|m| m.name == name).map(|m| m.value);
    assert_eq!(metric("ops_per_s"), Some(8.0));
    assert_eq!(metric("tick_p50_us"), Some(125_000.0));
    assert_eq!(metric("setup_s"), Some(1.0));
    assert!(out.errors.is_empty());
}
