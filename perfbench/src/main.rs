//! `felim-perfbench` — runs one benchmark workload and prints its result.
//!
//! ```text
//! felim-perfbench --workload serve_local --seed 7 --seconds 10 \
//!     [--shardd PATH] [--spans PATH] [--corrupt-oracle]
//! ```
//!
//! The last stdout line is one JSON object: `workload`, `seed`,
//! `threads`, `traced`, `correct`, `attempted`, `failed`, `errors`,
//! `metrics` (end-to-end) and `layers` (per-layer, traced build only),
//! each metric as `{"value", "unit"}`. The exit code is 1 when any
//! oracle check failed, 2 on a usage error.

use felim_perfbench::{finish_trace, run, spans, Metric, RunCtx, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn usage(message: &str) -> ! {
    eprintln!("felim-perfbench: {message}");
    eprintln!(
        "usage: felim-perfbench --workload <{}> --seed N --seconds S \
         [--shardd PATH] [--spans PATH] [--corrupt-oracle]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut v = BTreeMap::new();
                v.insert("value".to_owned(), Value::Number(m.value));
                v.insert("unit".to_owned(), Value::String(m.unit.to_owned()));
                (m.name.clone(), Value::Object(v))
            })
            .collect(),
    )
}

fn main() {
    let mut ctx = RunCtx {
        seed: 0,
        budget: Duration::ZERO,
        rec: spans::Recorder::new(felim_telemetry::enabled()),
        shardd: None,
        corrupt_oracle: false,
    };
    let (mut workload, mut spans_path) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => ctx.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                ctx.budget = Duration::from_secs_f64(s.max(0.0));
            }
            "--shardd" => ctx.shardd = Some(PathBuf::from(value())),
            "--spans" => spans_path = Some(PathBuf::from(value())),
            "--corrupt-oracle" => ctx.corrupt_oracle = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    let mut out =
        run(&name, &mut ctx).unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    if ctx.traced() {
        finish_trace(&mut out, &ctx.rec);
        if let Some(path) = &spans_path {
            if let Err(e) = std::fs::write(path, spans::to_json(ctx.rec.spans())) {
                out.errors.push(format!("write {}: {e}", path.display()));
            }
        }
    }

    for (k, v) in &out.info {
        println!("{name} {k} = {v}");
    }
    for e in &out.errors {
        println!("{name} ERROR {e}");
    }
    let mut result = BTreeMap::new();
    result.insert("workload".to_owned(), Value::String(name));
    result.insert("seed".to_owned(), Value::Number(ctx.seed as f64));
    result.insert(
        "threads".to_owned(),
        Value::Number(felim_exec::thread_count() as f64),
    );
    result.insert("traced".to_owned(), Value::Bool(ctx.traced()));
    result.insert("correct".to_owned(), Value::Bool(out.correct()));
    result.insert("attempted".to_owned(), Value::Number(out.attempted as f64));
    result.insert("failed".to_owned(), Value::Number(out.failed as f64));
    result.insert(
        "errors".to_owned(),
        Value::Array(out.errors.iter().cloned().map(Value::String).collect()),
    );
    result.insert("metrics".to_owned(), metrics_json(&out.metrics));
    result.insert("layers".to_owned(), metrics_json(&out.layers));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("result serialises")
    );
    std::process::exit(i32::from(!out.correct()));
}
