//! Throughput bench: events/second per method at the Table-III default
//! configuration (synthetic NYC-Taxi-like stream, `R = 20`, `W = 10`,
//! `T = 3600`, `θ = 20`), emitting a machine-readable `BENCH_*.json`.
//! Pooled serving throughput, allocations and shard scaling are measured
//! by the repo benchmark (`perfbench/`, see the README).
//!
//! ```text
//! cargo run --release -p sns-bench --bin bench -- --smoke --tag pr6
//! ```
//!
//! Flags:
//! - `--smoke`          quarter-length stream (CI-sized, < 1 min);
//! - `--tag <tag>`      artifact tag (default `pr6`); the default output
//!   path is derived from it (`BENCH_<tag>.json`);
//! - `--out <path>`     JSON output path (overrides the tag-derived name);
//! - `--enforce-floor`  exit non-zero if the continuous SNS reference
//!   method (SNS⁺_RND) falls below [`FLOOR_EVENTS_PER_SEC`], or if
//!   SNS⁺_VEC regresses past its PR-3 per-event baseline
//!   ([`VEC_BASELINE_MICROS`]);
//! - `--runs <n>`       repetitions per method, best run reported
//!   (default 3; measurement is wall-clock and shared machines are
//!   noisy, so the floor check uses the best of `n`).
//!
//! The JSON schema is documented in the README.

use sns_bench::runner::{split_prefill, ExperimentParams};
use sns_bench::Method;
use sns_core::als::AlsOptions;
use sns_core::config::AlgorithmKind;
use sns_data::{generate, nytaxi_like};
use sns_stream::StreamTuple;
use std::time::Instant;

/// Checked-in floor for the continuous SNS reference method (SNS⁺_RND,
/// the paper's recommended variant) in events per second. Ratcheted
/// PR-3's 30k to 60k after the wave-2 kernel work (blocked fiber
/// MTTKRP, interleaved mirror, fused sampled-residual pass, cheap
/// uniform draws): measured ~110–152k ev/s on a single weak shared
/// core, so the floor keeps ~2× headroom for CI hardware variance while
/// still catching any genuine hot-path regression.
pub const FLOOR_EVENTS_PER_SEC: f64 = 60_000.0;

/// Measured SNS⁺_VEC per-event latency ceiling (µs) on the reference
/// machine. `--enforce-floor` additionally fails if SNS⁺_VEC's best run
/// is slower than this — a no-regression guard on the pure exact-path
/// kernels, which the 60k floor (on the sampled reference method) would
/// not catch alone. Wave 3 ratchets PR-3's 5.7µs down to 4.5µs: wave 2
/// measures ~3.5–4.9µs best-of-runs, and the floor check reports the
/// best of `--runs`, so 4.5µs still leaves noise headroom over the
/// observed best while banking the wave-2 kernel wins.
pub const VEC_BASELINE_MICROS: f64 = 4.5;

struct MethodResult {
    name: String,
    tuples: usize,
    updates: u64,
    seconds: f64,
    events_per_sec: f64,
    tuples_per_sec: f64,
    final_fitness: f64,
    diverged: bool,
}

/// Prefill + warm start outside the clock, then time the batched ingest
/// of the measured stream (the same `ingest_all` path the pooled runtime
/// drives). Returns the best of `runs` repetitions.
fn run_method(
    method: Method,
    params: &ExperimentParams,
    stream: &[StreamTuple],
    runs: usize,
) -> MethodResult {
    let cfg = sns_bench::RunConfig {
        als: AlsOptions { max_iters: 10, tol: 1e-3, ..Default::default() },
        ..Default::default()
    };
    let (prefill, measured) = split_prefill(params, stream);
    let mut best: Option<MethodResult> = None;
    for _ in 0..runs.max(1) {
        let mut engine = method.build(params, &cfg);
        engine.prefill_all(prefill).expect("chronological stream");
        engine.warm_start(&cfg.als);
        let start = Instant::now();
        let outcome = engine.ingest_all(measured).expect("chronological stream");
        let seconds = start.elapsed().as_secs_f64();
        let updates = outcome.updates;
        let result = MethodResult {
            name: method.name(),
            tuples: measured.len(),
            updates,
            seconds,
            events_per_sec: updates as f64 / seconds,
            tuples_per_sec: measured.len() as f64 / seconds,
            final_fitness: engine.fitness(),
            diverged: engine.diverged(),
        };
        if best.as_ref().is_none_or(|b| result.seconds < b.seconds) {
            best = Some(result);
        }
    }
    best.expect("runs >= 1")
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// The value following flag `name` (e.g. `--out`), if present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A stale `bench fleet` / `bench resources` call must not fall
    // through to a full-length run that overwrites `BENCH_pr6.json`.
    if let Some(arg) = args.first().filter(|a| !a.starts_with("--")) {
        eprintln!("bench: unexpected argument `{arg}`; bench has no subcommands");
        std::process::exit(2);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce-floor");
    let tag = flag_value(&args, "--tag").unwrap_or("pr6");
    let out_path =
        flag_value(&args, "--out").map_or_else(|| format!("BENCH_{tag}.json"), String::from);
    let runs = flag_value(&args, "--runs").and_then(|s| s.parse::<usize>().ok()).unwrap_or(3);

    let spec = nytaxi_like();
    let params = ExperimentParams::from_spec(&spec);
    let events = if smoke { spec.default_events / 4 } else { spec.default_events };
    let stream = generate(&spec.generator(events, 42));
    println!(
        "config: {} (synthetic), dims {:?}, R={}, W={}, T={}, theta={}, events={} ({} mode)",
        spec.name,
        spec.base_dims,
        params.rank,
        params.window,
        params.period,
        params.theta,
        events,
        if smoke { "smoke" } else { "full" },
    );

    // The four fast continuous methods in full; SNS_MAT (one ALS sweep
    // per event) on a capped slice so the bench stays minutes-bounded.
    let methods = [
        Method::Sns(AlgorithmKind::Vec),
        Method::Sns(AlgorithmKind::Rnd),
        Method::Sns(AlgorithmKind::PlusVec),
        Method::Sns(AlgorithmKind::PlusRnd),
    ];
    let mut results: Vec<MethodResult> = Vec::new();
    for m in methods {
        let r = run_method(m, &params, &stream, runs);
        println!(
            "  {:<10} {:>10.0} events/s  {:>10.0} tuples/s  ({} updates in {:.3}s, fitness {:.3}{})",
            r.name,
            r.events_per_sec,
            r.tuples_per_sec,
            r.updates,
            r.seconds,
            r.final_fitness,
            if r.diverged { ", DIVERGED" } else { "" },
        );
        results.push(r);
    }

    let reference =
        results.iter().find(|r| r.name == "SNS+_RND").expect("reference method present");
    let pass = reference.events_per_sec >= FLOOR_EVENTS_PER_SEC;
    let vec_ref = results.iter().find(|r| r.name == "SNS+_VEC").expect("SNS+_VEC present");
    let vec_micros = 1e6 / vec_ref.events_per_sec;
    let vec_pass = vec_micros <= VEC_BASELINE_MICROS;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sns-smoke\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str(&format!(
        "  \"config\": {{\"dataset\": \"{}\", \"synthetic\": true, \"base_dims\": {:?}, \"rank\": {}, \"window\": {}, \"period\": {}, \"theta\": {}, \"eta\": {}, \"events\": {}, \"seed\": 42, \"runs\": {}}},\n",
        spec.name, spec.base_dims, params.rank, params.window, params.period, params.theta,
        json_f64(params.eta), events, runs,
    ));
    json.push_str("  \"methods\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"tuples\": {}, \"updates\": {}, \"seconds\": {}, \"events_per_sec\": {}, \"tuples_per_sec\": {}, \"final_fitness\": {}, \"diverged\": {}}}{}\n",
            r.name,
            r.tuples,
            r.updates,
            json_f64(r.seconds),
            json_f64(r.events_per_sec),
            json_f64(r.tuples_per_sec),
            json_f64(r.final_fitness),
            r.diverged,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"floor\": {{\"method\": \"{}\", \"events_per_sec\": {}, \"measured\": {}, \"pass\": {}}},\n",
        reference.name,
        json_f64(FLOOR_EVENTS_PER_SEC),
        json_f64(reference.events_per_sec),
        pass,
    ));
    json.push_str(&format!(
        "  \"vec_guard\": {{\"method\": \"{}\", \"baseline_micros\": {}, \"measured_micros\": {}, \"pass\": {}}}\n",
        vec_ref.name,
        json_f64(VEC_BASELINE_MICROS),
        json_f64(vec_micros),
        vec_pass,
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if enforce && !pass {
        eprintln!(
            "FLOOR VIOLATION: {} at {:.0} events/s, floor {:.0}",
            reference.name, reference.events_per_sec, FLOOR_EVENTS_PER_SEC
        );
        std::process::exit(1);
    }
    if enforce && !vec_pass {
        eprintln!(
            "VEC REGRESSION: {} at {:.2}us/event, baseline {:.2}us",
            vec_ref.name, vec_micros, VEC_BASELINE_MICROS
        );
        std::process::exit(1);
    }
}
