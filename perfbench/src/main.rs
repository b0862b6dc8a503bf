//! The serving-stack benchmark: one command, three workloads, end-to-end
//! metrics (untraced runs) and per-layer metrics (traced runs).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload taxi-closed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! - `--workload taxi-closed|fleet-closed|taxi-live` (see `BENCHMARK.json`
//!   for why each exists);
//! - `--seed <n>`: every input is generated from it;
//! - `--seconds <s>`: length of the measured phase;
//! - `--trace 0|1`: `0` prints the end-to-end metrics; `1` runs the same
//!   workload with spans recorded from this package's files, replays every
//!   stream through a shadow engine, writes the spans to
//!   `.perfbench_out/trace-<workload>.csv` and prints the per-layer
//!   metrics;
//! - `--out-dir <dir>` (default `.perfbench_out`): scratch and trace
//!   files;
//! - `--perturb <check>`: self-test hook that falsifies one expectation
//!   (`receipts`, `counts`, `fitness`, `recovery`, `shadow`); the run must
//!   then exit non-zero.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the provenance block. Any failed output check exits with code 1.

mod alloc;
mod pooled;
mod shadow;
mod stats;
mod trace;
mod workload;

use pooled::{Perturb, Pooled};
use sns_codec::to_bytes;
use sns_runtime::QuarantinePolicy;
use stats::{mean, median, quantile};
use std::path::PathBuf;
use trace::Tracer;
use workload::{Kind, Workload, LIVE_OFFERED_TUPLES_PER_S, SHARDS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The traced run fails when more than this share of shadow engine time
/// falls outside the `sns-stream` and `sns-core` spans, so the stage
/// ledger cannot drift.
const UNATTRIBUTED_TOLERANCE: f64 = 0.10;

/// Per-call shadow spans kept in memory (and written) per run, at most.
const SPAN_BUDGET: u64 = 300_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    perturb: Perturb,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let kind = value("--workload")
        .and_then(Kind::parse)
        .ok_or("--workload must be taxi-closed, fleet-closed or taxi-live")?;
    let seed = value("--seed").unwrap_or("1").parse().map_err(|_| "--seed must be an integer")?;
    let seconds: f64 =
        value("--seconds").unwrap_or("10").parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let perturb = Perturb::parse(value("--perturb").unwrap_or("none"))
        .ok_or("--perturb must be receipts, counts, fitness, recovery or shadow")?;
    let out_dir = PathBuf::from(value("--out-dir").unwrap_or(".perfbench_out"));
    Ok(Args { kind, seed, seconds, trace, out_dir, perturb })
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let w = Workload::new(args.kind, args.seed, args.seconds);
    let tracer = args.trace.then(Tracer::new);
    let dir = pooled::run_dir(&args.out_dir, args.kind.name());
    let mut p = match pooled::run(&w, args.seconds, &dir, tracer.as_ref(), args.perturb) {
        Ok(p) => p,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            eprintln!("perfbench: {} failed: {e}", args.kind.name());
            std::process::exit(1);
        }
    };
    for f in &p.horizon_fitness {
        if !f.is_finite() {
            p.failures.push(format!("fitness {f} is not finite"));
        }
    }
    if p.horizon_fitness.len() != w.streams.len() {
        p.failures.push("a stream has no fitness reading".to_string());
    }

    let metrics = match &tracer {
        None => {
            check_fitness(&w, &mut p, args.perturb);
            end_to_end(&p)
        }
        Some(t) => per_layer(&w, &mut p, t, &args),
    };
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            p.failures.push(format!("metric {name} is not finite"));
        }
    }
    println!("{}", provenance(&args, &p));
    for f in &p.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = p.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        p.attempted.max(1),
        p.failed,
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The fitness horizon must match a serial engine built from the same
/// spec and seed and fed the same input (the pooled ≡ serial oracle).
fn check_fitness(w: &Workload, p: &mut Pooled, perturb: Perturb) {
    for (i, plan) in w.streams.iter().enumerate() {
        let mut engine = w.spec(plan).build(plan.seed);
        let fed = engine.prefill_all(w.prefill(plan)).and_then(|_| {
            engine.warm_start(&w.als);
            engine.ingest_all(w.live_prefix(plan, w.warmup_batches))
        });
        if let Err(e) = fed {
            p.failures.push(format!("stream {}: serial reference failed: {e}", plan.id));
            continue;
        }
        let mut expected = engine.fitness();
        if perturb == Perturb::Fitness && i == 0 {
            expected = f64::from_bits(expected.to_bits() ^ 1);
        }
        match p.horizon_fitness.get(i) {
            Some(got) if got.to_bits() == expected.to_bits() => {}
            got => p.failures.push(format!(
                "stream {}: fitness {got:?} differs from the serial reference {expected}",
                plan.id
            )),
        }
    }
}

fn end_to_end(p: &Pooled) -> Metrics {
    let mut m = Metrics::default();
    m.put("events_per_s", p.measured_updates as f64 / p.measured_s, "ev/s");
    // Each shard's median, averaged: when one vCPU runs slower than the
    // other, the pooled median flips between the two shards' medians from
    // run to run.
    let shard_medians: Vec<f64> = p.ack_ms_by_shard.iter().map(|a| median(a)).collect();
    m.put("ack_p50_ms", mean(&shard_medians), "ms");
    m.put("ack_p99_ms", quantile(&p.ack_ms, 0.99), "ms");
    m.put("fitness_mean", mean(&p.horizon_fitness), "fitness");
    m.put("setup_s", median(&p.setup_s), "s");
    m.put("recover_s", median(&p.recover_s), "s");
    m.put("peak_rss_mb", alloc::peak_rss_mb(), "MiB");
    m
}

/// Shadow-replays every stream (untraced, then traced), checks bitwise
/// equality with the pool, writes the trace file and derives the
/// per-layer metrics from the spans.
fn per_layer(w: &Workload, p: &mut Pooled, tracer: &Tracer, args: &Args) -> Metrics {
    let total_events: u64 = w
        .streams
        .iter()
        .zip(&p.batches_acked)
        .map(|(s, &n)| w.expected_updates(s, n) + (n * w.batch) as u64)
        .sum();
    let sample_every = total_events.div_ceil(SPAN_BUDGET).max(1) as usize;
    let cfg = shadow::TraceCfg { tracer, sample_every, capture_every: 16 };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for (i, plan) in w.streams.iter().enumerate() {
        let n = p.batches_acked.get(i).copied().unwrap_or(0);
        let Some(pooled) = p.finals.iter().find(|f| f.stream_id == plan.id) else {
            p.failures.push(format!("stream {}: no pooled snapshot", plan.id));
            continue;
        };
        // The untraced pass covers the first quarter of the batches: the
        // serial baseline and the base of the tracing overhead.
        let prefix = (n / 4).max(w.warmup_batches + 1).min(n);
        let passes = shadow::replay(w, plan, prefix, prefix, pooled.wal_seq, None)
            .and_then(|u| Ok((u, shadow::replay(w, plan, n, prefix, pooled.wal_seq, Some(&cfg))?)));
        let (u, t) = match passes {
            Ok(passes) => passes,
            Err(e) => {
                p.failures.push(e);
                continue;
            }
        };
        let mut bytes = t.snapshot.as_ref().map(to_bytes).unwrap_or_default();
        if args.perturb == Perturb::Shadow && i == 0 {
            if let Some(b) = bytes.last_mut() {
                *b ^= 1;
            }
        }
        if bytes != to_bytes(pooled) {
            p.failures.push(format!("stream {}: shadow is not bitwise equal to the pool", plan.id));
        }
        let mut horizon = t.horizon_fitness;
        if args.perturb == Perturb::Fitness && i == 0 {
            horizon = f64::from_bits(horizon.to_bits() ^ 1);
        }
        if p.horizon_fitness.get(i).map(|f| f.to_bits()) != Some(horizon.to_bits()) {
            p.failures.push(format!("stream {}: fitness differs from the shadow", plan.id));
        }
        untraced.push(u);
        traced.push(t);
    }

    let spans = tracer.spans();
    let path = args.out_dir.join(format!("trace-{}.csv", args.kind.name()));
    if let Err(e) = tracer.write_csv(&path) {
        p.failures.push(format!("cannot write {}: {e}", path.display()));
    }
    let ledger = trace::ledger(&spans);
    let self_ns = |prefix: &str| -> f64 {
        ledger.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, l)| l.self_ns as f64).sum()
    };
    let batch_ns = ledger.get("shadow.batch").map_or(0.0, |l| l.total_ns as f64).max(1.0);
    let stream_share = self_ns("stream.") / batch_ns;
    let core_share = self_ns("core.apply.") / batch_ns;
    let unattributed = 1.0 - stream_share - core_share;
    if unattributed > UNATTRIBUTED_TOLERANCE {
        p.failures.push(format!(
            "trace.unattributed_share {unattributed:.3} exceeds the tolerance {UNATTRIBUTED_TOLERANCE}"
        ));
    }
    let p50 = |name: &str| quantile(&trace::durations(&spans, name), 0.5);
    let in_phase = |name: &str| -> Vec<f64> {
        let (a, z) = p.measured_ns;
        spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= a && s.end_ns <= z)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    let sum = |passes: &[shadow::Pass], f: fn(&shadow::Pass) -> f64| -> f64 {
        passes.iter().map(f).sum()
    };
    let serial_rate =
        sum(&untraced, |x| x.prefix_events as f64) / sum(&untraced, |x| x.prefix_s).max(1e-9);
    // Time one thread would need for the measured phase's updates.
    let serial_busy = p.measured_updates as f64 / serial_rate.max(1e-9);
    let captures: Vec<f64> = traced.iter().flat_map(|x| x.capture_us.iter().copied()).collect();
    let capture_p50 = quantile(&captures, 0.5);
    let wal_us = in_phase("codec.wal_record");

    let mut m = Metrics::default();
    m.put("stream.ingest_ns_p50", p50("stream.ingest"), "ns");
    m.put("stream.busy_share", stream_share, "share");
    m.put(
        "stream.deltas_per_tuple",
        sum(&traced, |x| x.events as f64) / sum(&traced, |x| x.tuples as f64).max(1.0),
        "count",
    );
    m.put("stream.active_tuples", sum(&traced, |x| x.active_tuples as f64), "count");
    for (_, _, name) in shadow::APPLY_SPANS {
        let metric = name.replacen("core.apply.", "core.apply_ns_p50.", 1);
        m.put(&metric, p50(name), "ns");
    }
    m.put("core.busy_share", core_share, "share");
    m.put("core.warm_start_s", sum(&traced, |x| x.warm_start_s), "s");
    m.put("core.fitness_ms", mean(&traced.iter().map(|x| x.fitness_ms).collect::<Vec<_>>()), "ms");
    m.put("runtime.serial_events_per_s", serial_rate, "ev/s");
    m.put("runtime.engine_share", serial_busy / (p.measured_s * SHARDS as f64), "share");
    m.put("runtime.submit_us_p50", quantile(&p.submit_us, 0.50), "us");
    m.put("runtime.submit_us_p99", quantile(&p.submit_us, 0.99), "us");
    m.put("runtime.receipt_wait_share", p.receipt_wait_s / p.measured_s, "share");
    m.put("runtime.read_p90_ms", quantile(&p.read_ms, 0.90), "ms");
    m.put("driver.gen_late_p99_ms", quantile(&p.late_ms, 0.99), "ms");
    m.put("runtime.coalescing", p.measured_batches as f64 / p.groups.max(1) as f64, "ratio");
    m.put("runtime.queue_depth_mean", p.depth_sum / p.depth_samples.max(1) as f64, "count");
    m.put("runtime.backlog_max", p.backlog_max as f64, "count");
    m.put(
        "runtime.accept_ratio",
        p.submit_accepted as f64 / p.submit_attempts.max(1) as f64,
        "share",
    );
    m.put("runtime.rollback_capture_us_p50", capture_p50, "us");
    let rollback_share = match w.quarantine {
        QuarantinePolicy::Rollback => capture_p50 * 1e-6 * p.groups as f64 / serial_busy.max(1e-9),
        QuarantinePolicy::Disabled => 0.0,
    };
    m.put("runtime.rollback_share", rollback_share, "share");
    m.put("runtime.allocs_per_event", p.allocs as f64 / p.measured_updates.max(1) as f64, "count");
    m.put("runtime.open_s", p.open_s, "s");
    m.put("runtime.prefill_s", p.prefill_s, "s");
    m.put("codec.wal_record_us_p50", quantile(&wal_us, 0.50), "us");
    m.put("codec.wal_record_us_p99", quantile(&wal_us, 0.99), "us");
    m.put("codec.wal_bytes_per_tuple", p.wal_bytes_per_tuple, "B");
    m.put("codec.commits", p.commits as f64, "count");
    m.put("codec.delta_ratio", p.delta_ratio, "share");
    m.put("codec.store_bytes", p.store_bytes as f64, "B");
    m.put("codec.load_s", median(&p.load_s), "s");
    m.put("codec.replayed_units", p.replayed_units as f64, "count");
    m.put("ops.dump_ms_p50", quantile(&p.dump_ms, 0.5), "ms");
    m.put(
        "trace.overhead",
        sum(&traced, |x| x.prefix_s) / sum(&untraced, |x| x.prefix_s).max(1e-9),
        "ratio",
    );
    m.put("trace.unattributed_share", unattributed, "share");
    m
}

/// Cores this process may run on (`nproc`), from the affinity mask.
fn nproc() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return 0;
    };
    list.trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance block: host, build, inputs, and the sample count
/// behind every percentile.
fn provenance(args: &Args, p: &Pooled) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"cores\": {cores}, \"nproc\": {}}}, \"git_commit\": \"{}\", \"rustc\": \"{}\", \
         \"taxi_live_offered_tuples_per_s\": {}, \"shards\": {SHARDS}, \
         \"samples\": {{\"ack\": {}, \"read\": {}, \"gen_late\": {}, \"setup\": {}, \"recover\": {}}}, \
         \"supported\": {{\"ack_p99\": {}, \"read_p90\": {}, \"gen_late_p99\": {}}}}}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        git_commit(),
        env!("PERFBENCH_RUSTC_VERSION"),
        LIVE_OFFERED_TUPLES_PER_S,
        p.ack_ms.len(),
        p.read_ms.len(),
        p.late_ms.len(),
        p.setup_s.len(),
        p.recover_s.len(),
        stats::supported(p.ack_ms.len(), 0.99),
        stats::supported(p.read_ms.len(), 0.90),
        stats::supported(p.late_ms.len(), 0.99),
    )
}
