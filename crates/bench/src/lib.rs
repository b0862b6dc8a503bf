//! # sns-bench
//!
//! Experiment harnesses reproducing every table and figure of the
//! SliceNStitch paper, the `bench` binary's per-method serial
//! throughput floor, plus Criterion micro-benchmarks of the hot kernels.
//! Pooled serving throughput, allocations and shard scaling are measured
//! by the repo benchmark (`perfbench/`), not here.
//!
//! Correctness guarantees of the serving stack (pooled ≡ serial, crash
//! recovery and quarantine replay ≡ an uninterrupted run) are not
//! checked here: they live in the root package's integration tests.
//!
//! Each figure/table has a binary (`cargo run -p sns-bench --release
//! --bin figN_…`) that prints the measured rows next to the paper's
//! qualitative expectations. `run_all` executes everything and is what
//! `EXPERIMENTS.md` records.
//!
//! All experiments accept `--scale <f64>` (default 1.0) to shrink or
//! grow the event counts, and `--quick` (= `--scale 0.15`) for smoke
//! runs.

pub mod experiments;
pub mod method;
pub mod report;
pub mod runner;

pub use method::Method;
pub use runner::{RunConfig, RunResult};

/// Parses `--scale`/`--quick` from command-line arguments.
pub fn parse_scale(args: &[String]) -> f64 {
    let mut scale = 1.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = 0.15,
            "--scale" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                    scale = v;
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    scale.clamp(0.01, 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale(&s(&[])), 1.0);
        assert_eq!(parse_scale(&s(&["--quick"])), 0.15);
        assert_eq!(parse_scale(&s(&["--scale", "0.5"])), 0.5);
        assert_eq!(parse_scale(&s(&["--scale", "bogus"])), 1.0);
        assert_eq!(parse_scale(&s(&["--scale", "1000"])), 100.0);
    }
}
