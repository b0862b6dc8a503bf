//! Runs every table/figure harness in paper order; the output of this
//! binary is what `EXPERIMENTS.md` records. Exits non-zero when any
//! observation verdict fails.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = sns_bench::parse_scale(&args);
    println!("SliceNStitch reproduction — full experiment sweep (scale = {scale})");
    let report = sns_bench::experiments::run_all(scale);
    print!("{report}");
    let failed = report.lines().filter(|l| l.starts_with("[FAIL")).count();
    if failed > 0 {
        eprintln!("run_all: {failed} observation verdict(s) failed");
        std::process::exit(1);
    }
}
