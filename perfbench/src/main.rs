//! `perfbench` — one benchmark for RPM training and serving.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_search|serve_single|serve_batch> \
//!     [--seed 2016] [--seconds 45] [--trace 0|1]
//! ```
//!
//! Workloads (all inputs generated from `--seed`):
//!
//! * `train_search` — `RpmClassifier::train` with `RpmConfig::default()`
//!   (DIRECT search, 24 evaluations) on CBF, SyntheticControl, Trace and
//!   OSULeaf, then serving of the trained CBF model for the rest of the
//!   run (at least a quarter of it).
//! * `serve_single` — an in-process server (default `ServeConfig`) under
//!   open-loop `POST /classify` at 300 requests/s, one CBF series each,
//!   then a closed loop with one client per CPU.
//! * `serve_batch` — the same at 40 requests/s with 32 OSULeaf series per
//!   request, the model fixed at SAX (80, 6, 6). Its latency is almost
//!   all match-kernel compute, which a shared host's speed swings move
//!   by up to 1.8x for minutes at a time, too much to gate on; so it is
//!   left out of `BENCHMARK.json` and run by hand.
//!
//! The serve workloads run segments (six for `serve_single`, two for
//! `serve_batch`), each serving a model trained on data from its own
//! seed. A segment runs rounds of a refit and an open-loop phase, then
//! a closed loop. A shared host's speed swings for seconds at a time,
//! so the latency percentiles and the closed-loop rate are those of the
//! best stretch of 100 consecutive requests, and `train_s` averages the
//! segments' fastest fits.
//!
//! An untraced run prints the end-to-end metrics; `--trace 1` prints the
//! per-layer ones, timed around the benchmark's own calls into each
//! crate's public functions and read from the counters the program
//! exposes. The last line of standard output is the JSON result; the
//! lines before it carry the stamp, work counts and failure causes.

mod client;
mod report;
mod scrape;
mod serve;
mod stats;
mod train;

use report::Run;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <train_search|serve_single|serve_batch> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 2016,
        seconds: 45.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !parsed.seconds.is_finite() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(parsed)
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| {
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only ask git inside a checkout of its own, never an enclosing one.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    format!(
        "stamp: workload={} seed={} seconds={} trace={} nproc={nproc} commit={commit} rustc={rustc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::default();
    let workload: fn(u64, f64, bool, &mut Run) = match args.workload.as_str() {
        "train_search" => train::run,
        "serve_single" => |seed, s, t, out| serve::run(&serve::SINGLE, seed, s, t, out),
        "serve_batch" => |seed, s, t, out| serve::run(&serve::BATCH, seed, s, t, out),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", stamp(&args));
    workload(args.seed, args.seconds, args.trace, &mut run);
    run.set("peak_rss_mb", report::peak_rss_mb());
    println!(
        "checks: attempted={} failed={} causes: {}",
        run.tally.attempted,
        run.tally.failed(),
        run.tally.render()
    );
    for what in &run.wrong {
        println!("check failed: {what}");
    }
    println!("{}", run.result_line(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_with_defaults() {
        let a = args(&["--workload", "serve_batch", "--trace", "1"]).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_batch", 2016, 45.0, true)
        );
        let a = args(&["--workload", "x", "--seed", "7", "--seconds", "3"]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, false));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
