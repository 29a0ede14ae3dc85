//! Reproducible source of `BENCH_3.json`: the batched pattern-set
//! cascade vs the per-pattern rolling loop, with the prune-tier
//! counters that explain the speedups.
//!
//! The scenarios mirror the `match_kernel` group in
//! `benches/kernels.rs` — set scans over one series, and the
//! classification-path composite (a 32-series batch transformed into
//! the K-pattern feature space). Each timing is the minimum over
//! `--reps` runs, which is robust against background load on shared
//! machines; counters come from one counted batched pass.
//!
//! ```text
//! cargo run --release -p rpm-bench --bin cascade_stats -- --json BENCH_3.json
//! ```

use rpm_core::{prepare_patterns, transform_set_plans_engine_counted, Engine, MatchKernel};
use rpm_ts::{BatchedMatch, MatchPlan, ScanCounters, ScanStats};
use std::fmt::Write as _;
use std::time::Instant;

fn synthetic_series(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.max(1);
    let mut acc = 0.0f64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            acc += ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            acc
        })
        .collect()
}

fn min_time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct Row {
    scenario: String,
    k: usize,
    m: usize,
    n: usize,
    rolling_ms: f64,
    batched_ms: f64,
    stats: ScanStats,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.rolling_ms / self.batched_ms
    }

    fn json(&self) -> String {
        let s = &self.stats;
        format!(
            "{{\"scenario\":\"{}\",\"k\":{},\"m\":{},\"n\":{},\
             \"rolling_ms\":{:.4},\"batched_ms\":{:.4},\"speedup\":{:.2},\
             \"windows\":{},\"pruned_first_last\":{},\"pruned_envelope\":{},\
             \"pruned_sax\":{},\"abandoned\":{},\"stats_builds\":{},\
             \"prune_rate\":{:.4}}}",
            self.scenario,
            self.k,
            self.m,
            self.n,
            self.rolling_ms,
            self.batched_ms,
            self.speedup(),
            s.windows,
            s.pruned_first_last,
            s.pruned_envelope,
            s.pruned_sax,
            s.abandoned,
            s.stats_builds,
            s.prune_rate(),
        )
    }
}

/// One K-pattern set scanned over one series (patterns are staggered
/// subsequences of that series, as mined patterns are of their class).
fn set_scan(k: usize, m: usize, n: usize, reps: usize) -> Row {
    let series = synthetic_series(n, 7);
    let patterns: Vec<Vec<f64>> = (0..k)
        .map(|i| {
            let at = (i * (n - m)) / k;
            series[at..at + m].to_vec()
        })
        .collect();
    let rolling: Vec<MatchPlan> = prepare_patterns(&patterns, MatchKernel::Rolling);
    let set = BatchedMatch::new(&prepare_patterns(&patterns, MatchKernel::Batched));
    let rolling_ms = min_time_ms(reps, || {
        for p in &rolling {
            std::hint::black_box(p.best_match(&series, true));
        }
    });
    let batched_ms = min_time_ms(reps, || {
        std::hint::black_box(set.match_all(&series, true, None));
    });
    let counters = ScanCounters::new();
    set.match_all(&series, true, Some(&counters));
    Row {
        scenario: format!("set_scan/k{k}_m{m}_n{n}"),
        k,
        m,
        n,
        rolling_ms,
        batched_ms,
        stats: counters.snapshot(),
    }
}

/// The classification-path composite: a 32-series batch transformed
/// into the K-pattern feature space, every pattern embedded in every
/// series at shuffled offsets (patterns recur in their class — that is
/// what makes them patterns).
fn transform_composite(k: usize, n: usize, reps: usize) -> Row {
    const M: usize = 64;
    let master = synthetic_series(n, 97);
    let patterns: Vec<Vec<f64>> = (0..k)
        .map(|i| {
            let at = (i * (n - M)) / k;
            master[at..at + M].to_vec()
        })
        .collect();
    let batch: Vec<Vec<f64>> = (0..32)
        .map(|i| {
            let mut s = synthetic_series(n, 200 + i as u64);
            for j in 0..k {
                let p = &patterns[(j + i) % k];
                let at = j * (n / k) + (i % 3) * 17;
                s[at..at + p.len()].copy_from_slice(p);
            }
            s
        })
        .collect();
    let rolling_plans = prepare_patterns(&patterns, MatchKernel::Rolling);
    let batched_plans = prepare_patterns(&patterns, MatchKernel::Batched);
    let engine = Engine::serial();
    let transform = |plans: &[MatchPlan], counters: Option<&ScanCounters>| {
        transform_set_plans_engine_counted(&batch, plans, false, true, &engine, counters).unwrap()
    };
    let rolling_ms = min_time_ms(reps, || {
        std::hint::black_box(transform(&rolling_plans, None));
    });
    let batched_ms = min_time_ms(reps, || {
        std::hint::black_box(transform(&batched_plans, None));
    });
    let counters = ScanCounters::new();
    transform(&batched_plans, Some(&counters));
    Row {
        scenario: format!("transform/k{k}_n{n}_s32"),
        k,
        m: M,
        n,
        rolling_ms,
        batched_ms,
        stats: counters.snapshot(),
    }
}

fn main() {
    let mut json_path = None;
    let mut reps = 15usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next(),
            "--reps" => reps = args.next().and_then(|v| v.parse().ok()).unwrap_or(reps),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let rows = vec![
        set_scan(8, 64, 2048, reps),
        set_scan(16, 64, 8192, reps),
        set_scan(16, 128, 8192, reps),
        transform_composite(16, 2048, reps),
        transform_composite(32, 4096, reps),
    ];

    println!(
        "{:<28} {:>10} {:>10} {:>7} {:>7} {:>7} {:>7} {:>8}",
        "scenario", "rolling", "batched", "speedup", "t1%", "t2%", "aband%", "exact%"
    );
    for r in &rows {
        let s = &r.stats;
        let w = s.windows.max(1) as f64;
        let exact = s.windows - s.pruned_total() - s.abandoned;
        println!(
            "{:<28} {:>8.2}ms {:>8.2}ms {:>6.2}x {:>6.1}% {:>6.1}% {:>6.1}% {:>7.1}%",
            r.scenario,
            r.rolling_ms,
            r.batched_ms,
            r.speedup(),
            100.0 * s.pruned_first_last as f64 / w,
            100.0 * s.pruned_envelope as f64 / w,
            100.0 * s.abandoned as f64 / w,
            100.0 * exact as f64 / w,
        );
    }

    if let Some(path) = json_path {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(out, "  {}{}", r.json(), sep);
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write json");
        eprintln!("wrote {path}");
    }
}
