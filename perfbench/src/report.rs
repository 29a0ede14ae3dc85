//! Metric names and units, and the result line the benchmark ends with.

use crate::client::{Cause, Tally};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("classify_p50_ms", "ms"),
    ("classify_p90_ms", "ms"),
    ("classify_series_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer that does
/// not run in a workload reads 0, as does any metric a failed run
/// never reached.
pub const PER_LAYER: [(&str, &str); 35] = [
    // Training: parameter search and the final fit.
    ("core.params.search_s", "s"),
    ("core.params.evals", "count"),
    ("core.model.fit_s", "s"),
    ("core.cache.hit_rate", "ratio"),
    ("core.cache.hits", "count"),
    ("core.cache.lookups", "count"),
    // Training: one fit per dataset replayed stage by stage.
    ("core.candidates.mine_s", "s"),
    ("core.candidates.count", "count"),
    ("sax.discretize_s", "s"),
    ("grammar.induce_s", "s"),
    ("core.distinct.dedup_s", "s"),
    ("core.distinct.kept", "count"),
    ("core.transform.transform_s", "s"),
    ("ml.cfs.select_s", "s"),
    ("ml.svm.train_s", "s"),
    // Match kernel counters (training transform or serving predict).
    ("ts.match.searches", "count"),
    ("ts.match.windows", "count"),
    ("ts.match.pruned_first_last", "count"),
    ("ts.match.pruned_envelope", "count"),
    ("ts.match.pruned_sax", "count"),
    ("ts.match.abandoned", "count"),
    ("ts.match.stats_builds", "count"),
    ("ts.match.prune_rate", "ratio"),
    ("ts.match.exact_share", "ratio"),
    // Serving.
    ("core.model.predict_ms", "ms"),
    ("serve.proto.parse_ms", "ms"),
    ("serve.batch.queue_wait_ms", "ms"),
    ("serve.batch.fill", "series"),
    ("serve.request.server_ms", "ms"),
    ("obs.http.connect_ms", "ms"),
    ("obs.http.null_request_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.p99_ms", "ms"),
    // The traced run against the untraced one.
    ("trace.split_gap_share", "ratio"),
    ("trace.extra_s", "s"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    /// Outputs that failed a check, apart from the tally's causes.
    pub wrong: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Run {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The `ts.match.*` metrics from a match-kernel counter snapshot.
    /// `exact_share` is the share of windows whose exact distance ran to
    /// the end: neither pruned by a bound nor abandoned.
    pub fn set_scan(&mut self, s: &rpm_ts::ScanStats) {
        let exact = s.windows - s.pruned_total() - s.abandoned;
        self.set("ts.match.searches", s.searches as f64);
        self.set("ts.match.windows", s.windows as f64);
        self.set("ts.match.pruned_first_last", s.pruned_first_last as f64);
        self.set("ts.match.pruned_envelope", s.pruned_envelope as f64);
        self.set("ts.match.pruned_sax", s.pruned_sax as f64);
        self.set("ts.match.abandoned", s.abandoned as f64);
        self.set("ts.match.stats_builds", s.stats_builds as f64);
        self.set("ts.match.prune_rate", s.prune_rate());
        self.set(
            "ts.match.exact_share",
            exact as f64 / s.windows.max(1) as f64,
        );
    }

    /// Records one checked operation; `Err` carries what went wrong.
    pub fn check(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.tally.record(Ok(())),
            Err(what) => {
                self.tally.record(Err(Cause::Check));
                self.wrong.push(what);
            }
        }
    }

    /// The closing JSON object: the end-to-end metrics, or the
    /// per-layer ones when traced.
    pub fn result_line(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let failed = self.tally.failed();
        let correct = failed == 0 && self.wrong.is_empty() && self.tally.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.tally.attempted.max(1),
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the code prints is declared in `BENCHMARK.json` with
    /// the same unit, and the file declares no other.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }

    #[test]
    fn result_line_has_every_metric_of_the_mode() {
        let mut run = Run::default();
        for (name, _) in END_TO_END {
            run.set(name, 1.5);
        }
        run.check(Ok(()));
        let line = run.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = run.result_line(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        run.check(Err("model differs".to_string()));
        assert!(run
            .result_line(false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
