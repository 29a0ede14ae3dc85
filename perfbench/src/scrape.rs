//! Parsing the server's Prometheus `/metrics` page and differencing two
//! scrapes, so a phase's share of a cumulative counter or histogram can
//! be read from the scrapes taken before and after it.

use std::collections::BTreeMap;

/// One scrape: every sample line keyed by its series (metric name plus
/// any `{label="…"}` block, exactly as printed).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses the text exposition format. Comment lines and trailing
    /// exemplars (`… # {trace_id="…"} v`) are skipped; a line whose
    /// value does not parse is ignored.
    pub fn parse(text: &str) -> Self {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let line = line.split(" # ").next().unwrap_or(line);
            // The value follows the last space; label values in this
            // exposition hold no spaces.
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    samples.insert(series.trim().to_string(), v);
                }
            }
        }
        Self(samples)
    }

    /// `self - before`, series by series; a series missing from
    /// `before` counts from zero.
    pub fn delta(&self, before: &Scrape) -> Scrape {
        Self(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Adds `other` series by series: the total of several phases'
    /// deltas.
    pub fn add(&mut self, other: &Scrape) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// One series' value (0 when absent).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Observations of histogram `family` (its `_count`).
    pub fn hist_count(&self, family: &str) -> f64 {
        self.get(&format!("{family}_count"))
    }

    /// Mean observation of histogram `family` (`_sum / _count`), or 0
    /// when it saw nothing.
    pub fn hist_mean(&self, family: &str) -> f64 {
        let count = self.hist_count(family);
        if count > 0.0 {
            self.get(&format!("{family}_sum")) / count
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE rpm_serve_queue_wait_ns histogram
rpm_serve_queue_wait_ns_bucket{le=\"1024\"} 2
rpm_serve_queue_wait_ns_bucket{le=\"+Inf\"} 2
rpm_serve_queue_wait_ns_sum 1500
rpm_serve_queue_wait_ns_count 2
rpm_match_windows_total 100
";

    const AFTER: &str = "\
# TYPE rpm_serve_queue_wait_ns histogram
rpm_serve_queue_wait_ns_bucket{le=\"1024\"} 2
rpm_serve_queue_wait_ns_bucket{le=\"4194304\"} 5 # {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 2000000
rpm_serve_queue_wait_ns_bucket{le=\"+Inf\"} 5
rpm_serve_queue_wait_ns_sum 6001500
rpm_serve_queue_wait_ns_count 5
rpm_serve_batch_fill_sum 96
rpm_serve_batch_fill_count 3
rpm_match_windows_total 350
";

    #[test]
    fn parses_samples_and_skips_comments_and_exemplars() {
        let s = Scrape::parse(AFTER);
        assert_eq!(s.get("rpm_serve_queue_wait_ns_count"), 5.0);
        assert_eq!(s.get("rpm_serve_queue_wait_ns_bucket{le=\"4194304\"}"), 5.0);
        assert_eq!(s.get("rpm_serve_queue_wait_ns_bucket{le=\"+Inf\"}"), 5.0);
        assert_eq!(s.get("rpm_match_windows_total"), 350.0);
        assert_eq!(s.get("absent"), 0.0);
        assert_eq!(
            Scrape::parse("garbage line\nx notanumber\n"),
            Scrape::default()
        );
    }

    #[test]
    fn deltas_isolate_one_phase() {
        let d = Scrape::parse(AFTER).delta(&Scrape::parse(BEFORE));
        assert_eq!(d.hist_count("rpm_serve_queue_wait_ns"), 3.0);
        assert_eq!(d.hist_mean("rpm_serve_queue_wait_ns"), 2_000_000.0);
        assert_eq!(d.get("rpm_serve_queue_wait_ns_bucket{le=\"1024\"}"), 0.0);
        assert_eq!(d.get("rpm_serve_queue_wait_ns_bucket{le=\"4194304\"}"), 5.0);
        // A family first seen after the phase began counts from zero.
        assert_eq!(d.hist_mean("rpm_serve_batch_fill"), 32.0);
        assert_eq!(d.get("rpm_match_windows_total"), 250.0);
        // Deltas of several phases add up.
        let mut total = d.clone();
        total.add(&d);
        assert_eq!(total.hist_count("rpm_serve_queue_wait_ns"), 6.0);
        assert_eq!(total.hist_mean("rpm_serve_queue_wait_ns"), 2_000_000.0);
        // An idle histogram has no mean.
        assert_eq!(Scrape::default().hist_mean("rpm_serve_batch_fill"), 0.0);
    }
}
