//! `serve_single` and `serve_batch`: an in-process `rpm-serve` server
//! with the default `ServeConfig`, driven by rounds of a refit and an
//! open loop at a fixed rate and then a closed loop, and (traced) the
//! layers one request passes through.

use crate::client::{self, Body, Cause, OpenLoop};
use crate::report::Run;
use crate::scrape::Scrape;
use crate::stats::{best_rate, best_window, max, mean, median, min, percentile};
use rpm_core::{RpmClassifier, RpmConfig};
use rpm_data::{generate, registry::spec_by_name};
use rpm_sax::SaxConfig;
use rpm_serve::{ServeConfig, Server};
use rpm_ts::{Dataset, Parallelism, ScanCounters};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One serving workload.
pub struct Spec {
    /// Registry dataset the model trains on and the requests come from.
    pub dataset: &'static str,
    /// Series per request body.
    pub per_request: usize,
    /// Open-loop offered rate, requests per second.
    pub rate: f64,
    /// Fixed SAX parameters, or `None` for the default DIRECT search.
    pub fixed_sax: Option<(usize, usize, usize)>,
    /// Models served one after another in a run, each trained on data
    /// from its own seed, so a run's figures cover several models.
    pub segments: usize,
}

impl Spec {
    fn config(&self) -> RpmConfig {
        match self.fixed_sax {
            Some((w, p, a)) => RpmConfig::fixed(SaxConfig::new(w, p, a)),
            None => RpmConfig::default(),
        }
    }
}

/// Light interactive traffic: one CBF series per request.
pub const SINGLE: Spec = Spec {
    dataset: "CBF",
    per_request: 1,
    rate: 300.0,
    fixed_sax: None,
    segments: 6,
};

/// Bulk traffic: 32 OSULeaf series per request, a full `max_batch`.
pub const BATCH: Spec = Spec {
    dataset: "OSULeaf",
    per_request: 32,
    rate: 40.0,
    fixed_sax: Some((80, 6, 6)),
    segments: 2,
};

/// Requests per stretch for the best-stretch figures: a p90 over them
/// has ten samples beyond it.
const STRETCH: usize = 100;
/// Open-loop time per round.
const ROUND_OPEN: Duration = Duration::from_millis(1500);
/// Least refit time per round; fits repeat until it is reached.
const ROUND_FIT: Duration = Duration::from_millis(500);
/// Share of a segment's time given to the rounds; a closed loop gets
/// the rest, in one block: split into sub-second pieces between the
/// rounds, it read a third slower on a shared 2-vCPU VM.
const OPEN_SHARE: f64 = 0.75;
/// Checked requests sent right after start-up, before any round.
const WARMUP: usize = 16;
/// Requests to an unrouted path timed per segment (traced).
const NULL_PROBES: usize = 50;
/// Passes over the bodies for the in-process parse and predict replays
/// (traced).
const REPLAY_ROUNDS: usize = 2;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seed of segment `i`: the run's seed itself for the first.
fn segment_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 1_000_003)
}

/// What the rounds of a run add up to.
#[derive(Default)]
struct Totals {
    open: OpenLoop,
    /// Each segment's best-window open-loop p50 and p90, ms.
    best_p50: Vec<f64>,
    best_p90: Vec<f64>,
    closed_series: u64,
    closed_s: f64,
    /// Each segment's best-stretch closed-loop series per second.
    best_per_s: Vec<f64>,
    /// `/metrics` deltas over the open-loop phases.
    served: Scrape,
    null_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    predict_ms: Vec<f64>,
    counters: ScanCounters,
    extra: Duration,
}

/// Refits the served model on its training data: one round's `train_s`
/// sample.
type Refit<'a> = &'a dyn Fn() -> Result<f64, String>;

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, out: &mut Run) {
    let config = spec.config();
    let mut totals = Totals::default();
    let (mut setups, mut trains) = (Vec::new(), Vec::new());
    for i in 0..spec.segments {
        let begun = Instant::now();
        let (train, test) = generate(
            &spec_by_name(spec.dataset).expect("registry dataset"),
            segment_seed(seed, i),
        );
        let fit = Instant::now();
        let model = RpmClassifier::train(&train, &config);
        let first_fit = fit.elapsed().as_secs_f64();
        let prepared = begun.elapsed();
        let model = match model {
            Ok(m) => Arc::new(m),
            Err(e) => {
                out.check(Err(format!("segment {i}: training failed: {e}")));
                continue;
            }
        };
        let refit = || {
            let begun = Instant::now();
            RpmClassifier::train(&train, &config)
                .map(|_| begun.elapsed().as_secs_f64())
                .map_err(|e| format!("segment {i}: retraining failed: {e}"))
        };
        let bodies = bodies(&model, &test, spec.per_request);
        let (started, mut fits) = segment(
            model,
            &bodies,
            spec,
            seconds / spec.segments as f64,
            Some(&refit),
            trace,
            &mut totals,
            out,
        );
        fits.push(first_fit);
        trains.push(min(&fits));
        setups.push((prepared + started).as_secs_f64());
    }
    out.set("setup_s", median(&setups));
    // The segments' models differ in cost, so their fits average.
    out.set("train_s", mean(&trains));
    finish(&totals, trace, out);
}

/// Serves an already trained model for `seconds` (the deploy step of
/// `train_search`).
pub fn deploy(model: RpmClassifier, test: &Dataset, spec: &Spec, seconds: f64, out: &mut Run) {
    let model = Arc::new(model);
    let bodies = bodies(&model, test, spec.per_request);
    let mut totals = Totals::default();
    segment(model, &bodies, spec, seconds, None, false, &mut totals, out);
    finish(&totals, false, out);
}

/// Request bodies cycling through the test set `per_request` series at
/// a time, until the cycle closes, each with its in-process labels.
fn bodies(model: &RpmClassifier, test: &Dataset, per_request: usize) -> Vec<Body> {
    let n = test.len();
    let count = n / gcd(n, per_request);
    (0..count)
        .map(|k| {
            let series: Vec<&Vec<f64>> = (0..per_request)
                .map(|j| &test.series[(k * per_request + j) % n])
                .collect();
            let mut text = String::new();
            for s in &series {
                let values: Vec<String> = s.iter().map(|v| v.to_string()).collect();
                text.push('[');
                text.push_str(&values.join(","));
                text.push_str("]\n");
            }
            let expected = model.predict_batch(&series);
            Body { text, expected }
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Starts a server for `model` and warms it up, then runs rounds for
/// `OPEN_SHARE` of `seconds`, a closed loop for the rest, and (traced)
/// the layer probes. A round refits the model when `refit` is given,
/// then runs an open loop for `ROUND_OPEN`, so the fit and latency
/// figures are sampled all through the segment. Returns the start-up
/// and warm-up time and the refit times.
#[allow(clippy::too_many_arguments)]
fn segment(
    model: Arc<RpmClassifier>,
    bodies: &[Body],
    spec: &Spec,
    seconds: f64,
    refit: Option<Refit>,
    trace: bool,
    totals: &mut Totals,
    out: &mut Run,
) -> (Duration, Vec<f64>) {
    let begun = Instant::now();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let mut server = match Server::start(Arc::clone(&model), &config) {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(format!("server did not start: {e:?}")));
            return (begun.elapsed(), Vec::new());
        }
    };
    let addr = server.local_addr();
    for body in bodies.iter().cycle().take(WARMUP) {
        out.tally.record(client::classify(addr, body).map(|_| ()));
    }
    let started = begun.elapsed();

    let threads = nproc();
    let end = Instant::now() + Duration::from_secs_f64(seconds * OPEN_SHARE);
    let mut fits = Vec::new();
    // Open-loop latencies of the segment's rounds, in due order.
    let mut sequence = Vec::new();
    loop {
        if let Some(refit) = refit {
            let begun = Instant::now();
            while begun.elapsed() < ROUND_FIT {
                match refit() {
                    Ok(s) => {
                        fits.push(s);
                        out.check(Ok(()));
                    }
                    Err(what) => out.check(Err(what)),
                }
            }
        }
        let before = scrape(addr, out);
        let open = client::open_loop(addr, spec.rate, ROUND_OPEN, threads, bodies);
        let after = scrape(addr, out);
        totals.served.add(&after.delta(&before));
        let mut due_order = open.latency_ms.clone();
        due_order.sort_by_key(|&(k, _)| k);
        sequence.extend(due_order.into_iter().map(|(_, ms)| ms));
        totals.open.merge(open);
        if Instant::now() >= end {
            break;
        }
    }
    totals.best_p50.push(best_window(&sequence, STRETCH, 0.50));
    totals.best_p90.push(best_window(&sequence, STRETCH, 0.90));
    let closed = client::closed_loop(
        addr,
        Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE)),
        threads,
        bodies,
    );
    out.tally.merge(&closed.tally);
    totals.closed_series += closed.series;
    totals.closed_s += closed.seconds;
    totals.best_per_s.push(best_rate(&closed.done, STRETCH));

    if trace {
        let begun = Instant::now();
        probe_layers(addr, &model, bodies, totals, out);
        totals.extra += begun.elapsed();
    }
    server.shutdown();
    (started, fits)
}

fn scrape(addr: SocketAddr, out: &mut Run) -> Scrape {
    match client::get(addr, "/metrics") {
        Ok((200, text)) => {
            out.tally.record(Ok(()));
            Scrape::parse(&text)
        }
        Ok(_) => {
            out.tally.record(Err(Cause::HttpOther));
            Scrape::default()
        }
        Err(cause) => {
            out.tally.record(Err(cause));
            Scrape::default()
        }
    }
}

/// Times what a request costs outside the batch queue: an HTTP round
/// trip that does no classify work, and the parse and predict calls the
/// server makes for each body, run in-process.
fn probe_layers(
    addr: SocketAddr,
    model: &RpmClassifier,
    bodies: &[Body],
    totals: &mut Totals,
    out: &mut Run,
) {
    for _ in 0..NULL_PROBES {
        let begun = Instant::now();
        let result = client::get(addr, "/perfbench/null");
        let elapsed = begun.elapsed();
        out.tally.record(match result {
            Ok((404, _)) => {
                totals.null_ms.push(elapsed.as_secs_f64() * 1e3);
                Ok(())
            }
            Ok(_) => Err(Cause::HttpOther),
            Err(cause) => Err(cause),
        });
    }
    for _ in 0..REPLAY_ROUNDS {
        for body in bodies {
            let begun = Instant::now();
            let parsed = rpm_serve::proto::parse_body(body.text.as_bytes());
            totals.parse_ms.push(begun.elapsed().as_secs_f64() * 1e3);
            let series: Vec<Vec<f64>> = match parsed {
                Ok(requests) => requests.into_iter().map(|r| r.values).collect(),
                Err(e) => return out.check(Err(format!("in-process parse failed: {e}"))),
            };
            let begun = Instant::now();
            let predicted =
                model.predict_batch_observed(&series, Parallelism::Serial, Some(&totals.counters));
            totals.predict_ms.push(begun.elapsed().as_secs_f64() * 1e3);
            let labels: Option<Vec<usize>> = predicted
                .ok()
                .map(|p| p.into_iter().map(|(l, _)| l).collect());
            out.check(if labels.as_deref() == Some(&body.expected[..]) {
                Ok(())
            } else {
                Err("in-process predict_batch_observed disagrees with predict_batch".to_string())
            });
        }
    }
}

fn finish(totals: &Totals, trace: bool, out: &mut Run) {
    let open = &totals.open;
    out.tally.merge(&open.tally);
    // A shared host's speed can swing by up to 1.8x for seconds at a
    // time (seen on a 2-vCPU VM), so a figure over the whole run would
    // mostly measure how long the host ran slowed down. The best stretch of consecutive requests measures
    // the program nearest the host's full speed, and a slower program
    // slows every stretch.
    let p50 = min(&totals.best_p50);
    let p90 = min(&totals.best_p90);
    let pooled: Vec<f64> = open.latency_ms.iter().map(|&(_, v)| v).collect();
    let p99 = percentile(&pooled, 0.99);
    let late_p99 = percentile(&open.late_ms, 0.99);
    let per_s = max(&totals.best_per_s);
    out.set("classify_p50_ms", p50);
    out.set("classify_p90_ms", p90);
    out.set("classify_series_per_s", per_s);

    let served = &totals.served;
    let fill = served.hist_mean("rpm_serve_batch_fill");
    out.set("serve.batch.fill", fill);
    out.set(
        "serve.batch.queue_wait_ms",
        served.hist_mean("rpm_serve_queue_wait_ns") / 1e6,
    );
    out.set(
        "serve.request.server_ms",
        served.hist_mean("rpm_serve_latency_ns") / 1e6,
    );
    out.set("obs.http.connect_ms", median(&open.connect_ms));
    out.set("loadgen.late_p99_ms", late_p99);
    out.set("loadgen.p99_ms", p99);
    println!(
        "open loop: attempted={} ok={} p50={p50:.3} ms p90={p90:.3} ms (best stretch of \
         {STRETCH} requests); pooled p50={:.3} ms p90={:.3} ms p99={p99:.3} ms \
         late_p99={late_p99:.3} ms; failures: {}",
        open.tally.attempted,
        pooled.len(),
        percentile(&pooled, 0.50),
        percentile(&pooled, 0.90),
        open.tally.render()
    );
    println!(
        "closed loop: {per_s:.1} series/s (best stretch of {STRETCH} requests); \
         overall {} series in {:.3} s = {:.1} series/s",
        totals.closed_series,
        totals.closed_s,
        totals.closed_series as f64 / totals.closed_s.max(1e-9)
    );
    println!(
        "served (open loop, /metrics): requests={} batches={} fill={fill:.3} \
         match_windows={} pruned_first_last={} pruned_envelope={}",
        served.get("rpm_serve_requests_total"),
        served.get("rpm_serve_batches_total"),
        served.get("rpm_match_windows_total"),
        served.get("rpm_match_pruned_first_last_total"),
        served.get("rpm_match_pruned_envelope_total"),
    );

    if trace {
        out.set("obs.http.null_request_ms", median(&totals.null_ms));
        out.set("serve.proto.parse_ms", median(&totals.parse_ms));
        out.set("core.model.predict_ms", median(&totals.predict_ms));
        out.set_scan(&totals.counters.snapshot());
        out.set("trace.extra_s", totals.extra.as_secs_f64());
        println!(
            "trace: the layer probes ran after each segment's timed phases, so the figures \
             above are measured as in an untraced run; the probes added {:.3} s",
            totals.extra.as_secs_f64()
        );
    }
}
