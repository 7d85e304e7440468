//! Serving ledger: closed-loop loopback workloads against the in-process
//! HTTP server serving a freshly trained M6 bundle, reported end to end
//! and, in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-score --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs every workload in turn; `--self-test` checks the
//! benchmark itself (see README.md). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. The
//! process exits non-zero when a served score is wrong, a workload breaks
//! its property, or the traced ledger does not reconcile.

mod bundle;
mod client;
mod ledger;
mod pools;
mod stats;
mod workloads;

use std::process::ExitCode;

use microbrowse_obs::json::{f64_to_json, Json};

use crate::client::Sample;
use crate::ledger::{request_path, TOLERANCE};
use crate::stats::{median, peak_rss_mb, quantile_sorted};
use crate::workloads::{cold_pool, held_out_pool, hot_pool, Name, Window, ALL, COLD_WARM};

/// Traced runs alternate this many untraced and traced slices.
const TRACE_SLICES: u32 = 30;
/// Requests per slice for the rate and p50.
const FINE_SLICE: usize = 100;
/// Requests per slice for the p99: ten beyond it.
const COARSE_SLICE: usize = 1000;
/// Pairs new to any engine that the ledger's miss-path rows time.
const MISS_PAIRS: usize = 2048;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && args.workload.is_empty() {
        return Err(
            "usage: perfbench --workload <hot-score|cold-score|conn-churn|hot-batch|all> \
                    --seed N --seconds S --trace 0|1   |   perfbench --self-test"
                .into(),
        );
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A deliberate fault, for the self-test.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// One expected score is off by one bit.
    WrongExpected,
    /// The workload is driven with `cold-score`'s pool instead of its own.
    ColdPool,
}

/// One workload's result.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

/// The repository commit, when the checkout is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_else(|_| {
            std::fs::read_to_string(".git/packed-refs")
                .unwrap_or_default()
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .unwrap_or_default()
                .to_owned()
        }),
        None => head.to_owned(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".into()
    } else {
        sha.into()
    }
}

fn latencies_us(window: &Window, traced: bool) -> Vec<f64> {
    let mut v: Vec<f64> = window
        .samples
        .iter()
        .filter(|s| s.traced == traced)
        .map(|s| s.latency_us())
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Medians over consecutive runs of requests, taken in completion order.
/// A run of outside load on the machine then moves them little: it
/// spoils a few runs, not the median.
struct Slices {
    /// Runs of [`FINE_SLICE`] requests: their rates and p50s.
    rates: Vec<f64>,
    p50s: Vec<f64>,
    /// Runs of [`COARSE_SLICE`] requests, enough for ten beyond each p99.
    p99s: Vec<f64>,
}

/// Split `samples` (sorted by completion) into runs of `n` (one run when
/// there are fewer), folding a short tail into the last run.
fn runs(samples: &[Sample], n: usize) -> Vec<&[Sample]> {
    let k = (samples.len() / n).max(1);
    (0..k)
        .map(|i| {
            &samples[i * n..if i + 1 == k {
                samples.len()
            } else {
                (i + 1) * n
            }]
        })
        .collect()
}

fn slices(window: &Window) -> Slices {
    let mut samples: Vec<Sample> = window
        .samples
        .iter()
        .copied()
        .filter(|s| !s.traced)
        .collect();
    samples.sort_by_key(|s| s.end_us);
    let sorted_latencies = |run: &[Sample]| {
        let mut v: Vec<f64> = run.iter().map(|s| s.latency_us()).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let mut out = Slices {
        rates: Vec::new(),
        p50s: Vec::new(),
        p99s: Vec::new(),
    };
    let mut since_us = 0u32;
    for run in runs(&samples, FINE_SLICE) {
        let end_us = run.last().map_or(since_us, |s| s.end_us);
        let span_s = f64::from(end_us.saturating_sub(since_us).max(1)) / 1e6;
        out.rates
            .push((run.len() * window.pairs_per_request) as f64 / span_s);
        out.p50s.push(quantile_sorted(&sorted_latencies(run), 0.50));
        since_us = end_us;
    }
    for run in runs(&samples, COARSE_SLICE) {
        out.p99s.push(quantile_sorted(&sorted_latencies(run), 0.99));
    }
    out
}

/// `q1/median/q3` of `values`, for the `#` lines.
fn quartiles(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    format!(
        "{:.1}/{:.1}/{:.1}",
        quantile_sorted(&v, 0.25),
        quantile_sorted(&v, 0.5),
        quantile_sorted(&v, 0.75)
    )
}

fn run_workload(
    name: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
    fault: Fault,
) -> Result<Outcome, String> {
    let served = bundle::serve_m6()?;
    let setup_s = median(&served.setup_s);
    let hot = hot_pool(&served, seed)?;
    let mut pool = if name.is_cold() || fault == Fault::ColdPool {
        cold_pool(&served, seed, seconds)?
    } else {
        hot.clone()
    };
    if fault == Fault::WrongExpected {
        let k = if name.is_cold() { COLD_WARM } else { 0 };
        pool.expected[k] = f64::from_bits(pool.expected[k].to_bits() ^ 1);
    }
    // The traced run times the layers once before the window and once
    // after, and keeps the faster of each: outside load on the machine
    // rarely spoils both.
    let ledger_inputs = if trace {
        let miss = held_out_pool(&served, seed ^ 0x5EED, MISS_PAIRS)?;
        let before = ledger::measure(&served.bundle, name, &pool, &hot, &miss)?;
        Some((miss, before))
    } else {
        None
    };
    let trace_slices = if trace { TRACE_SLICES } else { 0 };
    let window = workloads::run(&served, name, &pool, seconds, trace_slices)?;
    let rss = peak_rss_mb();
    let property = window.check_property();

    let untraced = latencies_us(&window, false);
    let n = untraced.len();
    let p50 = quantile_sorted(&untraced, 0.50);
    let beyond_p99 = n - ((0.99 * n as f64).ceil() as usize).min(n);
    let sl = slices(&window);
    let slice_p50 = median(&sl.p50s);
    let slice_p99 = median(&sl.p99s);
    let pairs_per_s = median(&sl.rates);
    let c = window.counters;

    let tag = name.as_str();
    println!(
        "# provenance {{\"workload\":\"{tag}\",\"commit\":\"{}\",\"nproc\":{},\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{},\"spec\":\"{}\",\"vocab\":{},\"compiled_features\":{},\"server_workers\":{},\
         \"client_connections\":{},\"setup_repeats\":{},\"latency_samples\":{n},\"samples_beyond_p99\":{beyond_p99}}}",
        commit(),
        served.workers,
        u8::from(trace),
        served.bundle.model().spec.name,
        served.bundle.model().vocab.len(),
        served.bundle.engine().table().len(),
        served.workers,
        window.clients,
        served.setup_s.len(),
    );
    if !trace {
        println!(
            "# {tag} slices (q1/median/q3): {} runs of {FINE_SLICE} requests, pairs_per_s {}, p50 {}; \
             {} runs of {COARSE_SLICE}, p99 {}; set-ups {:?} s",
            sl.rates.len(),
            quartiles(&sl.rates),
            quartiles(&sl.p50s),
            sl.p99s.len(),
            quartiles(&sl.p99s),
            served.setup_s,
        );
    }
    println!(
        "# {tag} shares: paircache.hit_ratio {} ({} hits, {} misses, {} evictions); distinct ordered pairs {}/{} = {}; \
         connections opened in window {} for {} requests",
        c.hit_ratio(),
        c.hits,
        c.misses,
        c.evictions,
        window.distinct_pairs,
        window.pairs_sent,
        window.distinct_pairs as f64 / window.pairs_sent.max(1) as f64,
        c.connections,
        window.attempted,
    );
    let error_rate = window.failed as f64 / window.attempted.max(1) as f64;
    println!(
        "# {tag} {} failed of {} attempted",
        window.failed, window.attempted
    );
    let mut correct = window.failed == 0 && window.attempted > 0;
    if let Err(breach) = &property {
        println!("# PROPERTY BROKEN {breach}");
        correct = false;
    }

    // `metrics` go into the result line; `unbounded` print beside them but
    // are not in BENCHMARK.json (README.md says why).
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut unbounded: Vec<(String, f64, &'static str)> = Vec::new();
    if !trace {
        metrics.push(("pairs_per_s".into(), pairs_per_s, "1/s"));
        metrics.push(("latency_p50_us".into(), slice_p50, "us"));
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("peak_rss_mb".into(), rss, "MiB"));
        unbounded.push(("latency_p99_us".into(), slice_p99, "us"));
        unbounded.push(("error_rate".into(), error_rate, "ratio"));
    } else if let Some((miss, before)) = ledger_inputs {
        let traced = latencies_us(&window, true);
        let traced_p50 = quantile_sorted(&traced, 0.50);
        // The server reports whole microseconds, so a median would read
        // the same in every run; the mean keeps the measured digits.
        let timings = window.timings.len().max(1) as f64;
        let server_parse = window.timings.iter().map(|t| t.0 as f64).sum::<f64>() / timings;
        let server_score = window.timings.iter().map(|t| t.1 as f64).sum::<f64>() / timings;
        let layers = ledger::measure(&served.bundle, name, &pool, &hot, &miss)?.min(&before);
        let path = request_path(&layers, name);
        let layer_sum: f64 = path.iter().map(|(_, v)| v).sum();
        let residual = traced_p50 - layer_sum;
        let overhead = (traced_p50 - p50) / p50 * 100.0;
        let coverage = layer_sum / p50 * 100.0;
        println!(
            "# {tag} ledger, µs per request (untraced e2e p50 {p50}, traced e2e p50 {traced_p50}):"
        );
        for (layer, v) in &path {
            println!("#   {layer:<32} {v:>12.3}");
        }
        println!("#   {:<32} {residual:>12.3}", "server.residual_us");
        let miss_by = (layer_sum + residual - p50).abs() / p50;
        let reconciled = miss_by <= TOLERANCE && layer_sum <= p50 * (1.0 + TOLERANCE);
        println!(
            "# {tag} reconciliation: layers + residual = {} vs untraced e2e p50 {p50} (off by {:.2}%, layers alone {:.2}%), \
             tolerance {}% -> {}",
            layer_sum + residual,
            miss_by * 100.0,
            coverage,
            TOLERANCE * 100.0,
            if reconciled { "ok" } else { "FAILED" }
        );
        correct &= reconciled;
        metrics.push(("server.residual_us".into(), residual, "us"));
        metrics.push(("server.connections".into(), c.connections as f64, "count"));
        for (layer, v, unit) in &layers.rows {
            metrics.push(((*layer).into(), *v, unit));
        }
        metrics.push(("paircache.hits".into(), c.hits as f64, "count"));
        metrics.push(("paircache.misses".into(), c.misses as f64, "count"));
        metrics.push(("paircache.hit_ratio".into(), c.hit_ratio(), "ratio"));
        metrics.push(("paircache.evictions".into(), c.evictions as f64, "count"));
        metrics.push(("trace.overhead_pct".into(), overhead, "%"));
        metrics.push(("trace.coverage_pct".into(), coverage, "%"));
        metrics.push(("trace.server_parse_us".into(), server_parse, "us"));
        metrics.push(("trace.server_score_us".into(), server_score, "us"));
    }
    for (m, v, unit) in metrics.iter().chain(&unbounded) {
        println!("{tag} {m} {v} {unit}");
    }
    served.handle.shutdown();
    Ok(Outcome {
        correct,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
    })
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v, unit)| {
            format!(
                "\"{m}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                f64_to_json(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The benchmark's own check: short runs of every workload print every
/// metric `BENCHMARK.json` names with its unit; a wrong expected score
/// trips the correctness gate; the cold pool in a hot workload trips the
/// property check.
fn self_test() -> Result<(), String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec =
        Json::parse(&spec).map_err(|at| format!("BENCHMARK.json: syntax error at byte {at}"))?;
    let named = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_owned(),
                    m.get("unit")?.as_str()?.to_owned(),
                ))
            })
            .collect()
    };
    let seconds = 0.5;
    for name in ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run_workload(name, 7, seconds, trace, Fault::None)?;
            if !out.correct {
                return Err(format!("{} (trace {trace}) was not correct", name.as_str()));
            }
            for (metric, unit) in named(key) {
                let found = out.metrics.iter().find(|(m, ..)| *m == metric);
                match found {
                    Some((_, v, u)) if *u == unit && v.is_finite() => {}
                    _ => {
                        return Err(format!(
                            "{} (trace {trace}) did not print {metric} in {unit}",
                            name.as_str()
                        ))
                    }
                }
            }
        }
    }
    let wrong = run_workload(Name::ColdScore, 7, seconds, false, Fault::WrongExpected)?;
    if wrong.correct || wrong.failed == 0 {
        return Err("a wrong expected score did not trip the correctness gate".into());
    }
    let swapped = run_workload(Name::HotScore, 7, seconds, false, Fault::ColdPool)?;
    if swapped.correct {
        return Err("driving hot-score with the cold pool did not trip the property check".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return match self_test() {
            Ok(()) => {
                println!("# self-test passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let names: Vec<Name> = if args.workload == "all" {
        ALL.to_vec()
    } else {
        match Name::parse(&args.workload) {
            Some(n) => vec![n],
            None => {
                eprintln!("unknown workload {:?}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for &name in &names {
        match run_workload(name, args.seed, args.seconds, args.trace, Fault::None) {
            Ok(out) => {
                correct &= out.correct;
                attempted += out.attempted;
                failed += out.failed;
                let prefix = if names.len() > 1 {
                    format!("{}.", name.as_str())
                } else {
                    String::new()
                };
                metrics.extend(
                    out.metrics
                        .into_iter()
                        .map(|(m, v, u)| (format!("{prefix}{m}"), v, u)),
                );
            }
            Err(e) => {
                eprintln!("{}: {e}", name.as_str());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
