//! Live-socket chaos gate for the scoring server.
//!
//! Starts a real `microbrowse-server` on an ephemeral port and hammers it
//! with a mixed population of clients:
//!
//! * **well-behaved** — keep-alive scoring clients at ~4× worker capacity,
//!   half raw (`Client` + `X-Mb-Deadline-Ms`), half through the
//!   [`ResilientClient`] retry/breaker tier;
//! * **slowloris** — one byte of request every few tens of milliseconds,
//!   which only the wall-clock read cap can stop;
//! * **malicious** — seeded rotation of partial-write-then-reset, half
//!   close, random byte faults ([`FaultPlan::random`]), and connect-then
//!   -idle, all over real TCP via [`FaultyStream`].
//!
//! The run is a **gate**: it exits nonzero unless, across baseline → chaos
//! → recovery,
//!
//! 1. no thread panics (a process-wide panic hook counts them);
//! 2. every parsed response carries an expected status — no cross-request
//!    desync, no garbage frames (exactly-once responses);
//! 3. the server keeps serving 200s *during* chaos;
//! 4. the p99 of non-shed (200) responses under chaos stays within
//!    `p99-factor`× the unloaded p99;
//! 5. after chaos ends, throughput recovers to ≥ half of baseline and p99
//!    recovers within `p99-factor`× — i.e. no worker was left pinned.
//!
//! It then runs the shed-under-overload experiment twice on fresh servers —
//! shedding OFF (no deadlines, patient queue) vs ON (tight budgets, queue
//! reaper) — under identical pure overload, recording how shedding bounds
//! every caller's time-to-outcome. Everything lands in
//! `results/BENCH_chaos.json`.
//!
//! Every well-behaved request is tagged with an `X-Mb-Trace-Id`, and the
//! tallies keep the **echoed** trace-id sets for successes and sheds (the
//! echo is authoritative: accept-thread rejects mint their own id before
//! the request is ever parsed). That adds a sixth gate invariant: in the
//! shedding-ON run, 100% of shed (503/504) responses must be retrievable
//! from `GET /debug/trace` by their echoed trace id — the flight recorder
//! may not lose an anomaly under the very overload it exists to explain.
//! `results/BENCH_chaos.json` records each set's distinct count and its
//! first [`TRACE_SAMPLES`] ids (sorted) as samples for post-hoc joins
//! against `/debug/trace` dumps and trace JSONL; the gates read the full
//! in-memory sets.
//!
//! Usage: `chaos_serve [--seed 42] [--workers 2] [--baseline-requests 1500]
//! [--chaos-secs 3] [--shed-secs 2] [--p99-factor 3]
//! [--out results/BENCH_chaos.json]`

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use microbrowse_api::debug::DebugTraceResponse;
use microbrowse_bench::Args;
use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
use microbrowse_faultinject::{FaultPlan, FaultyStream, SocketFault};
use microbrowse_obs::trace::parse_trace_id;
use microbrowse_server::client::{Client, HttpResponse, ResilientClient, RetryPolicy};
use microbrowse_server::{start, BundleSource, ServerConfig, ServerHandle};
use microbrowse_store::{FeatureKey, StatsDb};

fn bundle() -> Arc<ServingBundle> {
    let terms: Vec<String> = (0..400).map(|i| format!("term{i}")).collect();
    let vocab: Vec<OwnedTermFeat> = terms
        .iter()
        .map(|t| OwnedTermFeat::Term(t.clone()))
        .collect();
    let weights: Vec<f64> = (0..vocab.len())
        .map(|i| ((i % 13) as f64 - 6.0) / 10.0)
        .collect();
    let model = DeployedModel {
        spec: ModelSpec::m1(),
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(weights, 0.05)),
        vocab,
    };
    let mut stats = StatsDb::new();
    for (i, t) in terms.iter().enumerate() {
        stats.record(FeatureKey::term(t), i % 3 == 0);
    }
    Arc::new(ServingBundle::from_parts(model, stats, Fidelity::Full).expect("bundle compiles"))
}

fn score_body(i: usize) -> String {
    format!(
        "{{\"r\":\"term{} cheap flights|book term{} now|save 20%\",\
         \"s\":\"term{} flights|standard fare|fees may apply\"}}",
        i % 400,
        (i * 7) % 400,
        (i * 13) % 400
    )
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Local SplitMix64 so the chaos schedule reproduces from `--seed` alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Statuses the server is allowed to answer a scoring client with. Anything
/// else (or a frame that parses to garbage) is a protocol violation —
/// evidence of cross-request desync.
fn expected_status(status: u16) -> bool {
    matches!(status, 200 | 400 | 408 | 413 | 503 | 504)
}

/// Tally from one client population. The `*_traces` sets hold the trace
/// ids the server **echoed** back (`X-Mb-Trace-Id`), which is the id the
/// flight recorder and access log filed the request under.
#[derive(Default, Clone)]
struct Tally {
    calls: u64,
    ok: u64,
    shed_503: u64,
    shed_504: u64,
    err_4xx: u64,
    io_errors: u64,
    violations: u64,
    ok_latencies_us: Vec<u64>,
    ok_traces: Vec<u128>,
    shed_traces: Vec<u128>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ok += other.ok;
        self.shed_503 += other.shed_503;
        self.shed_504 += other.shed_504;
        self.err_4xx += other.err_4xx;
        self.io_errors += other.io_errors;
        self.violations += other.violations;
        self.ok_latencies_us.extend(other.ok_latencies_us);
        self.ok_traces.extend(other.ok_traces);
        self.shed_traces.extend(other.shed_traces);
    }

    fn record_response(&mut self, status: u16, us: u64, trace: Option<u128>) {
        self.calls += 1;
        match status {
            200 => {
                self.ok += 1;
                self.ok_latencies_us.push(us);
                self.ok_traces.extend(trace);
            }
            503 => {
                self.shed_503 += 1;
                self.shed_traces.extend(trace);
            }
            504 => {
                self.shed_504 += 1;
                self.shed_traces.extend(trace);
            }
            s if expected_status(s) => self.err_4xx += 1,
            _ => self.violations += 1,
        }
    }

    fn record_io_error(&mut self, e: &std::io::Error) {
        self.calls += 1;
        // A desync shows up as an unparseable frame (InvalidData that is
        // not simply the peer closing between responses).
        let msg = e.to_string();
        if e.kind() == std::io::ErrorKind::InvalidData && !msg.contains("closed mid-response") {
            self.violations += 1;
        } else {
            self.io_errors += 1;
        }
    }

    fn p99_ok(&mut self) -> u64 {
        self.ok_latencies_us.sort_unstable();
        quantile(&self.ok_latencies_us, 0.99)
    }
}

/// The trace id the server filed this response under, from the echoed
/// `X-Mb-Trace-Id` header every response carries.
fn echoed_trace(resp: &HttpResponse) -> Option<u128> {
    resp.header("x-mb-trace-id").and_then(parse_trace_id)
}

/// A deterministic per-request trace id: unique across the run, cheap to
/// regenerate offline from `(client, i)` for joins.
fn tag(client: usize, i: usize) -> String {
    format!("{:032x}", ((client as u128 + 1) << 64) | i as u128)
}

/// Run `threads` well-behaved keep-alive clients flat out until `stop`,
/// half raw (+deadline header), half through the resilient tier.
fn good_clients(
    addr: SocketAddr,
    threads: usize,
    deadline_ms: Option<u64>,
    stop: Arc<AtomicBool>,
) -> Tally {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                if t % 2 == 0 {
                    raw_good_client(addr, t, deadline_ms, &stop, &mut tally);
                } else {
                    resilient_good_client(addr, t, deadline_ms, &stop, &mut tally);
                }
                tally
            })
        })
        .collect();
    let mut total = Tally::default();
    for h in handles {
        match h.join() {
            Ok(t) => total.absorb(t),
            Err(_) => total.violations += 1, // a panicking client thread is itself a failure
        }
    }
    total
}

fn raw_good_client(
    addr: SocketAddr,
    id: usize,
    deadline_ms: Option<u64>,
    stop: &AtomicBool,
    tally: &mut Tally,
) {
    let mut conn: Option<Client> = None;
    let mut i = id * 1000;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Client::connect_with_timeout(addr, Duration::from_secs(2)) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let mut headers: Vec<(&str, String)> = vec![("x-mb-trace-id", tag(id, i))];
        if let Some(ms) = deadline_ms {
            headers.push(("x-mb-deadline-ms", ms.to_string()));
        }
        let t0 = Instant::now();
        match c.request_with_headers("POST", "/v1/score", &headers, Some(&score_body(i))) {
            Ok(resp) => {
                let trace = echoed_trace(&resp);
                tally.record_response(resp.status, t0.elapsed().as_micros() as u64, trace);
                if resp.header("connection").is_some_and(|v| v == "close") {
                    conn = None;
                }
            }
            Err(e) => {
                tally.record_io_error(&e);
                conn = None;
            }
        }
    }
}

fn resilient_good_client(
    addr: SocketAddr,
    id: usize,
    deadline_ms: Option<u64>,
    stop: &AtomicBool,
    tally: &mut Tally,
) {
    let mut rc = ResilientClient::new(addr).with_policy(RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        treat_posts_idempotent: true, // scoring is read-only
    });
    let budget = Duration::from_millis(deadline_ms.unwrap_or(2000));
    let mut i = id * 1000;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        let t0 = Instant::now();
        match rc.call("POST", "/v1/score", Some(&score_body(i)), budget) {
            Ok(resp) => {
                // The resilient tier mints and propagates the trace id
                // itself; all attempts of this call shared it.
                let trace = Some(rc.last_trace_id()).filter(|t| *t != 0);
                tally.record_response(resp.status, t0.elapsed().as_micros() as u64, trace);
            }
            Err(_) => {
                // Breaker-open and budget-exhausted are correct overload
                // behavior, not server failures.
                tally.calls += 1;
                tally.io_errors += 1;
            }
        }
        if deadline_ms.is_some() {
            // Let a tripped breaker cool down instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Slowloris: dribble a request one byte at a time until the server's
/// wall-clock cap cuts the connection with a 408.
fn slowloris_clients(addr: SocketAddr, threads: usize, stop: Arc<AtomicBool>) -> u64 {
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut attempts = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    attempts += 1;
                    let Ok(stream) = TcpStream::connect(addr) else {
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    };
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(3)));
                    let mut s = FaultyStream::new(stream).with(SocketFault::TrickleWrites {
                        max: 1,
                        delay: Duration::from_millis(30),
                    });
                    let body = score_body(attempts as usize);
                    let req = format!(
                        "POST /v1/score HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    // Either the trickle finishes (unlikely) or the server
                    // cuts us off; both are fine — the point is pressure.
                    let _ = s.write_all(req.as_bytes());
                    let mut reply = [0u8; 128];
                    let _ = s.read(&mut reply);
                }
                attempts
            })
        })
        .collect();
    handles.into_iter().filter_map(|h| h.join().ok()).sum()
}

/// Malicious clients: a seeded rotation of connection abuse.
fn malicious_clients(addr: SocketAddr, threads: usize, seed: u64, stop: Arc<AtomicBool>) -> u64 {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = Rng(seed ^ ((t as u64 + 1) << 32));
                let mut attempts = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    attempts += 1;
                    let Ok(stream) = TcpStream::connect(addr) else {
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    };
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(800)));
                    let body = score_body(attempts as usize);
                    let req = format!(
                        "POST /v1/score HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    match rng.next() % 4 {
                        0 => {
                            // Vanish mid-request.
                            let cut = (rng.next() as usize % req.len().max(1)).max(1);
                            let mut s = FaultyStream::new(stream)
                                .with(SocketFault::PartialWriteThenReset { after: cut });
                            let _ = s.write_all(req.as_bytes());
                        }
                        1 => {
                            // Half-close mid-request, then read whatever
                            // the server has to say about it.
                            let cut = (rng.next() as usize % req.len().max(1)).max(1);
                            let mut s = FaultyStream::new(stream)
                                .with(SocketFault::HalfCloseAfter { after: cut });
                            let _ = s.write_all(req.as_bytes());
                            let mut reply = [0u8; 128];
                            let _ = s.read(&mut reply);
                        }
                        2 => {
                            // Byte-level damage to the request stream.
                            let plan = FaultPlan::random(rng.next(), req.len());
                            let mut s = FaultyStream::new(stream).with_plan(plan);
                            let _ = s.write_all(req.as_bytes());
                            let mut reply = [0u8; 256];
                            let _ = s.read(&mut reply);
                        }
                        _ => {
                            // Connect and go silent: reaper/timeout food.
                            std::thread::sleep(Duration::from_millis(100 + (rng.next() % 500)));
                            drop(stream);
                        }
                    }
                }
                attempts
            })
        })
        .collect();
    handles.into_iter().filter_map(|h| h.join().ok()).sum()
}

/// A timed, fixed-count phase of well-behaved traffic (baseline/recovery).
fn measured_phase(addr: SocketAddr, threads: usize, requests: u64) -> (Tally, f64) {
    let stop = Arc::new(AtomicBool::new(false));
    let counter = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                let mut conn: Option<Client> = None;
                let mut i = t * 1000;
                while counter.fetch_add(1, Ordering::Relaxed) < requests
                    && !stop.load(Ordering::Relaxed)
                {
                    i += 1;
                    let c = match conn.as_mut() {
                        Some(c) => c,
                        None => match Client::connect_with_timeout(addr, Duration::from_secs(2)) {
                            Ok(c) => conn.insert(c),
                            Err(_) => {
                                std::thread::sleep(Duration::from_millis(5));
                                continue;
                            }
                        },
                    };
                    let t0 = Instant::now();
                    match c.post("/v1/score", &score_body(i)) {
                        Ok(resp) => tally.record_response(
                            resp.status,
                            t0.elapsed().as_micros() as u64,
                            None,
                        ),
                        Err(e) => {
                            tally.record_io_error(&e);
                            conn = None;
                        }
                    }
                }
                tally
            })
        })
        .collect();
    let mut total = Tally::default();
    for h in handles {
        match h.join() {
            Ok(t) => total.absorb(t),
            Err(_) => total.violations += 1,
        }
    }
    (total, started.elapsed().as_secs_f64())
}

/// How many distinct traces the shed-run flight recorder may retain. The
/// post-shed client backoff bounds shed volume well under this, so the
/// "100% of sheds retrievable" join below is exact, not best-effort.
const SHED_FLIGHT_RETAINED: usize = 16384;

/// Result of joining the shed trace-id set against `GET /debug/trace`.
struct DebugJoin {
    /// Distinct shed (503/504) trace ids the clients observed.
    shed_distinct: usize,
    /// Shed trace ids retrievable from the flight recorder.
    retrieved: usize,
    /// Observed shed ids the recorder lost (gate requires 0).
    missing: usize,
}

/// Pull `/debug/trace` and count how many of the client-observed shed
/// trace ids the flight recorder can still produce, with their per-stage
/// breakdown (the strict [`DebugTraceResponse`] parse guarantees shape).
fn join_debug_trace(addr: SocketAddr, shed_traces: &[u128]) -> DebugJoin {
    let shed: HashSet<u128> = shed_traces.iter().copied().collect();
    let mut retrieved: HashSet<u128> = HashSet::new();
    for _ in 0..50 {
        let resp = Client::connect_with_timeout(addr, Duration::from_secs(2))
            .ok()
            .and_then(|mut c| {
                c.get(&format!("/debug/trace?last={SHED_FLIGHT_RETAINED}"))
                    .ok()
            })
            .filter(|r| r.status == 200);
        if let Some(resp) = resp {
            let parsed = DebugTraceResponse::from_json(&resp.body_str())
                .expect("/debug/trace parses through the strict api reader");
            retrieved = parsed
                .traces
                .iter()
                .filter(|t| matches!(t.status, 503 | 504))
                .filter_map(|t| parse_trace_id(&t.trace_id))
                .collect();
            break;
        }
        // The server may still be rejecting while the queue drains.
        std::thread::sleep(Duration::from_millis(20));
    }
    DebugJoin {
        shed_distinct: shed.len(),
        retrieved: shed.iter().filter(|t| retrieved.contains(t)).count(),
        missing: shed.iter().filter(|t| !retrieved.contains(t)).count(),
    }
}

/// One shed-under-overload run: pure 4× overload of well-behaved clients,
/// measuring every caller's **time to outcome** (success, typed shed, or
/// error). With shedding off, queued callers starve until client timeouts;
/// with shedding on, every outcome arrives bounded. When `shed_on`, the
/// observed shed trace ids are joined against `/debug/trace` before the
/// server shuts down.
fn shed_run(shed_on: bool, workers: usize, secs: u64) -> (Tally, u64, f64, Option<DebugJoin>) {
    let cfg = ServerConfig {
        workers,
        queue_depth: 16,
        queue_timeout: if shed_on {
            Duration::from_millis(500)
        } else {
            Duration::from_secs(600)
        },
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        flight_retained: SHED_FLIGHT_RETAINED,
        ..ServerConfig::default()
    };
    let handle = start(cfg, BundleSource::Static(bundle())).expect("start shed server");
    let addr = handle.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let deadline_ms = shed_on.then_some(250);
    let stopper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(secs));
            stop.store(true, Ordering::Relaxed);
        })
    };
    // Time-to-outcome for EVERY call: track max over all calls, not just
    // the 200s (starvation hides from success-only percentiles).
    let max_outcome = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..workers * 4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let max_outcome = Arc::clone(&max_outcome);
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                let mut conn: Option<Client> = None;
                let mut i = t * 1000;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let t0 = Instant::now();
                    let c = match conn.as_mut() {
                        Some(c) => c,
                        None => match Client::connect_with_timeout(addr, Duration::from_secs(2)) {
                            Ok(c) => conn.insert(c),
                            Err(_) => {
                                std::thread::sleep(Duration::from_millis(5));
                                continue;
                            }
                        },
                    };
                    let mut headers: Vec<(&str, String)> = vec![("x-mb-trace-id", tag(t, i))];
                    if let Some(ms) = deadline_ms {
                        headers.push(("x-mb-deadline-ms", ms.to_string()));
                    }
                    let outcome =
                        c.request_with_headers("POST", "/v1/score", &headers, Some(&score_body(i)));
                    let us = t0.elapsed().as_micros() as u64;
                    max_outcome.fetch_max(us, Ordering::Relaxed);
                    match outcome {
                        Ok(resp) => {
                            let shed = matches!(resp.status, 503 | 504);
                            tally.record_response(resp.status, us, echoed_trace(&resp));
                            if shed {
                                // Back off after a shed: keeps the server
                                // saturated (4× clients per worker) while
                                // bounding distinct sheds well under
                                // SHED_FLIGHT_RETAINED for an exact join.
                                std::thread::sleep(Duration::from_millis(2));
                            }
                        }
                        Err(e) => {
                            tally.record_io_error(&e);
                            conn = None;
                        }
                    }
                }
                tally
            })
        })
        .collect();
    let started = Instant::now();
    let mut total = Tally::default();
    for h in handles {
        match h.join() {
            Ok(t) => total.absorb(t),
            Err(_) => total.violations += 1,
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(secs as f64);
    stopper.join().expect("stopper");
    let join = shed_on.then(|| join_debug_trace(addr, &total.shed_traces));
    handle.shutdown();
    (total, max_outcome.load(Ordering::Relaxed), elapsed, join)
}

/// Trace ids per set that `BENCH_chaos.json` keeps as samples.
const TRACE_SAMPLES: usize = 8;

/// The distinct count of `ids` and its first `cap` distinct ids (sorted,
/// in wire form) as a JSON array — samples, so `BENCH_chaos.json` stays
/// small however many requests the run made.
fn trace_set_json(ids: &[u128], cap: usize) -> (usize, String) {
    let set: HashSet<u128> = ids.iter().copied().collect();
    let mut sorted: Vec<u128> = set.into_iter().collect();
    sorted.sort_unstable();
    let distinct = sorted.len();
    sorted.truncate(cap);
    let body = sorted
        .iter()
        .map(|t| format!("\"{t:032x}\""))
        .collect::<Vec<_>>()
        .join(", ");
    (distinct, format!("[{body}]"))
}

fn tally_json(t: &mut Tally, elapsed_s: f64) -> String {
    let p50 = {
        t.ok_latencies_us.sort_unstable();
        quantile(&t.ok_latencies_us, 0.50)
    };
    let p99 = t.p99_ok();
    format!(
        "{{\"calls\": {}, \"ok\": {}, \"shed_503\": {}, \"shed_504\": {}, \"err_4xx\": {}, \"io_errors\": {}, \"violations\": {}, \"elapsed_s\": {:.2}, \"ok_rps\": {:.1}, \"ok_p50_us\": {p50}, \"ok_p99_us\": {p99}}}",
        t.calls,
        t.ok,
        t.shed_503,
        t.shed_504,
        t.err_4xx,
        t.io_errors,
        t.violations,
        elapsed_s,
        t.ok as f64 / elapsed_s.max(0.001),
    )
}

fn main() {
    let args = Args::parse();
    let seed: u64 = args.get("seed", 42);
    let workers: usize = args.get("workers", 2);
    let baseline_requests: u64 = args.get("baseline-requests", 1500);
    let chaos_secs: u64 = args.get("chaos-secs", 3);
    let shed_secs: u64 = args.get("shed-secs", 2);
    let p99_factor: u64 = args.get("p99-factor", 3);
    let out_path: String = args.get("out", "results/BENCH_chaos.json".to_string());

    // Gate invariant 1: no panics anywhere in the process. The hook
    // chains to the default so stacks still print.
    static PANICS: AtomicU64 = AtomicU64::new(0);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));

    let cfg = ServerConfig {
        workers,
        queue_depth: 32,
        max_conns: 128,
        queue_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let mut limits_cfg = cfg;
    limits_cfg.limits.max_request_wall = Duration::from_millis(700);
    let handle: ServerHandle =
        start(limits_cfg, BundleSource::Static(bundle())).expect("start server");
    let addr = handle.addr();

    eprintln!("chaos_serve: baseline ({baseline_requests} requests)…");
    let (mut baseline, baseline_s) = measured_phase(addr, workers, baseline_requests);
    let baseline_p99 = baseline.p99_ok().max(1000); // 1ms floor against timer noise
    let baseline_rps = baseline.ok as f64 / baseline_s.max(0.001);

    eprintln!("chaos_serve: chaos for {chaos_secs}s (seed {seed})…");
    let stop = Arc::new(AtomicBool::new(false));
    let good = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || good_clients(addr, workers * 4, Some(250), stop))
    };
    let slow = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || slowloris_clients(addr, 2, stop))
    };
    let bad = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || malicious_clients(addr, 2, seed, stop))
    };
    std::thread::sleep(Duration::from_secs(chaos_secs));
    stop.store(true, Ordering::Relaxed);
    let mut chaos = good.join().expect("good clients");
    let slow_attempts = slow.join().expect("slowloris clients");
    let bad_attempts = bad.join().expect("malicious clients");
    let chaos_p99 = chaos.p99_ok();

    eprintln!("chaos_serve: recovery ({baseline_requests} requests)…");
    let (mut recovery, recovery_s) = measured_phase(addr, workers, baseline_requests);
    let recovery_p99 = recovery.p99_ok();
    let recovery_rps = recovery.ok as f64 / recovery_s.max(0.001);
    let report = handle.shutdown();

    eprintln!("chaos_serve: shed-under-overload, shedding OFF ({shed_secs}s)…");
    let (mut shed_off, off_max_us, off_s, _) = shed_run(false, workers, shed_secs);
    eprintln!("chaos_serve: shed-under-overload, shedding ON ({shed_secs}s)…");
    let (mut shed_on, on_max_us, on_s, on_join) = shed_run(true, workers, shed_secs);
    let on_join = on_join.unwrap_or(DebugJoin {
        shed_distinct: 0,
        retrieved: 0,
        missing: 0,
    });

    // ---- Gate verdicts -------------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    let panics = PANICS.load(Ordering::SeqCst);
    if panics != 0 {
        failures.push(format!("{panics} panic(s) during the run"));
    }
    let violations = baseline.violations + chaos.violations + recovery.violations;
    if violations != 0 {
        failures.push(format!(
            "{violations} protocol violation(s): desynced or garbage response frames"
        ));
    }
    if chaos.ok == 0 {
        failures.push("server served zero 200s during chaos".to_string());
    }
    if chaos_p99 > baseline_p99 * p99_factor {
        failures.push(format!(
            "chaos p99 of non-shed requests {chaos_p99}us > {p99_factor}x baseline {baseline_p99}us"
        ));
    }
    if recovery_rps < baseline_rps * 0.5 {
        failures.push(format!(
            "post-chaos throughput {recovery_rps:.0} rps < 50% of baseline {baseline_rps:.0} rps \
             (worker left pinned?)"
        ));
    }
    if recovery_p99 > baseline_p99 * p99_factor {
        failures.push(format!(
            "post-chaos p99 {recovery_p99}us > {p99_factor}x baseline {baseline_p99}us"
        ));
    }
    if on_max_us > 1_500_000 {
        failures.push(format!(
            "with shedding ON, worst time-to-outcome {on_max_us}us exceeds 1.5s"
        ));
    }
    if on_join.shed_distinct == 0 {
        failures.push("shedding ON produced no trace-tagged shed responses to join".to_string());
    }
    if on_join.missing != 0 {
        failures.push(format!(
            "{} of {} shed trace ids not retrievable from /debug/trace",
            on_join.missing, on_join.shed_distinct
        ));
    }

    let (chaos_ok_distinct, chaos_ok_ids) = trace_set_json(&chaos.ok_traces, TRACE_SAMPLES);
    let (chaos_shed_distinct, chaos_shed_ids) = trace_set_json(&chaos.shed_traces, TRACE_SAMPLES);
    let (on_shed_distinct, on_shed_ids) = trace_set_json(&shed_on.shed_traces, TRACE_SAMPLES);
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"workers\": {workers},\n  \"baseline\": {},\n  \"chaos\": {},\n  \"chaos_slowloris_attempts\": {slow_attempts},\n  \"chaos_malicious_attempts\": {bad_attempts},\n  \"recovery\": {},\n  \"drain\": {{\"drained\": {}, \"aborted\": {}}},\n  \"shed_overload\": {{\n    \"before\": {},\n    \"before_max_outcome_us\": {off_max_us},\n    \"after\": {},\n    \"after_max_outcome_us\": {on_max_us},\n    \"debug_trace_join\": {{\"shed_distinct\": {}, \"retrieved\": {}, \"missing\": {}}}\n  }},\n  \"trace_ids\": {{\n    \"samples_per_set\": {TRACE_SAMPLES},\n    \"chaos_ok_distinct\": {chaos_ok_distinct},\n    \"chaos_ok_samples\": {chaos_ok_ids},\n    \"chaos_shed_distinct\": {chaos_shed_distinct},\n    \"chaos_shed_samples\": {chaos_shed_ids},\n    \"shed_on_distinct\": {on_shed_distinct},\n    \"shed_on_shed_samples\": {on_shed_ids}\n  }},\n  \"panics\": {panics},\n  \"gate_failures\": [{}]\n}}\n",
        tally_json(&mut baseline, baseline_s),
        tally_json(&mut chaos, chaos_secs as f64),
        tally_json(&mut recovery, recovery_s),
        report.drained,
        report.aborted,
        tally_json(&mut shed_off, off_s),
        tally_json(&mut shed_on, on_s),
        on_join.shed_distinct,
        on_join.retrieved,
        on_join.missing,
        failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", "),
    );
    microbrowse_obs::json::assert_parses(&json);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out_path, &json).expect("write chaos json");
    println!("{json}");

    eprintln!(
        "chaos_serve: baseline {baseline_rps:.0} rps p99 {baseline_p99}us | chaos ok {} shed {} \
         p99 {chaos_p99}us | recovery {recovery_rps:.0} rps p99 {recovery_p99}us | \
         shed max-outcome before {off_max_us}us after {on_max_us}us | debug-trace join \
         {}/{} shed ids retrieved",
        chaos.ok,
        chaos.shed_503 + chaos.shed_504,
        on_join.retrieved,
        on_join.shed_distinct,
    );
    if failures.is_empty() {
        eprintln!("chaos_serve: GATE PASS");
    } else {
        for f in &failures {
            eprintln!("chaos_serve: GATE FAIL: {f}");
        }
        std::process::exit(1);
    }
}
