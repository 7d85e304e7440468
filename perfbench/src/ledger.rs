//! The traced run's per-layer ledger. Every number here comes from timing
//! calls into a layer's public functions from this file, on the
//! workload's own inputs, in this process, outside the timed window.
//! Nothing is added inside the program.

use std::hint::black_box;
use std::time::Instant;

use microbrowse_api::v1::{BatchRequest, BatchResponse, ScoreRequest, ScoreResponse};
use microbrowse_core::classifier::TrainedClassifier;
use microbrowse_core::compiled::CompiledEvidence;
use microbrowse_core::features::Featurizer;
use microbrowse_core::rewrite::{prepare_pair, RewriteEvidence};
use microbrowse_core::serve::{Fidelity, ScoreOutcome, ServingBundle};
use microbrowse_core::{MatchStrategy, RewriteExtraction, SymTableMap};
use microbrowse_ml::CoupledFeature;
use microbrowse_server::http::{Limits, RequestReader, Response};
use microbrowse_text::{Interner, Sym, Tokenizer};

use crate::client::{request_bytes, Shape};
use crate::pools::{parse_wire, Pool};
use crate::stats::median;
use crate::workloads::Name;

/// Largest share of the untraced e2e p50 by which the ledger (layer self
/// times plus `server.residual_us`) may miss it, and by which the layers
/// alone may exceed it.
pub const TOLERANCE: f64 = 0.20;

/// Requests per layer pass.
const SAMPLE_UNITS: usize = 256;
/// Repeats of each pass; the ledger keeps their median.
const REPS: usize = 5;

/// Per-layer numbers, in the order they print.
#[derive(Default)]
pub struct Layers {
    pub rows: Vec<(&'static str, f64, &'static str)>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.rows.push((name, value, unit));
    }

    /// Row by row, the smaller of two measurements of the same layers.
    pub fn min(mut self, other: &Layers) -> Layers {
        for (row, theirs) in self.rows.iter_mut().zip(&other.rows) {
            row.1 = row.1.min(theirs.1);
        }
        self
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(f64::NAN, |r| r.1)
    }
}

/// Median over [`REPS`] runs of `pass` of its time per item, in µs.
fn per_item_us(items: usize, mut pass: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64() * 1e6 / items.max(1) as f64
        })
        .collect();
    median(&runs)
}

/// A fresh bundle from the served bundle's parts: its own engine and
/// alignment cache, so ledger passes never touch the server's.
fn private_bundle(served: &ServingBundle) -> Result<ServingBundle, String> {
    ServingBundle::from_parts(
        served.model().clone(),
        served.stats().clone(),
        Fidelity::Full,
    )
    .map_err(|e| e.to_string())
}

/// Evidence that records every compiled-table lookup the extractor makes.
struct Counting<'a, 'b> {
    inner: CompiledEvidence<'a>,
    log: &'b mut Vec<(Sym, Sym)>,
}

impl RewriteEvidence for Counting<'_, '_> {
    fn candidate_score(&mut self, from: Sym, to: Sym, interner: &Interner) -> Option<f64> {
        self.log.push((from, to));
        self.inner.candidate_score(from, to, interner)
    }
}

/// Layers of the request path: HTTP framing and the v1 wire types, on the
/// workload's own requests and the replies the server would write.
fn wire_layers(layers: &mut Layers, pool: &Pool, shape: Shape) {
    let per = shape.pairs_per_request();
    let units = (pool.len() / per).min(SAMPLE_UNITS);
    let requests: Vec<Vec<u8>> = (0..units)
        .map(|u| request_bytes(pool, shape, u, false))
        .collect();
    let limits = Limits::default();
    let bodies: Vec<&str> = requests
        .iter()
        .map(|r| {
            let at = r
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .expect("request head")
                + 4;
            std::str::from_utf8(&r[at..]).expect("UTF-8 body")
        })
        .collect();
    layers.put(
        "http.parse_us",
        per_item_us(units, || {
            for r in &requests {
                let req = RequestReader::new(&r[..], limits.clone()).next_request();
                black_box(req.expect("request parses").expect("one request"));
            }
        }),
        "us",
    );
    layers.put(
        "api.decode_us",
        per_item_us(units, || {
            for body in &bodies {
                let items = match shape {
                    Shape::Batch(_) => BatchRequest::from_json(body).expect("batch decodes").items,
                    _ => vec![ScoreRequest::from_json(body).expect("score decodes")],
                };
                for item in &items {
                    black_box((parse_wire(&item.r), parse_wire(&item.s)));
                }
            }
        }),
        "us",
    );
    let reply = |u: usize| -> String {
        let result = |i: usize| {
            let outcome = ScoreOutcome {
                score: pool.expected[i],
                fidelity: Fidelity::Full,
            };
            ScoreResponse::from_outcome(&outcome, 7)
        };
        match shape {
            Shape::Batch(n) => BatchResponse {
                results: (u * n..(u + 1) * n).map(result).collect(),
                fidelity: (&Fidelity::Full).into(),
                generation: None,
                latency_us: 400,
            }
            .to_json(),
            _ => result(u).to_json(),
        }
    };
    layers.put(
        "api.encode_us",
        per_item_us(units, || {
            for u in 0..units {
                black_box(reply(u));
            }
        }),
        "us",
    );
    let replies: Vec<String> = (0..units).map(reply).collect();
    let mut out = Vec::with_capacity(64 * 1024);
    let mut runs = Vec::new();
    for _ in 0..REPS {
        let owned = replies.clone();
        let t = Instant::now();
        for body in owned {
            out.clear();
            let id =
                microbrowse_obs::trace::format_trace_id(microbrowse_obs::trace::new_trace_id());
            Response::json(200, body)
                .with_header("X-Mb-Trace-Id", id)
                .write_to(&mut out)
                .expect("write to memory");
            black_box(&out);
        }
        runs.push(t.elapsed().as_secs_f64() * 1e6 / units as f64);
    }
    layers.put("http.write_us", median(&runs), "us");
}

/// The scoring engine, whole: scratch build, warm pairs, new pairs, and
/// warm batches, each through `Scorer` on a private bundle.
fn engine_layers(
    layers: &mut Layers,
    served: &ServingBundle,
    hot: &Pool,
    miss: &Pool,
) -> Result<(), String> {
    let bundle = private_bundle(served)?;
    let scorer = bundle.scorer();
    let scratch_runs: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            black_box(scorer.scratch());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.put("serve.scratch_us", median(&scratch_runs), "us");

    let mut scratch = scorer.scratch();
    let hot_pairs: Vec<_> = (0..hot.len()).map(|i| hot.snippet_pair(i)).collect();
    for (r, s) in &hot_pairs {
        scorer.score_pair(r, s, &mut scratch);
    }
    layers.put(
        "serve.score_pair_hit_us",
        per_item_us(hot_pairs.len(), || {
            for (r, s) in &hot_pairs {
                black_box(scorer.score_pair(r, s, &mut scratch));
            }
        }),
        "us",
    );
    let batches: Vec<Vec<_>> = hot_pairs
        .chunks(crate::workloads::BATCH)
        .map(|c| {
            c.iter()
                .map(|(r, s)| ((*r).clone(), (*s).clone()))
                .collect()
        })
        .collect();
    layers.put(
        "serve.score_batch_us_per_pair",
        per_item_us(hot_pairs.len(), || {
            for b in &batches {
                black_box(scorer.score_batch(b, &mut scratch));
            }
        }),
        "us",
    );

    // New pairs: every repeat gets a fresh engine and scratch, so every
    // alignment misses and every creative is new to the scratch.
    let mut runs = Vec::new();
    for _ in 0..3 {
        let fresh = private_bundle(served)?;
        let scorer = fresh.scorer();
        let mut scratch = scorer.scratch();
        let t = Instant::now();
        for i in 0..miss.len() {
            let (r, s) = miss.snippet_pair(i);
            black_box(scorer.score_pair(r, s, &mut scratch));
        }
        runs.push(t.elapsed().as_secs_f64() * 1e6 / miss.len() as f64);
    }
    layers.put("serve.score_pair_miss_us", median(&runs), "us");
    Ok(())
}

/// One pass of the miss path over `miss`: per-item seconds of each stage,
/// and the state the lookup and classifier timings replay.
struct MissPass {
    tok: f64,
    ngram: f64,
    align: f64,
    encode: f64,
    interner: Interner,
    memo: SymTableMap,
    /// Every compiled-table lookup the extractions made.
    lookups: Vec<(Sym, Sym)>,
    /// Each pair's encoded features.
    encoded: Vec<Vec<CoupledFeature>>,
}

fn miss_pass(bundle: &ServingBundle, miss: &Pool) -> MissPass {
    let model = bundle.model();
    let tokenizer = Tokenizer::default();
    let mut interner = Interner::new();
    let mut featurizer = Featurizer::new(model.spec, bundle.stats());
    featurizer.preload_vocab(&model.vocab, &mut interner);
    let rw = featurizer.rewrite_extractor();
    let (max_len, greedy) = (
        rw.config().max_phrase_len,
        rw.config().strategy == MatchStrategy::GreedyStats,
    );
    let mut memo = SymTableMap::new();
    let mut lookups = Vec::new();
    let mut ext = RewriteExtraction::default();
    let mut encoded = Vec::with_capacity(miss.len());
    let (mut tok, mut ngram, mut align, mut encode) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..miss.len() {
        let (r, s) = miss.snippet_pair(i);
        let t0 = Instant::now();
        let tr = r.tokenize(&tokenizer, &mut interner);
        let ts = s.tokenize(&tokenizer, &mut interner);
        let t1 = Instant::now();
        let or = featurizer.term_occurrences(&tr, &mut interner);
        let os = featurizer.term_occurrences(&ts, &mut interner);
        let t2 = Instant::now();
        let prepared = prepare_pair(&tr, &ts, max_len, greedy, &mut interner);
        let mut evidence = Counting {
            inner: CompiledEvidence::new(bundle.engine().table(), &mut memo),
            log: &mut lookups,
        };
        rw.extract_prepared_into(&tr, &ts, &prepared, &mut evidence, &interner, &mut ext);
        let t3 = Instant::now();
        let occs = featurizer
            .encode_coupled_scored(&or, &os, Some(&ext), &interner)
            .to_vec();
        let t4 = Instant::now();
        tok += (t1 - t0).as_secs_f64();
        ngram += (t2 - t1).as_secs_f64();
        align += (t3 - t2).as_secs_f64();
        encode += (t4 - t3).as_secs_f64();
        encoded.push(occs);
    }
    let n = miss.len().max(1) as f64;
    MissPass {
        tok: tok / (2.0 * n),
        ngram: ngram / (2.0 * n),
        align: align / n,
        encode: encode / n,
        interner,
        memo,
        lookups,
        encoded,
    }
}

/// The engine's miss path taken apart: tokenize, n-grams, alignment (with
/// its compiled-table lookups), feature encoding, classifier. The parts
/// must reproduce every expected score bit for bit, or the ledger is not
/// measuring the path the server runs.
fn miss_path_layers(
    layers: &mut Layers,
    served: &ServingBundle,
    miss: &Pool,
) -> Result<(), String> {
    let bundle = private_bundle(served)?;
    let TrainedClassifier::Coupled(cm) = &bundle.model().classifier else {
        return Err("the ledger expects the coupled (position-aware) M6 classifier".into());
    };
    let passes: Vec<MissPass> = (0..3).map(|_| miss_pass(&bundle, miss)).collect();
    for (i, occs) in passes[0].encoded.iter().enumerate() {
        if cm.score_occs(occs).to_bits() != miss.expected[i].to_bits() {
            return Err(format!(
                "ledger miss path disagrees with the served score of pair {i}"
            ));
        }
    }
    let us =
        |f: fn(&MissPass) -> f64| median(&passes.iter().map(|p| f(p) * 1e6).collect::<Vec<_>>());
    layers.put("text.tokenize_us", us(|p| p.tok), "us");
    layers.put("features.ngram_us", us(|p| p.ngram), "us");
    layers.put("rewrite.align_us", us(|p| p.align), "us");
    layers.put("features.encode_us", us(|p| p.encode), "us");
    let MissPass {
        interner,
        mut memo,
        lookups: log,
        encoded,
        ..
    } = passes.into_iter().next().expect("three passes ran");
    let n = miss.len();
    layers.put(
        "compiled.lookups_per_pair",
        log.len() as f64 / n as f64,
        "count",
    );
    let table = bundle.engine().table();
    let lookup_us = per_item_us(log.len(), || {
        let mut evidence = CompiledEvidence::new(table, &mut memo);
        for &(a, b) in &log {
            black_box(evidence.candidate_score(a, b, &interner));
        }
    });
    layers.put(
        "compiled.lookup_ns",
        if log.is_empty() { 0.0 } else { lookup_us * 1e3 },
        "ns",
    );
    layers.put(
        "classifier.score_us",
        per_item_us(n, || {
            for occs in &encoded {
                black_box(cm.score_occs(occs));
            }
        }),
        "us",
    );
    Ok(())
}

/// Measure every layer on `name`'s inputs: `pool` is what the workload
/// sent, `hot` the warmed set, `miss` pairs new to any engine.
pub fn measure(
    served: &ServingBundle,
    name: Name,
    pool: &Pool,
    hot: &Pool,
    miss: &Pool,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    wire_layers(&mut layers, pool, name.shape());
    engine_layers(&mut layers, served, hot, miss)?;
    miss_path_layers(&mut layers, served, miss)?;
    Ok(layers)
}

/// Self time of each layer a request of `name` passes through, per
/// request, in µs. Children of the engine (tokenize, n-grams, alignment,
/// encoding, classifier) are inside the engine rows and are not added
/// again.
pub fn request_path(layers: &Layers, name: Name) -> Vec<(&'static str, f64)> {
    let g = |n| layers.get(n);
    let mut path = vec![
        ("http.parse_us", g("http.parse_us")),
        ("api.decode_us", g("api.decode_us")),
    ];
    match name {
        Name::HotScore => path.push(("serve.score_pair_hit_us", g("serve.score_pair_hit_us"))),
        Name::ColdScore => path.push(("serve.score_pair_miss_us", g("serve.score_pair_miss_us"))),
        // A new connection builds a scratch, and its empty snippet arena
        // tokenizes and extracts n-grams for both creatives before the
        // alignment-cache hit.
        Name::ConnChurn => {
            path.push(("serve.scratch_us", g("serve.scratch_us")));
            path.push(("text.tokenize_us", 2.0 * g("text.tokenize_us")));
            path.push(("features.ngram_us", 2.0 * g("features.ngram_us")));
            path.push(("serve.score_pair_hit_us", g("serve.score_pair_hit_us")));
        }
        Name::HotBatch => path.push((
            "serve.score_batch_us_per_pair",
            crate::workloads::BATCH as f64 * g("serve.score_batch_us_per_pair"),
        )),
    }
    path.push(("api.encode_us", g("api.encode_us")));
    path.push(("http.write_us", g("http.write_us")));
    path
}
