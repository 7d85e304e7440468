//! Set-up: train the M6 bundle through the calls `microbrowse train`
//! makes, assemble it with `ServingBundle::from_parts`, and start the
//! in-process server on loopback.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use microbrowse_core::classifier::{ModelSpec, TrainConfig, TrainedClassifier};
use microbrowse_core::features::Featurizer;
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
use microbrowse_core::statsbuild::{build_stats, StatsBuildConfig, TokenizedCorpus};
use microbrowse_core::{AdCorpus, PairFilter, Placement};
use microbrowse_server::{start, BundleSource, ServerConfig, ServerHandle};
use microbrowse_store::StatsDb;
use microbrowse_synth::{generate, GeneratorConfig};

/// Training corpus size: the `microbrowse train` default, which gives the
/// M6 model a vocabulary of about 14k features.
pub const TRAIN_ADGROUPS: usize = 1000;
/// Training corpus seed (the `microbrowse train` default). The bundle is
/// the system under test, so it is the same in every run; `--seed` varies
/// only the workload inputs.
pub const TRAIN_SEED: u64 = 42;
/// Set-up repeats per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// A started server and the bundle it serves.
pub struct Served {
    pub handle: ServerHandle,
    pub bundle: Arc<ServingBundle>,
    pub corpus: AdCorpus,
    pub workers: usize,
    /// Seconds of each set-up repeat, in order.
    pub setup_s: Vec<f64>,
}

/// `microbrowse train --spec m6` in process: generate the corpus, build
/// statistics, encode, train, export the vocabulary.
fn train_m6() -> (DeployedModel, StatsDb, AdCorpus) {
    let spec = ModelSpec::m6();
    let synth = generate(&GeneratorConfig {
        num_adgroups: TRAIN_ADGROUPS,
        placement: Placement::Top,
        seed: TRAIN_SEED,
        ..Default::default()
    });
    let tc = TokenizedCorpus::build(&synth.corpus);
    let pairs = synth.corpus.extract_pairs(&PairFilter::default());
    let stats = build_stats(&tc, &pairs, &StatsBuildConfig::default());
    let cfg = TrainConfig::default();
    let mut interner = tc.interner.clone();
    let mut featurizer = Featurizer::new(spec, &stats);
    let tok_pairs: Vec<_> = pairs
        .iter()
        .map(|p| (tc.snippet(p.r).clone(), tc.snippet(p.s).clone(), p.r_better))
        .collect();
    let data = featurizer.encode_batch(&tok_pairs, &mut interner);
    let mut init_terms =
        featurizer.init_term_weights(&interner, cfg.stats_alpha, cfg.init_min_support);
    for w in &mut init_terms {
        *w *= cfg.init_scale;
    }
    let init_pos = featurizer.init_pos_weights(cfg.stats_alpha);
    let classifier = TrainedClassifier::train(&spec, &data, Some(init_terms), Some(init_pos), &cfg);
    let vocab = featurizer.export_vocab(&interner);
    drop(featurizer);
    let model = DeployedModel {
        spec,
        classifier,
        vocab,
    };
    (model, stats, synth.corpus)
}

/// Poll `GET /healthz` until it answers 200.
fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let ok = TcpStream::connect(addr).and_then(|mut s| {
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")?;
            let mut head = Vec::new();
            s.read_to_end(&mut head)?;
            Ok(head.starts_with(b"HTTP/1.1 200"))
        });
        if matches!(ok, Ok(true)) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("server at {addr} never answered /healthz with 200"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One set-up: train, assemble, start, first 200. Instrumentation and the
/// trace sink are reset first, so every repeat starts from the state of a
/// fresh process (the server turns both on when it starts).
fn setup_once(workers: usize) -> Result<(ServerHandle, Arc<ServingBundle>, AdCorpus, f64), String> {
    microbrowse_obs::set_enabled(false);
    microbrowse_obs::trace::clear_sink();
    let t0 = Instant::now();
    let (model, stats, corpus) = train_m6();
    let bundle = Arc::new(
        ServingBundle::from_parts(model, stats, Fidelity::Full).map_err(|e| e.to_string())?,
    );
    let cfg = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let handle =
        start(cfg, BundleSource::Static(Arc::clone(&bundle))).map_err(|e| e.to_string())?;
    wait_ready(handle.addr())?;
    Ok((handle, bundle, corpus, t0.elapsed().as_secs_f64()))
}

/// Set up [`SETUP_REPEATS`] times, keeping the last server running.
pub fn serve_m6() -> Result<Served, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut last: Option<(ServerHandle, Arc<ServingBundle>, AdCorpus)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((handle, ..)) = last.take() {
            ServerHandle::shutdown(handle);
        }
        let (handle, bundle, corpus, secs) = setup_once(workers)?;
        setup_s.push(secs);
        last = Some((handle, bundle, corpus));
    }
    let (handle, bundle, corpus) = last.expect("at least one set-up repeat");
    Ok(Served {
        handle,
        bundle,
        corpus,
        workers,
        setup_s,
    })
}
