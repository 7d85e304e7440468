//! Scratch reuse across connections, end to end: a worker builds one
//! scratch per reload epoch, not one per connection, and a hot reload still
//! reaches every connection — one kept alive across it included.
//!
//! A binary of its own because it reads the process-global
//! `microbrowse_serve_scratch_builds_total` counter, which any other server
//! or scorer in the same process would move.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use microbrowse_api::v1::ScoreRequest;
use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{
    DeployedModel, Fidelity, LoadPolicy, ServingBundle, MODEL_SLOT_NAME, STATS_SLOT_NAME,
};
use microbrowse_server::client::Client;
use microbrowse_server::{start, BundleSource, ReloadSource, ServerConfig};
use microbrowse_store::{ArtifactSlot, StatsDb};
use microbrowse_text::Snippet;

const R: &str = "cheap flights|book now|no fees";
const S: &str = "flights|book today|fees apply";

/// A flat model whose two vocabulary features both fire on the test pair,
/// so the two generations score it differently.
fn model(weight: f64) -> DeployedModel {
    DeployedModel {
        spec: ModelSpec::m1(),
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(
            vec![weight, -0.5 * weight],
            0.25,
        )),
        vocab: vec![
            OwnedTermFeat::Term("cheap".into()),
            OwnedTermFeat::Term("fees apply".into()),
        ],
    }
}

/// The score `model(weight)` gives the test pair, computed in process.
fn expected_score(weight: f64) -> f64 {
    let bundle =
        ServingBundle::from_parts(model(weight), StatsDb::new(), Fidelity::Full).expect("bundle");
    let scorer = bundle.scorer();
    let snippet = |text: &str| Snippet::from_lines(text.split('|').map(str::trim));
    scorer.score_pair(&snippet(R), &snippet(S), &mut scorer.scratch())
}

fn score(c: &mut Client) -> f64 {
    let req = ScoreRequest {
        r: R.into(),
        s: S.into(),
    };
    c.score(&req).expect("score").score
}

fn scratch_builds(addr: SocketAddr) -> u64 {
    let mut c = Client::connect(addr).expect("connect");
    let resp = c.get("/metrics").expect("metrics");
    resp.body_str()
        .lines()
        .find_map(|l| l.strip_prefix("microbrowse_serve_scratch_builds_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("scratch build counter on /metrics")
}

fn commit_model(dir: &Path, weight: f64) -> u64 {
    model(weight)
        .commit_to_slot(&ArtifactSlot::new(dir, MODEL_SLOT_NAME))
        .expect("commit model")
}

#[test]
fn workers_reuse_scratches_across_connections_and_reloads() {
    // Computed before the server enables instrumentation, so these
    // in-process scratches do not count.
    let (old, new) = (expected_score(1.0), expected_score(3.0));
    assert_ne!(old.to_bits(), new.to_bits());

    let dir = std::env::temp_dir().join(format!("mb-scratch-reuse-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    commit_model(&dir, 1.0);
    ArtifactSlot::new(&dir, STATS_SLOT_NAME)
        .commit(&microbrowse_store::file::to_bytes(&StatsDb::new()))
        .expect("commit stats");
    let source = ReloadSource {
        model_path: dir.clone(),
        stats_path: Some(dir.clone()),
        policy: LoadPolicy::Strict,
    };
    let cfg = ServerConfig {
        workers: 2,
        reload_poll: Duration::from_millis(50),
        // The keep-alive client below idles across the reload; it must not
        // be timed out meanwhile.
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let handle = start(cfg, BundleSource::Artifacts(source)).expect("start");
    let addr = handle.addr();

    // Connection per request: at most one build per worker, however many
    // connections.
    let before = scratch_builds(addr);
    for i in 0..64 {
        let mut c = Client::connect(addr).expect("connect");
        assert_eq!(score(&mut c).to_bits(), old.to_bits(), "request {i}");
    }
    let after_churn = scratch_builds(addr);
    assert!(
        after_churn - before <= 2,
        "64 connections built {} scratches on 2 workers",
        after_churn - before
    );

    // A keep-alive connection opened before the reload, idle across it.
    let mut kept = Client::connect(addr).expect("connect");
    assert_eq!(score(&mut kept).to_bits(), old.to_bits());
    let committed = commit_model(&dir, 3.0);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut probe = Client::connect(addr).expect("probe");
        let health = probe.get("/healthz").expect("healthz").body_str();
        if health.contains(&format!("\"model_generation\":{committed}")) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "generation {committed} never served"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        score(&mut kept).to_bits(),
        new.to_bits(),
        "kept-alive connection scored on the old model"
    );
    let mut fresh = Client::connect(addr).expect("connect");
    assert_eq!(
        score(&mut fresh).to_bits(),
        new.to_bits(),
        "fresh connection scored on the old model"
    );
    drop((kept, fresh));
    let after_reload = scratch_builds(addr);
    assert!(
        after_reload - after_churn <= 2,
        "one reload rebuilt {} scratches on 2 workers",
        after_reload - after_churn
    );
    assert_eq!(handle.reloads(), 1);

    let report = handle.shutdown();
    assert_eq!(report.aborted, 0, "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
}
