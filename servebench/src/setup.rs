//! Set-up: learn the model, build the indexes, save and load the serving
//! bundle, start `kbqa-server` and wait for its first healthy `/healthz`.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kbqa_core::decompose::PatternIndex;
use kbqa_core::learner::{Learner, LearnerConfig};
use kbqa_core::persist::ServingArtifacts;
use kbqa_core::service::KbqaService;
use kbqa_core::EmConfig;
use kbqa_nlp::GazetteerNer;
use kbqa_server::{serve, ServerConfig, ServerHandle};

use crate::client::{get, Conn};
use crate::inputs::Inputs;

/// The shared secret the benchmark configures for `/admin/reload`.
pub const ADMIN_TOKEN: &str = "servebench-admin";

/// The server configuration: `ServerConfig::default()` plus the two
/// deployment settings `POST /admin/reload?mode=bundle` needs — without an
/// admin token the admin surface is off (403), and without a bundle dir
/// there is nothing to reload from (409).
pub fn server_config(bundle_dir: &Path) -> ServerConfig {
    ServerConfig {
        admin_token: Some(ADMIN_TOKEN.to_string()),
        bundle_dir: Some(bundle_dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Wall time of each set-up step, one set-up.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// Hand-over of the world and corpus to the first `/healthz` 200, s.
    pub total_s: f64,
    /// `Learner::learn` (EM included), s.
    pub learn_s: f64,
    /// `GazetteerNer::from_store`, ms.
    pub ner_build_ms: f64,
    /// `PatternIndex::build` over the corpus questions, ms.
    pub index_build_ms: f64,
    /// `ServingArtifacts::save`, ms.
    pub bundle_save_ms: f64,
    /// `ServingArtifacts::load` (manifest hashes, store remap, JSON
    /// artifacts), ms.
    pub bundle_load_ms: f64,
    /// `kbqa_server::serve`: bind and thread start, ms.
    pub bind_ms: f64,
}

/// A running server plus the in-process service it was saved from.
pub struct Served {
    /// The server, answering from the loaded bundle.
    pub server: ServerHandle,
    /// The learned service, before the bundle round trip: the oracle's
    /// reference and the traced pass's subject.
    pub service: KbqaService,
    /// Where the bundle lives.
    pub bundle_dir: PathBuf,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Run the whole set-up once.
pub fn set_up(inputs: &Inputs, bundle_dir: &Path) -> io::Result<(Served, SetupTimes)> {
    let world = &inputs.world;
    let mut times = SetupTimes::default();
    let start = Instant::now();

    let t = Instant::now();
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    times.ner_build_ms = ms(t);

    let t = Instant::now();
    let learner = Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    );
    let pairs: Vec<(&str, &str)> = inputs
        .corpus
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let config = LearnerConfig {
        em: EmConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            ..EmConfig::default()
        },
        ..LearnerConfig::default()
    };
    let (model, _) = learner.learn(&pairs, &config);
    times.learn_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let index = PatternIndex::build(
        inputs.corpus.pairs.iter().map(|p| p.question.as_str()),
        &ner,
    );
    times.index_build_ms = ms(t);

    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .pattern_index(Arc::new(index))
    .build();

    let t = Instant::now();
    ServingArtifacts::from_service(&service)
        .save(bundle_dir)
        .map_err(|e| io::Error::other(format!("bundle save: {e}")))?;
    times.bundle_save_ms = ms(t);

    let t = Instant::now();
    let loaded = ServingArtifacts::load(bundle_dir)
        .map_err(|e| io::Error::other(format!("bundle load: {e}")))?
        .into_service();
    times.bundle_load_ms = ms(t);

    let t = Instant::now();
    let server = serve(loaded, "127.0.0.1:0", server_config(bundle_dir))?;
    times.bind_ms = ms(t);

    wait_healthy(server.local_addr())?;
    times.total_s = start.elapsed().as_secs_f64();
    Ok((
        Served {
            server,
            service,
            bundle_dir: bundle_dir.to_path_buf(),
        },
        times,
    ))
}

/// Poll `GET /healthz` until it answers 200.
fn wait_healthy(addr: SocketAddr) -> io::Result<()> {
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut conn) = Conn::connect(addr) {
            conn.send(&get("/healthz"))?;
            if let Ok(response) = conn.read_response(Instant::now() + Duration::from_secs(5)) {
                if response.status == 200 {
                    return Ok(());
                }
            }
        }
        if Instant::now() > give_up {
            return Err(io::Error::other("server never became healthy"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
