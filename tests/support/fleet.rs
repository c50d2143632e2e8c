//! A shard-worker fleet inside the test process.
//!
//! [`serve_over_workers`] saves `service` as a bundle cut into `shards`
//! shards, runs one `kbqa_core::shardworker::run` per shard on a thread of
//! this process (the same serve loop `kbqa-shardd` runs), waits until every
//! lane answers a ping, and returns the service with a router over those
//! lanes attached. Worker threads live until the test binary exits; their
//! bundle and sockets sit in a directory of their own under the system
//! temp dir.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kbqa::core::persist::{load_shard_manifest, shard_store_file};
use kbqa::core::shardworker::{self, WorkerConfig};
use kbqa::core::{RemoteOptions, RemoteShard};
use kbqa::prelude::*;

/// A fresh directory no other fleet in any test binary shares.
fn fleet_dir(shards: usize) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kbqa-fleet-{}-{}-{shards}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("fleet dir");
    dir
}

/// `service` scatter-gathering through `shards` workers serving its store.
pub fn serve_over_workers(service: &KbqaService, shards: usize) -> KbqaService {
    let dir = fleet_dir(shards);
    let bundle = dir.join("bundle");
    let mut artifacts = ServingArtifacts::from_service(service);
    artifacts.shard_plan = Some(ShardPlan::new(shards));
    artifacts.save(&bundle).expect("save sharded bundle");
    let (plan, stats) = load_shard_manifest(&bundle)
        .expect("read manifest")
        .expect("bundle is sharded");

    let lanes: Vec<RemoteShard> = (0..plan.shards())
        .map(|i| {
            let socket = dir.join(format!("shard-{i}.sock"));
            let config = WorkerConfig {
                shard: i,
                snapshot: bundle.join(shard_store_file(i)),
                socket: socket.clone(),
                epoch: service.model_epoch(),
            };
            std::thread::Builder::new()
                .name(format!("test-shardd-{i}"))
                .spawn(move || shardworker::run(config))
                .expect("spawn worker thread");
            RemoteShard::new(i, socket, RemoteOptions::default())
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    for lane in &lanes {
        while lane.ping(0, Duration::from_millis(500)).is_err() {
            assert!(
                Instant::now() < deadline,
                "shard worker {} never answered a ping",
                lane.shard()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    service.with_shard_router(Arc::new(ShardRouter::from_remote(plan, lanes, stats)))
}
