//! Deterministic set-up: generate the corpus from the fixed dataset
//! seed, round-trip it through `Database::save`/`open` in a directory the
//! benchmark owns, translate it into a typed graph database and, for the
//! SQL workloads, start an in-process server. The shared snapshot cache
//! is never used, so every set-up does the same work.

use crate::trace::Tracer;
use etable_datagen::{generate, GenConfig};
use etable_relational::database::Database;
use etable_relational::shared::SharedDatabase;
use etable_server::Server;
use etable_tgm::{translate, Tgdb, TranslateOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The seed of the generated corpus. Workload seeds vary only the ops.
pub const DATASET_SEED: u64 = 42;

/// Seconds spent in each set-up layer, plus the bytes the saved corpus
/// occupies.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub save_s: f64,
    pub open_s: f64,
    pub bytes: u64,
    pub translate_s: f64,
    pub server_start_s: f64,
}

pub struct Ready {
    pub db: Database,
    pub tgdb: Arc<Tgdb>,
    /// Set for the SQL workloads: the handle the server serves from.
    pub shared: Option<SharedDatabase>,
    pub server: Option<Server>,
    pub times: SetupTimes,
}

/// Owns the directories saved corpora live in and removes them on drop.
/// Saved columns page in lazily, so a directory must outlive its
/// database; the guard is dropped only after every workload has ended.
pub struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    pub fn new(parent: &Path) -> std::io::Result<WorkDir> {
        let root = parent.join(format!("work-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root, next: 0 })
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("db{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The corpus with `papers` papers: the one `ETABLE_SCALE=<papers>`
/// gives the CLI (authors scale along), from the fixed dataset seed.
pub fn config(papers: usize) -> GenConfig {
    let mut cfg = GenConfig::medium().with_papers(papers);
    cfg.seed = DATASET_SEED;
    cfg
}

fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    tr.begin(name, 0);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    tr.end();
    (out, secs)
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// One full set-up. `serve` also wraps the database in a
/// `SharedDatabase` and starts a server on an ephemeral loopback port.
pub fn build(
    cfg: &GenConfig,
    work: &mut WorkDir,
    serve: bool,
    tr: &mut Tracer,
) -> Result<Ready, String> {
    let start = Instant::now();
    tr.begin("setup", 0);
    let mut times = SetupTimes::default();
    let dir = work.fresh();
    let (generated, s) = timed(tr, "datagen.generate", || generate(cfg));
    times.generate_s = s;
    let (saved, s) = timed(tr, "storage.save", || generated.save(&dir));
    times.save_s = s;
    saved.map_err(|e| format!("save: {e}"))?;
    drop(generated);
    times.bytes = dir_bytes(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (opened, s) = timed(tr, "storage.open", || Database::open(&dir));
    times.open_s = s;
    let db = opened.map_err(|e| format!("open: {e}"))?;
    let (tgdb, s) = timed(tr, "tgm.translate", || {
        translate(&db, &TranslateOptions::default())
    });
    times.translate_s = s;
    let tgdb = Arc::new(tgdb.map_err(|e| format!("translate: {e}"))?);
    let (shared, server) = if serve {
        let shared = SharedDatabase::new(db.clone());
        let (server, s) = timed(tr, "server.start", || {
            Server::start("127.0.0.1:0", shared.clone(), Arc::clone(&tgdb))
        });
        times.server_start_s = s;
        let server = server.map_err(|e| format!("server start: {e}"))?;
        (Some(shared), Some(server))
    } else {
        (None, None)
    };
    tr.end();
    times.total_s = start.elapsed().as_secs_f64();
    Ok(Ready {
        db,
        tgdb,
        shared,
        server,
        times,
    })
}

/// Sets up `reps` times and keeps the last result; the set-up metrics are
/// medians over the repetitions.
pub fn build_repeated(
    cfg: &GenConfig,
    work: &mut WorkDir,
    serve: bool,
    reps: usize,
    tr: &mut Tracer,
) -> Result<(Ready, Vec<SetupTimes>), String> {
    let mut all = Vec::with_capacity(reps);
    let mut last: Option<Ready> = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            shutdown(prev)?;
        }
        let ready = build(cfg, work, serve, tr)?;
        all.push(ready.times);
        last = Some(ready);
    }
    Ok((last.expect("at least one set-up ran"), all))
}

/// Stops the server, if any, and waits for all its threads.
pub fn shutdown(ready: Ready) -> Result<(), String> {
    match ready.server {
        Some(server) => server
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}")),
        None => Ok(()),
    }
}
