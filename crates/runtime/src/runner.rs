//! The orchestrator: pool + cache + manifest + observer.

use crate::cache::{content_digest, ResultCache};
use crate::manifest::{JobRecord, JobStatus, ManifestHeader, ManifestWriter};
use crate::observer::{NullObserver, RunObserver};
use crate::pool::WorkerPool;
use crate::telemetry::{BlobKind, TelemetrySink};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configures and builds a [`Runtime`].
#[derive(Default)]
pub struct RuntimeBuilder {
    pool: Option<WorkerPool>,
    cache: Option<ResultCache>,
    observer: Option<Arc<dyn RunObserver + Send + Sync>>,
    manifest_path: Option<PathBuf>,
    deferred_cache_dir: Option<PathBuf>,
    telemetry: Option<Arc<TelemetrySink>>,
    sim_shards: u32,
}

impl RuntimeBuilder {
    /// A builder with every knob at its default.
    #[must_use]
    pub fn new() -> Self {
        RuntimeBuilder::default()
    }

    /// Uses an explicit worker pool (default: machine-sized).
    #[must_use]
    pub fn pool(mut self, pool: WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Shorthand for [`RuntimeBuilder::pool`] with a fixed worker count.
    #[must_use]
    pub fn workers(self, workers: usize) -> Self {
        self.pool(WorkerPool::with_workers(workers))
    }

    /// Uses an explicit result cache (default: in-memory).
    #[must_use]
    pub fn cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Backs the cache with a disk directory.
    ///
    /// Stored as a deferred path; directory creation happens in
    /// [`RuntimeBuilder::build`] so the error is reportable.
    #[must_use]
    pub fn cache_dir(self, dir: impl Into<PathBuf>) -> Self {
        let mut this = self;
        this.cache = None;
        this.deferred_cache_dir = Some(dir.into());
        this
    }

    /// Installs a progress observer (default: silent).
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn RunObserver + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Journals every run into a JSONL manifest at `path`.
    #[must_use]
    pub fn manifest_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.manifest_path = Some(path.into());
        self
    }

    /// Collects per-job telemetry blobs into `sink`. Jobs reach the sink
    /// through [`Runtime::telemetry_sink`]; the runner journals each
    /// attached blob into the job's manifest record.
    #[must_use]
    pub fn telemetry_sink(mut self, sink: Arc<TelemetrySink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Partitions each simulation across `shards` engine shards
    /// (default 1 = serial). Job closures read the knob through
    /// [`Runtime::sim_shards`]; instrumented runs that need the serial
    /// event order may ignore it.
    #[must_use]
    pub fn sim_shards(mut self, shards: u32) -> Self {
        self.sim_shards = shards.max(1);
        self
    }

    /// Builds the runtime.
    ///
    /// # Errors
    ///
    /// Returns a message when the cache directory cannot be created.
    pub fn build(self) -> Result<Runtime, String> {
        let cache = match (self.cache, self.deferred_cache_dir) {
            (Some(cache), _) => cache,
            (None, Some(dir)) => ResultCache::on_disk(&dir)
                .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?,
            (None, None) => ResultCache::in_memory(),
        };
        Ok(Runtime {
            pool: self.pool.unwrap_or_default(),
            cache,
            observer: self.observer.unwrap_or_else(|| Arc::new(NullObserver)),
            manifest_path: self.manifest_path,
            telemetry: self.telemetry,
            sim_shards: self.sim_shards.max(1),
        })
    }
}

/// The deterministic experiment runtime.
///
/// See the crate docs for the determinism contract. All state is behind
/// interior mutability, so one `Runtime` can serve many runs.
pub struct Runtime {
    pool: WorkerPool,
    cache: ResultCache,
    observer: Arc<dyn RunObserver + Send + Sync>,
    manifest_path: Option<PathBuf>,
    telemetry: Option<Arc<TelemetrySink>>,
    sim_shards: u32,
}

impl Runtime {
    /// A runtime with the given pool, an in-memory cache, and no
    /// observer or manifest.
    #[must_use]
    pub fn new(pool: WorkerPool) -> Self {
        Runtime {
            pool,
            cache: ResultCache::in_memory(),
            observer: Arc::new(NullObserver),
            manifest_path: None,
            telemetry: None,
            sim_shards: 1,
        }
    }

    /// Starts configuring a runtime.
    #[must_use]
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// The worker pool.
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The result cache.
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The telemetry sink, when this runtime collects telemetry. Job
    /// closures use this to attach per-job instrumentation blobs.
    #[must_use]
    pub fn telemetry_sink(&self) -> Option<&TelemetrySink> {
        self.telemetry.as_deref()
    }

    /// Engine shards each simulation should be partitioned across
    /// (1 = serial).
    #[must_use]
    pub fn sim_shards(&self) -> u32 {
        self.sim_shards
    }

    /// Runs `keys.len()` jobs on the pool, serving repeats from the
    /// cache, journaling into the manifest (when configured), and
    /// reporting progress to the observer. Results come back in job
    /// order regardless of worker count.
    ///
    /// `experiment` and `params_json` describe the run for the manifest
    /// header; `keys[i]` must be a stable content digest of job `i`'s
    /// full inputs (see [`content_digest`]).
    ///
    /// # Panics
    ///
    /// Propagates panics from job functions.
    pub fn run<T, F>(&self, experiment: &str, params_json: &str, keys: &[String], f: F) -> Vec<T>
    where
        T: Serialize + Deserialize + Send,
        F: Fn(usize) -> T + Sync,
    {
        let manifest = self.manifest_path.as_ref().and_then(|path| {
            let header = ManifestHeader {
                experiment: experiment.to_string(),
                params_json: params_json.to_string(),
                jobs: keys.len(),
                cache_dir: self
                    .cache
                    .disk_dir()
                    .map(|d| d.to_string_lossy().into_owned()),
            };
            match ManifestWriter::create(path, &header) {
                Ok(writer) => Some(writer),
                Err(e) => {
                    eprintln!(
                        "warning: cannot write manifest {}: {e}; continuing without",
                        path.display()
                    );
                    None
                }
            }
        });

        if let Some(sink) = &self.telemetry {
            sink.reset(keys.len());
        }
        self.observer.run_started(keys.len());
        let computed = AtomicUsize::new(0);
        let cached = AtomicUsize::new(0);
        let run_started = Instant::now();

        let results = self.pool.map_indexed(keys.len(), |index| {
            let key = &keys[index];
            let job_started = Instant::now();

            if let Some(json) = self.cache.get(key) {
                if let Ok(value) = serde_json::from_str::<T>(&json) {
                    cached.fetch_add(1, Ordering::Relaxed);
                    let wall = job_started.elapsed();
                    self.observer.job_finished(index, JobStatus::Cached, wall);
                    if let Some(writer) = &manifest {
                        self.journal(writer, index, key, JobStatus::Cached, wall, &json);
                    }
                    return value;
                }
                // A corrupt or schema-stale entry: fall through and
                // recompute; the fresh value overwrites it below.
            }

            self.observer.job_started(index);
            let value = f(index);
            let json = serde_json::to_string(&value).expect("job output serializes");
            self.cache.put(key, &json);
            computed.fetch_add(1, Ordering::Relaxed);
            let wall = job_started.elapsed();
            self.observer.job_finished(index, JobStatus::Computed, wall);
            if let Some(writer) = &manifest {
                self.journal(writer, index, key, JobStatus::Computed, wall, &json);
            }
            value
        });

        self.observer.run_finished(
            computed.load(Ordering::Relaxed),
            cached.load(Ordering::Relaxed),
            run_started.elapsed(),
        );
        results
    }

    /// Plain bounded parallel map, bypassing cache and manifest — for
    /// work whose outputs are not serializable (e.g. arbitrary
    /// replication measurements). Output order is index order.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.pool.map_indexed(n, f)
    }

    fn journal(
        &self,
        writer: &ManifestWriter,
        index: usize,
        key: &str,
        status: JobStatus,
        wall: std::time::Duration,
        json: &str,
    ) {
        // Cached jobs did no instrumented work, so they carry no blobs.
        let blobs = match (status, &self.telemetry) {
            (JobStatus::Computed, Some(sink)) => BlobKind::ALL.map(|kind| sink.get(kind, index)),
            _ => Default::default(),
        };
        let record = JobRecord {
            index,
            key: key.to_string(),
            status,
            wall_ms: wall.as_millis() as u64,
            outcome_digest: content_digest(json.as_bytes()),
            blobs,
        };
        if let Err(e) = writer.record(&record) {
            eprintln!(
                "warning: manifest write to {} failed: {e}",
                writer.path().display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ManifestReader;
    use crate::observer::CountingObserver;

    fn keys(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| content_digest(format!("test-job:{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn results_are_identical_for_any_worker_count() {
        let reference: Vec<u64> = (0..25u64).map(|i| i * i + 1).collect();
        for workers in [1, 2, 8] {
            let runtime = Runtime::new(WorkerPool::with_workers(workers));
            let got = runtime.run("squares", "{}", &keys(25), |i| (i as u64) * (i as u64) + 1);
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn warm_cache_rerun_computes_nothing() {
        let counter = Arc::new(CountingObserver::new());
        let runtime = Runtime::builder()
            .workers(4)
            .observer(counter.clone())
            .build()
            .unwrap();
        let keys = keys(10);
        let first = runtime.run("warm", "{}", &keys, |i| i as u64 * 3);
        assert_eq!(counter.computed(), 10);
        assert_eq!(counter.cached(), 0);
        let second = runtime.run("warm", "{}", &keys, |_| -> u64 {
            panic!("warm rerun must not compute")
        });
        assert_eq!(first, second);
        assert_eq!(counter.computed(), 10, "no new computations");
        assert_eq!(counter.cached(), 10);
    }

    #[test]
    fn manifest_journals_every_job() {
        let dir = std::env::temp_dir().join("tempriv_runtime_runner_manifest");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("run.jsonl");
        let runtime = Runtime::builder()
            .workers(2)
            .manifest_path(&path)
            .build()
            .unwrap();
        let keys = keys(5);
        let _ = runtime.run("journal", "{\"p\":1}", &keys, |i| i as u64);
        let manifest = ManifestReader::read(&path).unwrap();
        assert_eq!(manifest.header.experiment, "journal");
        assert_eq!(manifest.header.params_json, "{\"p\":1}");
        assert_eq!(manifest.header.jobs, 5);
        assert_eq!(manifest.records.len(), 5);
        let mut indices: Vec<usize> = manifest.records.iter().map(|r| r.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        assert!(manifest
            .records
            .iter()
            .all(|r| r.status == JobStatus::Computed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_serves_a_second_runtime() {
        let dir = std::env::temp_dir().join("tempriv_runtime_runner_disk_cache");
        let _ = std::fs::remove_dir_all(&dir);
        let keys = keys(4);
        {
            let runtime = Runtime::builder()
                .workers(2)
                .cache_dir(&dir)
                .build()
                .unwrap();
            let _ = runtime.run("persist", "{}", &keys, |i| i as u64 + 7);
        }
        let counter = Arc::new(CountingObserver::new());
        let runtime = Runtime::builder()
            .workers(2)
            .cache_dir(&dir)
            .observer(counter.clone())
            .build()
            .unwrap();
        let rows = runtime.run("persist", "{}", &keys, |_| -> u64 {
            panic!("served from disk")
        });
        assert_eq!(rows, vec![7, 8, 9, 10]);
        assert_eq!(counter.computed(), 0);
        assert_eq!(counter.cached(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_is_recomputed() {
        let runtime = Runtime::new(WorkerPool::with_workers(1));
        let keys = keys(1);
        runtime.cache().put(&keys[0], "not json at all");
        let rows = runtime.run("heal", "{}", &keys, |_| 42u64);
        assert_eq!(rows, vec![42]);
        // And the entry was healed in place.
        assert_eq!(runtime.cache().get(&keys[0]).as_deref(), Some("42"));
    }
}
