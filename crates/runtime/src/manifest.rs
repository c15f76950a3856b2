//! JSONL run manifests.
//!
//! A manifest journals one orchestrated run as newline-delimited JSON:
//! the first line is a [`ManifestHeader`] naming the experiment and its
//! verbatim parameter JSON (enough for `tempriv resume` to rebuild the
//! job list), and each subsequent line is a [`JobRecord`] appended — and
//! flushed — the moment that job finishes. A crash therefore leaves a
//! readable prefix; [`ManifestReader`] tolerates a torn final line.

use serde::value::{Error, Value};
use serde::{Deserialize, Serialize};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::telemetry::BlobKind;

/// How a job's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// The job function actually ran.
    Computed,
    /// The result came out of the cache; no new simulation happened.
    Cached,
}

/// The first line of a manifest: what ran and with which parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestHeader {
    /// Experiment kind (e.g. `"fig2"`), dispatched on by `resume`.
    pub experiment: String,
    /// The experiment's parameters, as the verbatim JSON the caller
    /// serialized (kept as a string so the runtime stays generic).
    pub params_json: String,
    /// Total number of jobs in the run.
    pub jobs: usize,
    /// Disk cache directory the run used, if any — `resume` reattaches
    /// to the same cache.
    pub cache_dir: Option<String>,
}

/// One finished job.
///
/// Serialized with the five scalar fields first, then one key per
/// [`BlobKind`] in [`BlobKind::ALL`] order (`null` when absent). A record
/// journaled before a family existed lacks that key and parses with the
/// blob absent.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job index within the run (also the output row position).
    pub index: usize,
    /// Content-addressed cache key of the job.
    pub key: String,
    /// Computed or served from cache.
    pub status: JobStatus,
    /// Wall-clock time spent on the job, in milliseconds.
    pub wall_ms: u64,
    /// Digest of the serialized outcome (same content-identity family as
    /// the cache keys), for cheap cross-run comparisons.
    pub outcome_digest: String,
    /// The job's instrumentation blobs (JSON), indexed by [`BlobKind`]
    /// (`blobs[kind as usize]`; read them with [`JobRecord::blob`]). A
    /// blob is present only when the run recorded that family and the
    /// job was actually computed: cache-served jobs carry none.
    pub blobs: [Option<String>; 6],
}

impl JobRecord {
    /// The job's `kind` blob, if one was journaled.
    #[must_use]
    pub fn blob(&self, kind: BlobKind) -> Option<&str> {
        self.blobs[kind as usize].as_deref()
    }
}

impl Serialize for JobRecord {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("index".to_string(), self.index.to_value()),
            ("key".to_string(), self.key.to_value()),
            ("status".to_string(), self.status.to_value()),
            ("wall_ms".to_string(), self.wall_ms.to_value()),
            ("outcome_digest".to_string(), self.outcome_digest.to_value()),
        ];
        for kind in BlobKind::ALL {
            fields.push((
                kind.name().to_string(),
                self.blobs[kind as usize].to_value(),
            ));
        }
        Value::Map(fields)
    }
}

impl Deserialize for JobRecord {
    fn from_value(v: &Value) -> Result<Self, Error> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, Error> {
            v.get(name)
                .map(|x| T::from_value(x).map_err(|e| e.context(&format!("field `{name}`"))))
                .transpose()
        }
        fn required<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
            field(v, name)?
                .ok_or_else(|| Error::new(format!("missing field `{name}` in `JobRecord`")))
        }
        let mut blobs: [Option<String>; 6] = Default::default();
        for kind in BlobKind::ALL {
            blobs[kind as usize] = field::<Option<String>>(v, kind.name())?.flatten();
        }
        Ok(JobRecord {
            index: required(v, "index")?,
            key: required(v, "key")?,
            status: required(v, "status")?,
            wall_ms: required(v, "wall_ms")?,
            outcome_digest: required(v, "outcome_digest")?,
            blobs,
        })
    }
}

/// An append-only, line-buffered manifest writer (thread-safe: jobs
/// finish on pool workers).
///
/// Every record is serialized to a complete line first and handed to the
/// OS in a single `write_all` + flush, so a reader never observes a
/// partially written record from a *live* writer — only a hard kill mid
/// `write_all` can tear a line, and [`ManifestReader`] tolerates that.
/// Dropping the writer flushes any buffered bytes as a last resort, so a
/// panic that unwinds through a pool worker still lands the records that
/// were already accepted.
#[derive(Debug)]
pub struct ManifestWriter {
    file: Mutex<BufWriter<std::fs::File>>,
    path: PathBuf,
}

impl ManifestWriter {
    /// Creates (truncating) a manifest at `path` and writes the header.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created or written.
    pub fn create(path: impl Into<PathBuf>, header: &ManifestHeader) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = BufWriter::new(std::fs::File::create(&path)?);
        let mut line = serde_json::to_string(header).expect("header serializes");
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.flush()?;
        Ok(ManifestWriter {
            file: Mutex::new(file),
            path,
        })
    }

    /// Appends one job record and flushes it to disk immediately.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the line cannot be written.
    pub fn record(&self, record: &JobRecord) -> std::io::Result<()> {
        let mut line = serde_json::to_string(record).expect("record serializes");
        line.push('\n');
        let mut file = self.file.lock().expect("manifest lock");
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Where this manifest lives.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ManifestWriter {
    fn drop(&mut self) {
        // Best-effort flush on shutdown/unwind; each record already
        // flushes itself, this only matters if a future edit buffers.
        if let Ok(mut file) = self.file.lock() {
            let _ = file.flush();
        }
    }
}

/// A parsed manifest: header plus every intact job record.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestReader {
    /// The run header.
    pub header: ManifestHeader,
    /// Every fully written job record, in file order.
    pub records: Vec<JobRecord>,
}

impl ManifestReader {
    /// Reads a manifest, tolerating a truncated (torn) final line.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read or its header line
    /// is missing/corrupt — a torn *job* line is skipped, a torn header
    /// is fatal.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
        let mut lines = text.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| format!("manifest {} is empty", path.display()))?;
        let header: ManifestHeader = serde_json::from_str(header_line)
            .map_err(|e| format!("manifest {} has a corrupt header: {e}", path.display()))?;
        let mut records = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JobRecord>(line) {
                Ok(record) => records.push(record),
                // A torn trailing line from an interrupted run: ignore it;
                // the job will simply be re-run (or served from cache).
                Err(_) => break,
            }
        }
        Ok(ManifestReader { header, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ManifestHeader {
        ManifestHeader {
            experiment: "fig2".to_string(),
            params_json: "{\"seed\":2007}".to_string(),
            jobs: 3,
            cache_dir: None,
        }
    }

    fn record(index: usize) -> JobRecord {
        JobRecord {
            index,
            key: format!("key{index}"),
            status: JobStatus::Computed,
            wall_ms: 12,
            outcome_digest: "00ff".to_string(),
            blobs: Default::default(),
        }
    }

    /// Records journaled by the six-field serializer that preceded the
    /// keyed blob row: one with every family, one cache-served line of
    /// nulls, one line from before any family existed (no blob keys),
    /// and that same record as the six-field serializer rewrote it.
    const FIXTURE: &str = include_str!("../tests/fixtures/job_records.jsonl");

    #[test]
    fn fixture_records_read_every_kind_and_reserialize_identically() {
        let mut lines = FIXTURE.lines();
        let header: ManifestHeader = serde_json::from_str(lines.next().unwrap()).unwrap();
        assert_eq!(header.jobs, 3);
        let lines: Vec<&str> = lines.collect();
        assert_eq!(lines.len(), 4);
        let mut seen = [false; 6];
        for line in &lines {
            let raw: Value = serde_json::from_str(line).unwrap();
            let record: JobRecord = serde_json::from_str(line).unwrap();
            for kind in BlobKind::ALL {
                let stored = match raw.get(kind.name()) {
                    Some(Value::Str(blob)) => Some(blob.as_str()),
                    None | Some(Value::Null) => None,
                    Some(other) => panic!("{} holds a {}", kind.name(), other.kind()),
                };
                assert_eq!(record.blob(kind), stored, "{} of {line}", kind.name());
                seen[kind as usize] |= stored.is_some();
            }
            let again = serde_json::to_string(&record).unwrap();
            if raw.get("telemetry").is_some() {
                assert_eq!(&again, line, "re-serialization is byte-identical");
            } else {
                // The pre-telemetry line gains its null blob keys, exactly
                // as the six-field serializer wrote them on the next line.
                assert_eq!(record.blobs, <[Option<String>; 6]>::default());
                assert_eq!(&again, lines.last().unwrap());
            }
        }
        assert_eq!(seen, [true; 6], "the fixture carries every family");
    }

    #[test]
    fn manifest_round_trips() {
        let path = std::env::temp_dir().join("tempriv_runtime_manifest_test.jsonl");
        let writer = ManifestWriter::create(&path, &header()).unwrap();
        writer.record(&record(0)).unwrap();
        writer.record(&record(1)).unwrap();
        drop(writer);
        let back = ManifestReader::read(&path).unwrap();
        assert_eq!(back.header, header());
        assert_eq!(back.records, vec![record(0), record(1)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = std::env::temp_dir().join("tempriv_runtime_manifest_torn_test.jsonl");
        let writer = ManifestWriter::create(&path, &header()).unwrap();
        writer.record(&record(0)).unwrap();
        drop(writer);
        // Simulate a crash mid-write of the second record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"index\":1,\"key\":\"ke");
        std::fs::write(&path, text).unwrap();
        let back = ManifestReader::read(&path).unwrap();
        assert_eq!(back.records, vec![record(0)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_header_is_fatal() {
        let path = std::env::temp_dir().join("tempriv_runtime_manifest_bad_header.jsonl");
        std::fs::write(&path, "{\"experiment\":").unwrap();
        assert!(ManifestReader::read(&path).unwrap_err().contains("header"));
        let _ = std::fs::remove_file(&path);
    }
}
