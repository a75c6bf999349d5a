//! Durable, versioned campaign checkpoints.
//!
//! # File format (version 1)
//!
//! A checkpoint file is a one-line header followed by a JSON payload:
//!
//! ```text
//! taopt-checkpoint v1 fnv64=<16 hex digits> len=<payload bytes>\n
//! { ...payload... }
//! ```
//!
//! The header pins the format version, an FNV-1a 64-bit checksum of the
//! payload bytes, and the exact payload length. [`CheckpointStore::load`]
//! validates all three before parsing, so truncation, bit rot and partial
//! writes surface as [`ServiceError::Corrupt`] — never a panic and never
//! a silently wrong resume.
//!
//! # Durability
//!
//! [`CheckpointStore::save`] writes a temp file, `sync_all`s it and
//! renames it over the campaign's checkpoint, so a crash *during* a write
//! leaves the previous checkpoint intact and a reader never sees a torn
//! file. The rename itself is not fsynced: losing the *replacement* of an
//! existing checkpoint to a power cut leaves the older, still valid
//! snapshot, which resumes to the same result. Losing the *creation* of a
//! campaign's first checkpoint would lose the campaign, so the two paths
//! that create one ([`CampaignService::submit`](crate::CampaignService::submit),
//! [`CampaignService::import_checkpoint`](crate::CampaignService::import_checkpoint))
//! follow the save with [`CheckpointStore::sync_dir`]. Who calls `save`
//! when — the caller for those two and for pause checkpoints, the
//! write-behind writer thread for cadence checkpoints — is the service's
//! business (`service.rs`, `# Durability`).
//!
//! The payload stores the campaign's [`CampaignSpec`] (its complete
//! input), the round reached, and the [`CampaignDigest`] at that round.
//! Restore rebuilds from the spec, replays to the round, and verifies the
//! digest (DESIGN.md §13) — the runtime's determinism is what makes this
//! small file a complete snapshot.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use taopt::CampaignDigest;
use taopt_ui_model::json::Value;

use crate::error::ServiceError;
use crate::spec::CampaignSpec;

/// Checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u64 = 1;

const MAGIC: &str = "taopt-checkpoint";

/// One durable snapshot of an in-flight (or not-yet-started) campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`] when written by this build).
    pub version: u64,
    /// Service-assigned campaign id.
    pub campaign: u64,
    /// Scheduling priority (higher runs first).
    pub priority: u8,
    /// Global round the campaign had completed. 0 with no digest means
    /// the campaign was submitted but never started. For evolution
    /// campaigns this is the round *within* [`Checkpoint::sequence_version`].
    pub round: u64,
    /// For evolution campaigns, the release version `round` belongs to
    /// (the sequence cursor). Plain campaigns — and every checkpoint
    /// written before the evolution section existed — use 0, which is why
    /// the field is serialized only when nonzero and an absent field
    /// parses as 0.
    pub sequence_version: u64,
    /// The campaign's complete input.
    pub spec: CampaignSpec,
    /// Digest at `round`; a restore replay must reproduce it exactly.
    pub digest: Option<CampaignDigest>,
}

impl Checkpoint {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("version".to_owned(), Value::UInt(self.version)),
            ("campaign".to_owned(), Value::UInt(self.campaign)),
            ("priority".to_owned(), Value::UInt(self.priority as u64)),
            ("round".to_owned(), Value::UInt(self.round)),
            ("spec".to_owned(), self.spec.to_value()),
        ];
        if self.sequence_version > 0 {
            fields.push((
                "sequence_version".to_owned(),
                Value::UInt(self.sequence_version),
            ));
        }
        if let Some(d) = &self.digest {
            fields.push(("digest".to_owned(), d.to_value()));
        }
        Value::Object(fields)
    }

    fn from_value(v: &Value) -> Result<Self, ServiceError> {
        let u = |key: &str| -> Result<u64, ServiceError> {
            Ok(v.require(key)?.as_u64().ok_or_else(|| {
                taopt_ui_model::json::JsonError::conversion(format!("field `{key}` must be a u64"))
            })?)
        };
        let version = u("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(ServiceError::UnsupportedVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        Ok(Checkpoint {
            version,
            campaign: u("campaign")?,
            priority: u("priority")? as u8,
            round: u("round")?,
            // Optional for back-compat: pre-evolution checkpoints have no
            // sequence cursor and resume at version 0.
            sequence_version: match v.get("sequence_version") {
                None | Some(Value::Null) => 0,
                Some(sv) => sv.as_u64().ok_or_else(|| {
                    taopt_ui_model::json::JsonError::conversion("sequence_version must be a u64")
                })?,
            },
            spec: CampaignSpec::from_value(v.require("spec")?)?,
            digest: match v.get("digest") {
                None | Some(Value::Null) => None,
                Some(dv) => Some(CampaignDigest::from_value(dv)?),
            },
        })
    }
}

/// FNV-1a 64-bit, the checksum in the checkpoint header.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders a checkpoint in the durable wire format (header line + JSON
/// payload). The same bytes live on disk and travel over the network
/// during shard migration, so the checksum protects both.
pub fn encode(checkpoint: &Checkpoint) -> String {
    let payload = checkpoint.to_value().to_json_string();
    format!(
        "{MAGIC} v{} fnv64={:016x} len={}\n{payload}",
        checkpoint.version,
        fnv64(payload.as_bytes()),
        payload.len()
    )
}

/// Parses and validates checkpoint text (the inverse of [`encode`]).
/// `origin` names the source in errors — a file path, or a peer address
/// for checkpoints received over the wire. Truncated, corrupted or alien
/// input fails with a clean [`ServiceError`], never a panic.
pub fn decode(text: &str, origin: &str) -> Result<Checkpoint, ServiceError> {
    let corrupt = |reason: &str| ServiceError::Corrupt {
        path: origin.to_owned(),
        reason: reason.to_owned(),
    };
    let (header, payload) = text
        .split_once('\n')
        .ok_or_else(|| corrupt("missing header line"))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some(MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let version = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| corrupt("unreadable version"))?;
    if version != CHECKPOINT_VERSION {
        return Err(ServiceError::UnsupportedVersion {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    let expect_sum = parts
        .next()
        .and_then(|v| v.strip_prefix("fnv64="))
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| corrupt("unreadable checksum"))?;
    let expect_len = parts
        .next()
        .and_then(|v| v.strip_prefix("len="))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| corrupt("unreadable length"))?;
    if payload.len() != expect_len {
        return Err(corrupt("payload length mismatch (truncated?)"));
    }
    if fnv64(payload.as_bytes()) != expect_sum {
        return Err(corrupt("checksum mismatch"));
    }
    let value = Value::parse(payload).map_err(ServiceError::Malformed)?;
    Checkpoint::from_value(&value)
}

/// Whole microseconds of `d`, for the `*_us` histograms.
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// A directory of checkpoint files, one per in-flight campaign.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, ServiceError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a campaign's checkpoint lives at.
    pub fn path_for(&self, campaign: u64) -> PathBuf {
        self.dir.join(format!("campaign-{campaign:08}.ckpt"))
    }

    /// Where [`CheckpointStore::save`] stages a campaign's checkpoint
    /// before the rename. One path per campaign: two concurrent saves of
    /// the same campaign would collide on it.
    pub(crate) fn tmp_path_for(&self, campaign: u64) -> PathBuf {
        self.dir.join(format!("campaign-{campaign:08}.ckpt.tmp"))
    }

    /// Atomically writes `checkpoint`, replacing any previous snapshot of
    /// the same campaign. The old file survives a crash mid-write. The two
    /// halves are timed into `service_checkpoint_encode_us` and
    /// `service_checkpoint_fsync_us` (create + write + `sync_all` + rename).
    pub fn save(&self, checkpoint: &Checkpoint) -> Result<PathBuf, ServiceError> {
        let telemetry = taopt_telemetry::global();
        let start = Instant::now();
        let text = encode(checkpoint);
        let encoded = Instant::now();
        let path = self.path_for(checkpoint.campaign);
        let tmp = self.tmp_path_for(checkpoint.campaign);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        telemetry
            .histogram("service_checkpoint_encode_us")
            .record(micros(encoded - start));
        telemetry
            .histogram("service_checkpoint_fsync_us")
            .record(micros(encoded.elapsed()));
        telemetry.counter("service_checkpoints_written_total").inc();
        Ok(path)
    }

    /// Fsyncs the store's directory, making the *creation* of a checkpoint
    /// file by a preceding [`CheckpointStore::save`] survive power loss.
    pub fn sync_dir(&self) -> Result<(), ServiceError> {
        Ok(fs::File::open(&self.dir)?.sync_all()?)
    }

    /// Loads and validates the checkpoint at `path`. Truncated, corrupted
    /// or alien files fail with a clean [`ServiceError`].
    pub fn load(&self, path: &Path) -> Result<Checkpoint, ServiceError> {
        let text = fs::read_to_string(path)?;
        decode(&text, &path.display().to_string())
    }

    /// Every checkpoint file currently in the store, in campaign order.
    pub fn list(&self) -> Result<Vec<PathBuf>, ServiceError> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Deletes a campaign's checkpoint (after completion). Missing files
    /// are fine — completion can race a crash — but any other I/O failure
    /// is counted in `service_checkpoint_remove_errors_total` and logged,
    /// because a checkpoint that cannot be deleted will be resurrected by
    /// the next [`CampaignService::recover`](crate::CampaignService::recover).
    pub fn remove(&self, campaign: u64) {
        let path = self.path_for(campaign);
        if let Err(e) = fs::remove_file(&path) {
            if e.kind() != std::io::ErrorKind::NotFound {
                taopt_telemetry::global()
                    .counter("service_checkpoint_remove_errors_total")
                    .inc();
                eprintln!(
                    "taopt-service: failed to remove checkpoint {}: {e}",
                    path.display()
                );
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{AppSource, AppSpec};
    use taopt::experiments::ExperimentScale;
    use taopt::RunMode;
    use taopt_tools::ToolKind;

    pub(crate) fn tmp_store(tag: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("taopt-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::new(dir).unwrap()
    }

    pub(crate) fn sample(round: u64) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            campaign: 3,
            priority: 7,
            round,
            sequence_version: 0,
            spec: CampaignSpec::new(
                "t",
                vec![AppSpec {
                    source: AppSource::Small {
                        name: "a".to_owned(),
                        seed: 1,
                    },
                    tool: ToolKind::Monkey,
                    mode: RunMode::TaoptDuration,
                    seed: 9,
                }],
                ExperimentScale::quick(),
            ),
            digest: None,
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let store = tmp_store("roundtrip");
        let ckpt = sample(12);
        let path = store.save(&ckpt).unwrap();
        let back = store.load(&path).unwrap();
        assert_eq!(ckpt, back);
        assert_eq!(store.list().unwrap(), vec![path]);
        store.remove(3);
        assert!(store.list().unwrap().is_empty());
    }

    #[test]
    fn sync_dir_succeeds_on_a_live_store_and_reports_a_missing_one() {
        let store = tmp_store("syncdir");
        store.save(&sample(1)).unwrap();
        store.sync_dir().unwrap();
        fs::remove_dir_all(store.dir()).unwrap();
        assert!(matches!(store.sync_dir(), Err(ServiceError::Io(_))));
    }

    #[test]
    fn wire_encode_decode_roundtrip() {
        let ckpt = sample(7);
        let text = encode(&ckpt);
        assert!(text.starts_with("taopt-checkpoint v1 fnv64="));
        let back = decode(&text, "peer:1234").unwrap();
        assert_eq!(ckpt, back);
        // A flipped payload byte fails the checksum with the origin named.
        let mut bytes = text.into_bytes();
        let idx = bytes.len() - 10;
        bytes[idx] = bytes[idx].wrapping_add(1);
        match decode(std::str::from_utf8(&bytes).unwrap(), "peer:1234") {
            Err(ServiceError::Corrupt { path, .. }) => assert_eq!(path, "peer:1234"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn sequence_cursor_roundtrips_and_defaults_to_zero() {
        // Nonzero cursor survives the wire format.
        let mut ckpt = sample(4);
        ckpt.sequence_version = 2;
        let back = decode(&encode(&ckpt), "test").unwrap();
        assert_eq!(back.sequence_version, 2);
        // Cursor 0 is omitted from the payload, so the bytes written for a
        // plain campaign are exactly the pre-evolution format — and any
        // old checkpoint without the field parses as version 0.
        let legacy = encode(&sample(4));
        assert!(!legacy.contains("sequence_version"));
        assert_eq!(decode(&legacy, "test").unwrap().sequence_version, 0);
    }

    #[test]
    fn checkpoint_with_a_legacy_workers_key_resumes_byte_identical() {
        // Specs written before the `workers` knob was removed carry a
        // `"workers": 4` key right after `scale`. Such a checkpoint must
        // still decode, and resume to exactly the uninterrupted run.
        let mut ckpt = sample(0);
        let (apps, config) = ckpt.spec.build().unwrap();
        let direct = taopt::run_campaign(apps, &config).coverage_report();
        let (apps, config) = ckpt.spec.build().unwrap();
        let mut campaign = taopt::Campaign::new(apps, &config);
        for _ in 0..4 {
            assert!(campaign.advance_round());
        }
        ckpt.round = campaign.round();
        ckpt.digest = Some(campaign.digest());
        drop(campaign);

        let Value::Object(mut fields) = ckpt.to_value() else {
            panic!("checkpoint serializes to an object")
        };
        let Some((_, Value::Object(spec))) = fields.iter_mut().find(|(k, _)| k == "spec") else {
            panic!("checkpoint carries a spec object")
        };
        spec.insert(3, ("workers".to_owned(), Value::UInt(4)));
        let payload = Value::Object(fields).to_json_string();
        let text = format!(
            "{MAGIC} v{CHECKPOINT_VERSION} fnv64={:016x} len={}\n{payload}",
            fnv64(payload.as_bytes()),
            payload.len()
        );

        let back = decode(&text, "legacy").unwrap();
        assert_eq!(back.spec, ckpt.spec);
        let (apps, config) = back.spec.build().unwrap();
        let mut resumed = taopt::Campaign::new(apps, &config);
        while resumed.round() < back.round {
            assert!(resumed.advance_round(), "replay ended early");
        }
        assert_eq!(back.digest.unwrap().diff(&resumed.digest()), None);
        while resumed.advance_round() {}
        assert_eq!(resumed.finish().coverage_report(), direct);
    }

    #[test]
    fn remove_failure_is_counted_not_swallowed() {
        let store = tmp_store("remove-err");
        let counter = taopt_telemetry::global().counter("service_checkpoint_remove_errors_total");
        // Missing file: fine, not an error.
        let before = counter.get();
        store.remove(42);
        assert_eq!(counter.get(), before);
        // A directory squatting on the checkpoint path: remove_file fails
        // and the failure must be counted.
        fs::create_dir_all(store.path_for(42)).unwrap();
        store.remove(42);
        assert_eq!(counter.get(), before + 1);
    }

    #[test]
    fn truncated_checkpoint_is_rejected_cleanly() {
        let store = tmp_store("truncate");
        let path = store.save(&sample(5)).unwrap();
        let full = fs::read_to_string(&path).unwrap();
        for cut in [full.len() / 4, full.len() / 2, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            match store.load(&path) {
                Err(ServiceError::Corrupt { .. }) => {}
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_byte_is_a_checksum_error() {
        let store = tmp_store("flip");
        let path = store.save(&sample(5)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let idx = bytes.len() - 10;
        bytes[idx] = bytes[idx].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(&path),
            Err(ServiceError::Corrupt { .. })
        ));
    }

    #[test]
    fn alien_and_future_version_files_are_rejected() {
        let store = tmp_store("alien");
        let path = store.path_for(1);
        fs::write(&path, "not a checkpoint at all").unwrap();
        assert!(matches!(
            store.load(&path),
            Err(ServiceError::Corrupt { .. })
        ));
        fs::write(&path, "taopt-checkpoint v99 fnv64=0 len=0\n").unwrap();
        assert!(matches!(
            store.load(&path),
            Err(ServiceError::UnsupportedVersion { found: 99, .. })
        ));
    }
}
