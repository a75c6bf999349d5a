//! Campaign digests: the logical state a checkpoint pins.
//!
//! A campaign's full in-memory state (emulators, tool RNGs, coordinator
//! engines) is deliberately not serializable — the runtime is
//! deterministic instead, so durable checkpoints store the *spec* plus a
//! [`CampaignDigest`]: an order-independent fingerprint of everything
//! scheduling can influence at a round boundary. A restore rebuilds the
//! campaign from its spec, replays to the checkpointed round, and proves
//! convergence by digest equality; from there, continuing produces a
//! result byte-identical to the uninterrupted run (DESIGN.md §13).
//!
//! Every field is a pure function of `(spec, round)` for the
//! deterministic scheduler — host budget, thread timing and host load
//! cannot move any of them.

use taopt_ui_model::json::{JsonError, Value};

use crate::campaign::step::StepProgress;

/// One app's slice of a campaign digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotDigest {
    /// App name (report key).
    pub name: String,
    /// Session fingerprint while the app is live; `None` once finished.
    pub progress: Option<StepProgress>,
    /// Global rounds spent holding zero devices.
    pub wait_rounds: u64,
    /// Lost devices successfully replaced so far.
    pub replacements: u64,
    /// Devices killed under this app so far.
    pub devices_lost: u64,
}

/// An order-independent fingerprint of a campaign at a round boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignDigest {
    /// Global round the digest was taken at.
    pub round: u64,
    /// Per-app slices, in input order.
    pub slots: Vec<SlotDigest>,
    /// Current `(device id, holder app)` pairs, in device-id order.
    pub leased: Vec<(u64, u64)>,
    /// Ledger lifetime counters: grants.
    pub grants: u64,
    /// Ledger lifetime counters: voluntary releases.
    pub releases: u64,
    /// Ledger lifetime counters: kills.
    pub kills: u64,
    /// Double-allocation events (must stay 0).
    pub conflicts: u64,
    /// Devices currently allocated in the farm.
    pub pool_active: u64,
    /// Devices permanently lost so far.
    pub pool_lost: u64,
    /// High-water mark of concurrent allocations.
    pub pool_peak: u64,
    /// Starvation revocations performed so far.
    pub revocations: u64,
    /// Faults injected so far (0 without a fault plan).
    pub faults_injected: u64,
    /// Recoveries observed so far (0 without a fault plan).
    pub faults_recovered: u64,
}

impl CampaignDigest {
    /// Human-readable description of the first field where `self` and
    /// `other` disagree, or `None` when they are equal. Restore paths use
    /// this to turn a digest mismatch into an actionable error.
    pub fn diff(&self, other: &CampaignDigest) -> Option<String> {
        if self.round != other.round {
            return Some(format!("round: {} vs {}", self.round, other.round));
        }
        macro_rules! check {
            ($field:ident) => {
                if self.$field != other.$field {
                    return Some(format!(
                        "{}: {:?} vs {:?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        check!(leased);
        check!(grants);
        check!(releases);
        check!(kills);
        check!(conflicts);
        check!(pool_active);
        check!(pool_lost);
        check!(pool_peak);
        check!(revocations);
        check!(faults_injected);
        check!(faults_recovered);
        if self.slots.len() != other.slots.len() {
            return Some(format!(
                "slot count: {} vs {}",
                self.slots.len(),
                other.slots.len()
            ));
        }
        for (i, (a, b)) in self.slots.iter().zip(other.slots.iter()).enumerate() {
            if a != b {
                return Some(format!("slot {i} ({}): {a:?} vs {b:?}", a.name));
            }
        }
        None
    }

    /// Serializes the digest to a JSON value.
    pub fn to_value(&self) -> Value {
        let slots = self
            .slots
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".to_owned(), Value::Str(s.name.clone())),
                    ("wait_rounds".to_owned(), Value::UInt(s.wait_rounds)),
                    ("replacements".to_owned(), Value::UInt(s.replacements)),
                    ("devices_lost".to_owned(), Value::UInt(s.devices_lost)),
                ];
                if let Some(p) = &s.progress {
                    let active = p
                        .active
                        .iter()
                        .map(|(iid, dev, trace)| {
                            Value::Array(vec![
                                Value::UInt(*iid as u64),
                                Value::UInt(*dev),
                                Value::UInt(*trace),
                            ])
                        })
                        .collect();
                    fields.push((
                        "progress".to_owned(),
                        Value::Object(vec![
                            ("round".to_owned(), Value::UInt(p.round)),
                            ("now_ms".to_owned(), Value::UInt(p.now_ms)),
                            ("machine_ms".to_owned(), Value::UInt(p.machine_ms)),
                            ("union".to_owned(), Value::UInt(p.union as u64)),
                            (
                                "finished_instances".to_owned(),
                                Value::UInt(p.finished_instances as u64),
                            ),
                            (
                                "next_instance".to_owned(),
                                Value::UInt(p.next_instance as u64),
                            ),
                            ("done".to_owned(), Value::Bool(p.done)),
                            ("active".to_owned(), Value::Array(active)),
                        ]),
                    ));
                }
                Value::Object(fields)
            })
            .collect();
        let leased = self
            .leased
            .iter()
            .map(|(d, a)| Value::Array(vec![Value::UInt(*d), Value::UInt(*a)]))
            .collect();
        Value::Object(vec![
            ("round".to_owned(), Value::UInt(self.round)),
            ("slots".to_owned(), Value::Array(slots)),
            ("leased".to_owned(), Value::Array(leased)),
            ("grants".to_owned(), Value::UInt(self.grants)),
            ("releases".to_owned(), Value::UInt(self.releases)),
            ("kills".to_owned(), Value::UInt(self.kills)),
            ("conflicts".to_owned(), Value::UInt(self.conflicts)),
            ("pool_active".to_owned(), Value::UInt(self.pool_active)),
            ("pool_lost".to_owned(), Value::UInt(self.pool_lost)),
            ("pool_peak".to_owned(), Value::UInt(self.pool_peak)),
            ("revocations".to_owned(), Value::UInt(self.revocations)),
            (
                "faults_injected".to_owned(),
                Value::UInt(self.faults_injected),
            ),
            (
                "faults_recovered".to_owned(),
                Value::UInt(self.faults_recovered),
            ),
        ])
    }

    /// Deserializes a digest, failing with [`JsonError`] on missing or
    /// mistyped fields.
    pub fn from_value(v: &Value) -> Result<Self, JsonError> {
        let u = |val: &Value, key: &str| -> Result<u64, JsonError> {
            val.require(key)?
                .as_u64()
                .ok_or_else(|| JsonError::conversion(format!("field `{key}` must be a u64")))
        };
        let slots_v = v
            .require("slots")?
            .as_array()
            .ok_or_else(|| JsonError::conversion("slots must be an array"))?;
        let mut slots = Vec::with_capacity(slots_v.len());
        for sv in slots_v {
            let name = sv
                .require("name")?
                .as_str()
                .ok_or_else(|| JsonError::conversion("slot name must be a string"))?
                .to_owned();
            let progress = match sv.get("progress") {
                None | Some(Value::Null) => None,
                Some(pv) => {
                    let active_v = pv
                        .require("active")?
                        .as_array()
                        .ok_or_else(|| JsonError::conversion("active must be an array"))?;
                    let mut active = Vec::with_capacity(active_v.len());
                    for av in active_v {
                        let triple = av.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                            JsonError::conversion("active entry must be a triple")
                        })?;
                        let n = |i: usize| -> Result<u64, JsonError> {
                            triple[i].as_u64().ok_or_else(|| {
                                JsonError::conversion("active entry fields must be u64")
                            })
                        };
                        active.push((n(0)? as u32, n(1)?, n(2)?));
                    }
                    Some(StepProgress {
                        round: u(pv, "round")?,
                        now_ms: u(pv, "now_ms")?,
                        machine_ms: u(pv, "machine_ms")?,
                        union: u(pv, "union")? as usize,
                        finished_instances: u(pv, "finished_instances")? as usize,
                        next_instance: u(pv, "next_instance")? as u32,
                        done: matches!(pv.require("done")?, Value::Bool(true)),
                        active,
                    })
                }
            };
            slots.push(SlotDigest {
                name,
                progress,
                wait_rounds: u(sv, "wait_rounds")?,
                replacements: u(sv, "replacements")?,
                devices_lost: u(sv, "devices_lost")?,
            });
        }
        let leased_v = v
            .require("leased")?
            .as_array()
            .ok_or_else(|| JsonError::conversion("leased must be an array"))?;
        let mut leased = Vec::with_capacity(leased_v.len());
        for lv in leased_v {
            let pair = lv
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| JsonError::conversion("leased entry must be a pair"))?;
            let n = |i: usize| -> Result<u64, JsonError> {
                pair[i]
                    .as_u64()
                    .ok_or_else(|| JsonError::conversion("leased entry fields must be u64"))
            };
            leased.push((n(0)?, n(1)?));
        }
        Ok(CampaignDigest {
            round: u(v, "round")?,
            slots,
            leased,
            grants: u(v, "grants")?,
            releases: u(v, "releases")?,
            kills: u(v, "kills")?,
            conflicts: u(v, "conflicts")?,
            pool_active: u(v, "pool_active")?,
            pool_lost: u(v, "pool_lost")?,
            pool_peak: u(v, "pool_peak")?,
            revocations: u(v, "revocations")?,
            faults_injected: u(v, "faults_injected")?,
            faults_recovered: u(v, "faults_recovered")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignDigest {
        CampaignDigest {
            round: 7,
            slots: vec![
                SlotDigest {
                    name: "shop".to_owned(),
                    progress: Some(StepProgress {
                        round: 5,
                        now_ms: 50_000,
                        machine_ms: 90_000,
                        union: 42,
                        finished_instances: 1,
                        next_instance: 3,
                        done: false,
                        active: vec![(1, 4, 120), (2, 9, 87)],
                    }),
                    wait_rounds: 2,
                    replacements: 1,
                    devices_lost: 1,
                },
                SlotDigest {
                    name: "news".to_owned(),
                    progress: None,
                    wait_rounds: 0,
                    replacements: 0,
                    devices_lost: 0,
                },
            ],
            leased: vec![(4, 0), (9, 0)],
            grants: 6,
            releases: 2,
            kills: 1,
            conflicts: 0,
            pool_active: 2,
            pool_lost: 1,
            pool_peak: 4,
            revocations: 1,
            faults_injected: 3,
            faults_recovered: 2,
        }
    }

    #[test]
    fn digest_roundtrips_through_json() {
        let d = sample();
        let text = d.to_value().to_json_string();
        let back = CampaignDigest::from_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(d, back);
        assert_eq!(d.diff(&back), None);
    }

    #[test]
    fn diff_names_the_first_divergent_field() {
        let a = sample();
        let mut b = sample();
        b.grants = 7;
        let msg = a.diff(&b).expect("digests differ");
        assert!(msg.contains("grants"), "got: {msg}");

        let mut c = sample();
        c.slots[0].progress.as_mut().unwrap().union = 43;
        let msg = a.diff(&c).expect("digests differ");
        assert!(msg.contains("slot 0"), "got: {msg}");
    }

    #[test]
    fn malformed_digest_is_a_clean_error() {
        for text in [
            "{}",
            "{\"round\": 1}",
            "{\"round\": \"x\", \"slots\": [], \"leased\": []}",
        ] {
            let v = Value::parse(text).unwrap();
            assert!(CampaignDigest::from_value(&v).is_err());
        }
    }
}
