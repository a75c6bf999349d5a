//! Seeded fault plans — reproducible chaos schedules.
//!
//! A [`FaultPlan`] turns per-seam fault **rates** into deterministic
//! per-query decisions. Instead of materializing a schedule up front, each
//! decision is a pure function of `(seed, seam, query key)`: the same plan
//! asked the same question always answers the same way, regardless of the
//! order in which seams are exercised. That makes runs bit-reproducible
//! under recovery (a retry re-asks a *new* key rather than perturbing a
//! shared RNG stream) and keeps the plan itself trivially serializable —
//! it is just the seed and the rates.

use taopt_ui_model::json::{JsonError, Value};
use taopt_ui_model::VirtualDuration;

/// Lane offset between apps sharing one fault plan: app `i` draws its
/// lane-scoped decisions (latency, bus, enforcement) from lanes
/// `(i << APP_LANE_SHIFT) + instance`, so per-app fault streams are
/// decorrelated yet reproducible. Every app's `d_max` must stay below
/// `1 << APP_LANE_SHIFT`.
pub const APP_LANE_SHIFT: u32 = 16;

/// The three seams faults are injected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Seam {
    /// The device farm / emulator boundary.
    Device,
    /// The transport carrying trace events from instances to the
    /// coordinator.
    EventBus,
    /// Block-rule broadcasts from the coordinator to instances.
    Enforcement,
}

impl Seam {
    fn tag(self) -> u64 {
        match self {
            Seam::Device => 0x1111_0000_0000_0001,
            Seam::EventBus => 0x2222_0000_0000_0002,
            Seam::Enforcement => 0x3333_0000_0000_0003,
        }
    }

    /// Human-readable seam name.
    pub fn label(self) -> &'static str {
        match self {
            Seam::Device => "device",
            Seam::EventBus => "event-bus",
            Seam::Enforcement => "enforcement",
        }
    }
}

/// Per-seam fault probabilities. All rates are per *opportunity* (one
/// coordination tick for device loss, one event for bus faults, one
/// broadcast delivery for enforcement failures) in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability an allocated device dies during one coordination tick.
    pub device_loss: f64,
    /// Probability the farm refuses an allocation attempt despite
    /// having capacity.
    pub alloc_refusal: f64,
    /// Probability one action suffers a latency spike.
    pub latency_spike: f64,
    /// Extra latency added by a spike.
    pub spike_extra: VirtualDuration,
    /// Probability a published trace event is dropped before the
    /// analyzer sees it.
    pub event_drop: f64,
    /// Probability a published trace event is delivered twice.
    pub event_duplicate: f64,
    /// Probability a published trace event is delayed by one delivery
    /// round (re-ordered behind newer events).
    pub event_delay: f64,
    /// Probability a block-rule broadcast fails to apply at one instance.
    pub enforcement_failure: f64,
}

impl FaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        FaultRates {
            device_loss: 0.0,
            alloc_refusal: 0.0,
            latency_spike: 0.0,
            spike_extra: VirtualDuration::from_secs(10),
            event_drop: 0.0,
            event_duplicate: 0.0,
            event_delay: 0.0,
            enforcement_failure: 0.0,
        }
    }

    /// A uniform profile: every per-opportunity rate set to `rate`
    /// (device loss scaled down — losing a device is catastrophic
    /// compared to losing one event, so ticks use a tenth of the rate).
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        FaultRates {
            device_loss: rate / 10.0,
            alloc_refusal: rate,
            latency_spike: rate,
            spike_extra: VirtualDuration::from_secs(10),
            event_drop: rate,
            event_duplicate: rate,
            event_delay: rate,
            enforcement_failure: rate,
        }
    }

    /// Serializes the rates as JSON object fields.
    fn to_fields(self) -> Vec<(String, Value)> {
        vec![
            ("device_loss".to_owned(), Value::from(self.device_loss)),
            ("alloc_refusal".to_owned(), Value::from(self.alloc_refusal)),
            ("latency_spike".to_owned(), Value::from(self.latency_spike)),
            (
                "spike_extra_ms".to_owned(),
                Value::from(self.spike_extra.as_millis()),
            ),
            ("event_drop".to_owned(), Value::from(self.event_drop)),
            (
                "event_duplicate".to_owned(),
                Value::from(self.event_duplicate),
            ),
            ("event_delay".to_owned(), Value::from(self.event_delay)),
            (
                "enforcement_failure".to_owned(),
                Value::from(self.enforcement_failure),
            ),
        ]
    }

    /// Deserializes rates written by [`FaultRates::to_fields`].
    fn from_object(v: &Value) -> Result<Self, JsonError> {
        let f = |key: &str| -> Result<f64, JsonError> {
            v.require(key)?
                .as_f64()
                .ok_or_else(|| JsonError::conversion(format!("field `{key}` must be a number")))
        };
        Ok(FaultRates {
            device_loss: f("device_loss")?,
            alloc_refusal: f("alloc_refusal")?,
            latency_spike: f("latency_spike")?,
            spike_extra: VirtualDuration::from_millis(
                v.require("spike_extra_ms")?
                    .as_u64()
                    .ok_or_else(|| JsonError::conversion("spike_extra_ms must be a u64"))?,
            ),
            event_drop: f("event_drop")?,
            event_duplicate: f("event_duplicate")?,
            event_delay: f("event_delay")?,
            enforcement_failure: f("enforcement_failure")?,
        })
    }
}

/// A reproducible chaos schedule: a seed plus per-seam rates.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

impl FaultPlan {
    /// Builds a plan from a seed and rates.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan { seed, rates }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rates.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// Uniform pseudo-random value in `[0, 1)` for a `(seam, key)` query.
    ///
    /// SplitMix64 finalizer over the combined bits; each distinct key
    /// yields an independent-looking decision, and the same key always
    /// yields the same one.
    fn roll(&self, seam: Seam, key: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(seam.tag())
            .wrapping_add(key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Packs an `(instance, counter)` pair into one query key.
    fn key(instance: u32, counter: u64) -> u64 {
        ((instance as u64) << 48) ^ (counter & 0xFFFF_FFFF_FFFF)
    }

    /// Should `instance`'s device die during coordination tick `tick`?
    pub fn device_loss(&self, instance: u32, tick: u64) -> bool {
        self.roll(Seam::Device, Self::key(instance, tick)) < self.rates.device_loss
    }

    /// Should global allocation attempt number `attempt` be refused?
    pub fn alloc_refusal(&self, attempt: u64) -> bool {
        self.roll(Seam::Device, Self::key(u32::MAX, attempt)) < self.rates.alloc_refusal
    }

    /// Latency spike for `instance`'s `step`-th action, if any.
    pub fn latency_spike(&self, instance: u32, step: u64) -> Option<VirtualDuration> {
        let key = Self::key(instance, step) ^ 0x5A5A;
        (self.roll(Seam::Device, key) < self.rates.latency_spike).then_some(self.rates.spike_extra)
    }

    /// Should the event with sequence number `seq` from `instance` be
    /// dropped?
    pub fn event_drop(&self, instance: u32, seq: u64) -> bool {
        self.roll(Seam::EventBus, Self::key(instance, seq)) < self.rates.event_drop
    }

    /// Should that event be delivered twice?
    pub fn event_duplicate(&self, instance: u32, seq: u64) -> bool {
        let key = Self::key(instance, seq) ^ 0xD0D0;
        self.roll(Seam::EventBus, key) < self.rates.event_duplicate
    }

    /// Should that event be delayed one delivery round?
    pub fn event_delay(&self, instance: u32, seq: u64) -> bool {
        let key = Self::key(instance, seq) ^ 0xDE1A;
        self.roll(Seam::EventBus, key) < self.rates.event_delay
    }

    /// Should delivery number `attempt` of broadcast `broadcast` fail to
    /// apply at `instance`?
    pub fn enforcement_failure(&self, instance: u32, broadcast: u64, attempt: u64) -> bool {
        let key = Self::key(instance, broadcast.wrapping_mul(1009).wrapping_add(attempt));
        self.roll(Seam::Enforcement, key) < self.rates.enforcement_failure
    }

    /// Serializes the plan (seed + rates) to a JSON value.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![("seed".to_owned(), Value::from(self.seed))];
        fields.extend(self.rates.to_fields());
        Value::Object(fields)
    }

    /// Deserializes a plan written by [`FaultPlan::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on missing or mistyped fields.
    pub fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(FaultPlan {
            seed: v
                .require("seed")?
                .as_u64()
                .ok_or_else(|| JsonError::conversion("seed must be a u64"))?,
            rates: FaultRates::from_object(v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plan = FaultPlan::new(42, FaultRates::uniform(0.2));
        let forward: Vec<bool> = (0..100).map(|s| plan.event_drop(3, s)).collect();
        let backward: Vec<bool> = (0..100).rev().map(|s| plan.event_drop(3, s)).collect();
        let reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        let again = FaultPlan::new(42, FaultRates::uniform(0.2));
        assert_eq!(
            forward,
            (0..100).map(|s| again.event_drop(3, s)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rates_are_respected_empirically() {
        let plan = FaultPlan::new(7, FaultRates::uniform(0.25));
        let n = 20_000u64;
        let drops = (0..n).filter(|s| plan.event_drop(0, *s)).count() as f64 / n as f64;
        assert!(
            (drops - 0.25).abs() < 0.02,
            "drop rate {drops} far from 0.25"
        );
        let zero = FaultPlan::new(7, FaultRates::none());
        assert!((0..n).all(|s| !zero.event_drop(0, s)));
        assert!((0..n).all(|t| !zero.device_loss(0, t)));
    }

    #[test]
    fn seams_and_instances_decorrelate() {
        let plan = FaultPlan::new(1, FaultRates::uniform(0.5));
        let a: Vec<bool> = (0..200).map(|s| plan.event_drop(1, s)).collect();
        let b: Vec<bool> = (0..200).map(|s| plan.event_drop(2, s)).collect();
        let c: Vec<bool> = (0..200).map(|s| plan.event_duplicate(1, s)).collect();
        assert_ne!(a, b, "two instances should not share a fault stream");
        assert_ne!(a, c, "two fault kinds should not share a stream");
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let mut rates = FaultRates::uniform(0.1);
        rates.spike_extra = VirtualDuration::from_secs(25);
        let plan = FaultPlan::new(0xFEED_FACE_CAFE_BEEF, rates);
        let text = plan.to_value().to_json_string();
        let back = FaultPlan::from_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan);
        // Same decisions after the roundtrip.
        for s in 0..50 {
            assert_eq!(plan.event_drop(5, s), back.event_drop(5, s));
            assert_eq!(
                plan.enforcement_failure(2, s, 0),
                back.enforcement_failure(2, s, 0)
            );
        }
    }
}
