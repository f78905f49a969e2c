//! Replayable counterexample artifacts.
//!
//! When a campaign finds (and shrinks) a divergence, the evidence is
//! written as a self-contained `.json` file: the true parameters, the
//! injected fault (if any), the policy, the subject's execution mode, the
//! minimized trace, and the observed divergence. `repro conformance --replay
//! <file>` reloads the file and re-runs the exact case, so a failure
//! found in CI reproduces on any machine with just the artifact.

use crate::differ::{run_case, CaseSpec, Divergence, Mode};
use crate::fault::Fault;
use crate::json::Json;
use rsc_control::{ControllerParams, EvictionMode, MonitorPolicy, Policy, Revisit};
use rsc_trace::{BranchId, BranchRecord};
use std::path::Path;

/// A minimized, replayable divergence report.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Name of the adversarial scenario that produced the trace.
    pub scenario: String,
    /// Seed the trace (and chunk layout) derived from.
    pub seed: u64,
    /// Fault injected into the subject, if this was a harness self-test.
    pub fault: Option<Fault>,
    /// The policy both sides ran: a built-in at its default
    /// configuration, stored by id. An artifact without one predates
    /// policy artifacts and ran `paper-fsm`.
    pub policy: Policy,
    /// The true (reference) controller parameters.
    pub params: ControllerParams,
    /// How the subject consumed the trace.
    pub mode: Mode,
    /// The minimized failing trace.
    pub trace: Vec<BranchRecord>,
    /// Description of the divergence observed when the artifact was made.
    pub detail: String,
}

impl Counterexample {
    /// The differential case this artifact captures.
    pub fn spec(&self) -> CaseSpec {
        CaseSpec {
            subject: match self.fault {
                Some(f) => f.apply(self.params),
                None => self.params,
            },
            reference: self.params,
            mode: self.mode,
            resilience: None,
            policy: self.policy,
        }
    }

    /// Re-runs the case on the stored trace.
    ///
    /// # Errors
    ///
    /// Returns the reproduced [`Divergence`] — which is the *expected*
    /// outcome for a genuine artifact. `Ok(())` means the divergence no
    /// longer reproduces (e.g. the bug was fixed).
    pub fn replay(&self) -> Result<(), Divergence> {
        run_case(&self.spec(), &self.trace)
    }

    /// Serializes to a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format", Json::Int(1)),
            ("scenario", Json::str(self.scenario.clone())),
            ("seed", Json::Int(self.seed)),
            (
                "fault",
                match self.fault {
                    Some(f) => Json::str(f.name()),
                    None => Json::Null,
                },
            ),
            ("policy", Json::str(self.policy.id())),
            ("params", params_to_json(&self.params)),
            (
                "mode",
                match self.mode {
                    Mode::PerEvent => Json::obj([("kind", Json::str("per-event"))]),
                    Mode::Chunked { seed } => {
                        Json::obj([("kind", Json::str("chunked")), ("seed", Json::Int(seed))])
                    }
                    Mode::Sharded { shards, seed } => Json::obj([
                        ("kind", Json::str("sharded")),
                        ("shards", Json::Int(shards as u64)),
                        ("seed", Json::Int(seed)),
                    ]),
                },
            ),
            (
                "trace",
                Json::Arr(
                    self.trace
                        .iter()
                        .map(|r| {
                            Json::Arr(vec![
                                Json::Int(r.branch.index() as u64),
                                Json::Bool(r.taken),
                                Json::Int(r.instr),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("detail", Json::str(self.detail.clone())),
        ])
    }

    /// Deserializes from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<Self, ArtifactError> {
        if v.get("format").and_then(Json::as_u64) != Some(1) {
            return Err(ArtifactError::Malformed("unsupported artifact format"));
        }
        let fault = match v.get("fault") {
            None | Some(Json::Null) => None,
            Some(f) => {
                let name = f.as_str().ok_or(ArtifactError::Malformed("fault"))?;
                Some(Fault::from_name(name).ok_or(ArtifactError::Malformed("unknown fault"))?)
            }
        };
        let policy = match v.get("policy") {
            None => Policy::PaperFsm,
            Some(p) => {
                let id = p.as_str().ok_or(ArtifactError::Malformed("policy"))?;
                Policy::builtin(id).ok_or(ArtifactError::Malformed("unknown policy"))?
            }
        };
        let mode_v = v.get("mode").ok_or(ArtifactError::Malformed("mode"))?;
        let mode = match mode_v.get("kind").and_then(Json::as_str) {
            Some("per-event") => Mode::PerEvent,
            Some("chunked") => Mode::Chunked {
                seed: field_u64(mode_v, "seed")?,
            },
            Some("sharded") => {
                let shards = usize::try_from(field_u64(mode_v, "shards")?)
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(ArtifactError::Malformed("mode.shards"))?;
                Mode::Sharded {
                    shards,
                    seed: field_u64(mode_v, "seed")?,
                }
            }
            _ => return Err(ArtifactError::Malformed("mode.kind")),
        };
        let trace = v
            .get("trace")
            .and_then(Json::as_arr)
            .ok_or(ArtifactError::Malformed("trace"))?
            .iter()
            .map(|item| {
                let t = item.as_arr().filter(|t| t.len() == 3)?;
                Some(BranchRecord {
                    branch: BranchId::new(u32::try_from(t[0].as_u64()?).ok()?),
                    taken: t[1].as_bool()?,
                    instr: t[2].as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or(ArtifactError::Malformed("trace entry"))?;
        Ok(Counterexample {
            scenario: v
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or(ArtifactError::Malformed("scenario"))?
                .to_string(),
            seed: field_u64(v, "seed")?,
            fault,
            policy,
            params: params_from_json(v.get("params").ok_or(ArtifactError::Malformed("params"))?)?,
            mode,
            trace,
            detail: v
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }

    /// Writes the artifact to `path` (creating parent directories).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json().to_string())
    }

    /// Reads an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Returns I/O, JSON syntax, or schema errors.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let text = std::fs::read_to_string(path).map_err(ArtifactError::Io)?;
        let v = Json::parse(&text).map_err(ArtifactError::Json)?;
        Counterexample::from_json(&v)
    }
}

/// Why an artifact could not be loaded.
#[derive(Debug)]
pub enum ArtifactError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Json(crate::json::JsonError),
    /// The JSON does not match the artifact schema.
    Malformed(&'static str),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "cannot read artifact: {e}"),
            ArtifactError::Json(e) => write!(f, "artifact is not valid json: {e}"),
            ArtifactError::Malformed(what) => write!(f, "malformed artifact field: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

fn field_u64(v: &Json, key: &'static str) -> Result<u64, ArtifactError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or(ArtifactError::Malformed(key))
}

fn field_f64(v: &Json, key: &'static str) -> Result<f64, ArtifactError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or(ArtifactError::Malformed(key))
}

/// Serializes controller parameters to the artifact JSON schema
/// (shared with the fuzz corpus format).
pub fn params_to_json(p: &ControllerParams) -> Json {
    Json::obj([
        ("monitor_period", Json::Int(p.monitor_period)),
        (
            "monitor_policy",
            match p.monitor_policy {
                MonitorPolicy::FixedWindow => Json::obj([("kind", Json::str("fixed-window"))]),
                MonitorPolicy::Confidence {
                    z,
                    min_execs,
                    max_execs,
                } => Json::obj([
                    ("kind", Json::str("confidence")),
                    ("z", Json::Num(z)),
                    ("min_execs", Json::Int(min_execs)),
                    ("max_execs", Json::Int(max_execs)),
                ]),
            },
        ),
        ("monitor_sample_rate", Json::Int(p.monitor_sample_rate)),
        ("selection_threshold", Json::Num(p.selection_threshold)),
        (
            "eviction",
            match p.eviction {
                EvictionMode::Counter {
                    up,
                    down,
                    threshold,
                } => Json::obj([
                    ("kind", Json::str("counter")),
                    ("up", Json::Int(u64::from(up))),
                    ("down", Json::Int(u64::from(down))),
                    ("threshold", Json::Int(u64::from(threshold))),
                ]),
                EvictionMode::Sampling {
                    period,
                    samples,
                    bias_threshold,
                } => Json::obj([
                    ("kind", Json::str("sampling")),
                    ("period", Json::Int(period)),
                    ("samples", Json::Int(samples)),
                    ("bias_threshold", Json::Num(bias_threshold)),
                ]),
                EvictionMode::Never => Json::obj([("kind", Json::str("never"))]),
            },
        ),
        (
            "revisit",
            match p.revisit {
                Revisit::After(n) => Json::obj([("kind", Json::str("after")), ("n", Json::Int(n))]),
                Revisit::Never => Json::obj([("kind", Json::str("never"))]),
            },
        ),
        (
            "oscillation_limit",
            match p.oscillation_limit {
                Some(n) => Json::Int(u64::from(n)),
                None => Json::Null,
            },
        ),
        ("optimization_latency", Json::Int(p.optimization_latency)),
    ])
}

/// Parses controller parameters from the artifact JSON schema; inverse
/// of [`params_to_json`].
pub fn params_from_json(v: &Json) -> Result<ControllerParams, ArtifactError> {
    let monitor_v = v
        .get("monitor_policy")
        .ok_or(ArtifactError::Malformed("monitor_policy"))?;
    let monitor_policy = match monitor_v.get("kind").and_then(Json::as_str) {
        Some("fixed-window") => MonitorPolicy::FixedWindow,
        Some("confidence") => MonitorPolicy::Confidence {
            z: field_f64(monitor_v, "z")?,
            min_execs: field_u64(monitor_v, "min_execs")?,
            max_execs: field_u64(monitor_v, "max_execs")?,
        },
        _ => return Err(ArtifactError::Malformed("monitor_policy.kind")),
    };
    let eviction_v = v
        .get("eviction")
        .ok_or(ArtifactError::Malformed("eviction"))?;
    let eviction = match eviction_v.get("kind").and_then(Json::as_str) {
        Some("counter") => EvictionMode::Counter {
            up: narrow_u32(field_u64(eviction_v, "up")?)?,
            down: narrow_u32(field_u64(eviction_v, "down")?)?,
            threshold: narrow_u32(field_u64(eviction_v, "threshold")?)?,
        },
        Some("sampling") => EvictionMode::Sampling {
            period: field_u64(eviction_v, "period")?,
            samples: field_u64(eviction_v, "samples")?,
            bias_threshold: field_f64(eviction_v, "bias_threshold")?,
        },
        Some("never") => EvictionMode::Never,
        _ => return Err(ArtifactError::Malformed("eviction.kind")),
    };
    let revisit_v = v
        .get("revisit")
        .ok_or(ArtifactError::Malformed("revisit"))?;
    let revisit = match revisit_v.get("kind").and_then(Json::as_str) {
        Some("after") => Revisit::After(field_u64(revisit_v, "n")?),
        Some("never") => Revisit::Never,
        _ => return Err(ArtifactError::Malformed("revisit.kind")),
    };
    let oscillation_limit = match v.get("oscillation_limit") {
        None | Some(Json::Null) => None,
        Some(n) => Some(narrow_u32(
            n.as_u64()
                .ok_or(ArtifactError::Malformed("oscillation_limit"))?,
        )?),
    };
    let params = ControllerParams {
        monitor_period: field_u64(v, "monitor_period")?,
        monitor_policy,
        monitor_sample_rate: field_u64(v, "monitor_sample_rate")?,
        selection_threshold: field_f64(v, "selection_threshold")?,
        eviction,
        revisit,
        oscillation_limit,
        optimization_latency: field_u64(v, "optimization_latency")?,
    };
    params
        .validate()
        .map_err(|_| ArtifactError::Malformed("params fail validation"))?;
    Ok(params)
}

fn narrow_u32(n: u64) -> Result<u32, ArtifactError> {
    u32::try_from(n).map_err(|_| ArtifactError::Malformed("value exceeds u32"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(mode: Mode, params: ControllerParams) -> Counterexample {
        Counterexample {
            scenario: "hysteresis_straddle".to_string(),
            seed: 7,
            fault: Some(Fault::HysteresisOffByOne),
            policy: Policy::PaperFsm,
            params,
            mode,
            trace: vec![
                BranchRecord {
                    branch: BranchId::new(0),
                    taken: true,
                    instr: 5,
                },
                BranchRecord {
                    branch: BranchId::new(1),
                    taken: false,
                    instr: 12,
                },
            ],
            detail: "decision mismatch on branch 0".to_string(),
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        for mode in [
            Mode::PerEvent,
            Mode::Chunked { seed: 99 },
            Mode::Sharded {
                shards: 4,
                seed: 99,
            },
        ] {
            for params in [
                ControllerParams::scaled(),
                ControllerParams::table2()
                    .with_sampled_eviction()
                    .with_confidence_monitor(2.58, 4, 32)
                    .without_revisit(),
            ] {
                let cx = sample(mode, params);
                let text = cx.to_json().to_string();
                let back = Counterexample::from_json(&Json::parse(&text).unwrap()).unwrap();
                assert_eq!(back, cx);
            }
        }
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("rsc_conformance_artifact_test");
        let path = dir.join("cx.json");
        let cx = sample(Mode::PerEvent, ControllerParams::scaled());
        cx.save(&path).unwrap();
        let back = Counterexample::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back, cx);
    }

    #[test]
    fn rejects_unknown_format_and_bad_fields() {
        assert!(matches!(
            Counterexample::from_json(&Json::obj([("format", Json::Int(2))])),
            Err(ArtifactError::Malformed(_))
        ));
        let mut cx = sample(Mode::PerEvent, ControllerParams::scaled()).to_json();
        if let Json::Obj(pairs) = &mut cx {
            pairs.retain(|(k, _)| k != "trace");
        }
        assert!(Counterexample::from_json(&cx).is_err());
    }

    #[test]
    fn invalid_params_are_rejected_on_load() {
        let mut v = sample(Mode::PerEvent, ControllerParams::scaled()).to_json();
        if let Some(Json::Obj(pairs)) = {
            if let Json::Obj(top) = &mut v {
                top.iter_mut().find(|(k, _)| k == "params").map(|(_, p)| p)
            } else {
                None
            }
        } {
            for (k, val) in pairs.iter_mut() {
                if k == "monitor_period" {
                    *val = Json::Int(0);
                }
            }
        }
        assert!(matches!(
            Counterexample::from_json(&v),
            Err(ArtifactError::Malformed("params fail validation"))
        ));
    }

    fn set_key(v: &mut Json, key: &str, value: Option<Json>) {
        let Json::Obj(pairs) = v else { unreachable!() };
        pairs.retain(|(k, _)| k != key);
        if let Some(value) = value {
            pairs.push((key.to_string(), value));
        }
    }

    #[test]
    fn every_builtin_policy_roundtrips() {
        for id in rsc_control::BUILTIN_POLICY_IDS {
            let cx = Counterexample {
                policy: Policy::builtin(id).unwrap(),
                ..sample(Mode::Chunked { seed: 3 }, ControllerParams::scaled())
            };
            let text = cx.to_json().to_string();
            let back = Counterexample::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, cx, "{id}");
        }
    }

    #[test]
    fn artifact_without_a_policy_loads_as_paper_fsm() {
        let cx = sample(Mode::PerEvent, ControllerParams::scaled());
        let mut v = cx.to_json();
        set_key(&mut v, "policy", None);
        let back = Counterexample::from_json(&v).unwrap();
        assert_eq!(back.policy, Policy::PaperFsm);
        assert_eq!(back, cx);
    }

    #[test]
    fn unknown_policy_is_refused() {
        let mut v = sample(Mode::PerEvent, ControllerParams::scaled()).to_json();
        set_key(&mut v, "policy", Some(Json::str("martian-fsm")));
        assert!(matches!(
            Counterexample::from_json(&v),
            Err(ArtifactError::Malformed("unknown policy"))
        ));
    }

    #[test]
    fn faulted_perceptron_case_shrinks_saves_and_replays() {
        use crate::campaign::{param_matrix, scenarios_for};
        use crate::shrink::shrink;

        let fault = Fault::MonitorWindowOffByOne;
        let (_, params) = param_matrix()[0];
        let scenario = scenarios_for(&params)[4];
        let trace = scenario.generate(2_000, 5);
        let mut cx = Counterexample {
            scenario: scenario.name().to_string(),
            seed: 5,
            fault: Some(fault),
            policy: Policy::builtin("perceptron").unwrap(),
            params,
            mode: Mode::Chunked { seed: 5 },
            trace,
            detail: String::new(),
        };
        let (small, div) = shrink(&cx.spec(), &cx.trace);
        assert!(small.len() < cx.trace.len(), "shrinking must cut the trace");
        cx.trace = small;
        cx.detail = div.to_string();

        let path = std::env::temp_dir()
            .join("rsc_conformance_policy_artifact_test")
            .join("cx.json");
        cx.save(&path).unwrap();
        let back = Counterexample::load(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        assert_eq!(back, cx);
        assert!(back.replay().is_err(), "reloaded artifact must diverge");
    }
}
