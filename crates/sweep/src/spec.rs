//! Sweep specifications: the declarative cell matrix behind `bbuster sweep`.
//!
//! A [`SweepSpec`] names four axes — scenarios, software profiles, virtual
//! backgrounds, attacks — plus shared geometry and seeding. Cell enumeration
//! is scenario-major and fully deterministic: the same spec always produces
//! the same [`CellSpec`] list with the same indices and seeds, which is what
//! makes shard-parallel runs mergeable.
//!
//! The workspace has no serialization framework, so the on-disk format is
//! hand-rolled through [`bb_telemetry::json`] (sorted keys, stable float
//! formatting — the same writer the bench reports diff with).

use bb_callsim::{BackgroundId, ProfilePreset, VbMode};
use bb_imaging::filter::MAX_BLUR_RADIUS;
use bb_synth::{Action, Lighting, Speed};
use bb_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::SweepError;

/// Schema identifier embedded in every spec file.
pub const SPEC_SCHEMA: &str = "bb-sweep/spec/v1";

/// One point on the virtual-background axis: a catalog medium or the
/// blur compositor at a given radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VbSpec {
    /// A [`BackgroundId`] from the built-in catalog (image or video).
    Catalog(BackgroundId),
    /// Background blur at the given radius (`blur:R`, radius ≥ 1).
    Blur(usize),
}

impl VbSpec {
    /// Stable identifier (`beach`, `drifting_clouds`, `blur:4`, …).
    pub fn name(&self) -> String {
        match self {
            VbSpec::Catalog(id) => id.name().to_string(),
            VbSpec::Blur(radius) => format!("blur:{radius}"),
        }
    }

    /// The compositor mode this spec names, with catalog media realized at
    /// `w × h`.
    pub fn mode(self, w: usize, h: usize) -> VbMode {
        match self {
            VbSpec::Catalog(id) => VbMode::from(id.realize(w, h)),
            VbSpec::Blur(radius) => VbMode::Blur { radius },
        }
    }
}

impl FromStr for VbSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(radius) = s.strip_prefix("blur:") {
            let radius: usize = radius
                .parse()
                .map_err(|_| format!("bad blur radius in {s:?}"))?;
            if !(1..=MAX_BLUR_RADIUS).contains(&radius) {
                return Err(format!(
                    "blur radius must be in 1..={MAX_BLUR_RADIUS}, got {radius}"
                ));
            }
            return Ok(VbSpec::Blur(radius));
        }
        BackgroundId::from_str(s).map(VbSpec::Catalog)
    }
}

impl fmt::Display for VbSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// One point on the attack axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackSpec {
    /// Reconstruction only, no downstream attack.
    None,
    /// The §VI location-inference attack over the spec's own scenario
    /// rooms (top-1 accuracy).
    Location,
}

impl AttackSpec {
    /// Stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            AttackSpec::None => "none",
            AttackSpec::Location => "location",
        }
    }
}

impl FromStr for AttackSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(AttackSpec::None),
            "location" => Ok(AttackSpec::Location),
            other => Err(format!(
                "unknown attack {other:?} (expected none or location)"
            )),
        }
    }
}

impl fmt::Display for AttackSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One point on the scenario axis: what happens in front of the camera.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique scenario name (doubles as the location-attack label).
    pub name: String,
    /// Caller action.
    pub action: Action,
    /// Action speed.
    pub speed: Speed,
    /// Background lighting.
    pub lighting: Lighting,
    /// Room sampling seed (distinct seeds give distinct rooms).
    pub room_seed: u64,
    /// Number of additional on-camera participants.
    pub companions: usize,
}

fn speed_from_name(s: &str) -> Result<Speed, String> {
    Speed::ALL
        .iter()
        .copied()
        .find(|v| v.name() == s)
        .ok_or_else(|| format!("unknown speed {s:?} (expected slow/average/fast)"))
}

fn lighting_from_name(s: &str) -> Result<Lighting, String> {
    match s {
        "on" => Ok(Lighting::On),
        "off" => Ok(Lighting::Off),
        other => Err(format!("unknown lighting {other:?} (expected on or off)")),
    }
}

fn lighting_name(l: Lighting) -> &'static str {
    match l {
        Lighting::On => "on",
        Lighting::Off => "off",
    }
}

/// The full sweep matrix: shared geometry plus the four cell axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Frame width for every cell.
    pub width: usize,
    /// Frame height for every cell.
    pub height: usize,
    /// Frames rendered per cell.
    pub frames: usize,
    /// Frame rate.
    pub fps: f64,
    /// Base seed; each cell derives its own seed from this and its index.
    pub base_seed: u64,
    /// Reconstruction parallelism *inside* one cell. Cells themselves run
    /// on the sweep's worker pool, so this stays 1 unless cells are huge.
    pub cell_parallelism: usize,
    /// Scenario axis.
    pub scenarios: Vec<ScenarioSpec>,
    /// Software-profile axis.
    pub profiles: Vec<ProfilePreset>,
    /// Virtual-background axis.
    pub backgrounds: Vec<VbSpec>,
    /// Attack axis.
    pub attacks: Vec<AttackSpec>,
}

/// One fully-resolved cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Position in the scenario-major enumeration (stable across shards).
    pub index: usize,
    /// Scenario for this cell.
    pub scenario: ScenarioSpec,
    /// Software profile for this cell.
    pub profile: ProfilePreset,
    /// Virtual background for this cell.
    pub vb: VbSpec,
    /// Attack for this cell.
    pub attack: AttackSpec,
    /// Derived seed (base seed mixed with the cell index).
    pub seed: u64,
}

impl SweepSpec {
    /// A representative default matrix for `bbuster sweep init`: three
    /// scenarios (one multi-person), three profiles, image + video + blur
    /// backgrounds, with and without the location attack.
    pub fn example() -> SweepSpec {
        SweepSpec {
            width: 64,
            height: 48,
            frames: 40,
            fps: 30.0,
            base_seed: 0x5EED,
            cell_parallelism: 1,
            scenarios: vec![
                ScenarioSpec {
                    name: "office-wave".to_string(),
                    action: Action::ArmWaving,
                    speed: Speed::Average,
                    lighting: Lighting::On,
                    room_seed: 11,
                    companions: 0,
                },
                ScenarioSpec {
                    name: "den-stretch".to_string(),
                    action: Action::Stretching,
                    speed: Speed::Fast,
                    lighting: Lighting::On,
                    room_seed: 23,
                    companions: 0,
                },
                ScenarioSpec {
                    name: "shared-desk".to_string(),
                    action: Action::Still,
                    speed: Speed::Average,
                    lighting: Lighting::On,
                    room_seed: 37,
                    companions: 1,
                },
            ],
            profiles: vec![
                ProfilePreset::ZoomLike,
                ProfilePreset::SkypeLike,
                ProfilePreset::MeetLike,
            ],
            backgrounds: vec![
                VbSpec::Catalog(BackgroundId::Beach),
                VbSpec::Catalog(BackgroundId::DriftingClouds),
                VbSpec::Blur(4),
            ],
            attacks: vec![AttackSpec::None, AttackSpec::Location],
        }
    }

    /// The smallest meaningful matrix (2 scenarios × 2 profiles × 2
    /// backgrounds × 1 attack = 8 cells) — CI's sharded smoke test.
    pub fn tiny() -> SweepSpec {
        SweepSpec {
            width: 48,
            height: 36,
            frames: 12,
            fps: 30.0,
            base_seed: 7,
            cell_parallelism: 1,
            scenarios: vec![
                ScenarioSpec {
                    name: "wave".to_string(),
                    action: Action::ArmWaving,
                    speed: Speed::Average,
                    lighting: Lighting::On,
                    room_seed: 11,
                    companions: 0,
                },
                ScenarioSpec {
                    name: "still".to_string(),
                    action: Action::Still,
                    speed: Speed::Average,
                    lighting: Lighting::On,
                    room_seed: 23,
                    companions: 0,
                },
            ],
            profiles: vec![ProfilePreset::ZoomLike, ProfilePreset::MeetLike],
            backgrounds: vec![VbSpec::Catalog(BackgroundId::Beach), VbSpec::Blur(2)],
            attacks: vec![AttackSpec::None],
        }
    }

    /// Total number of cells in the matrix.
    pub fn cell_count(&self) -> usize {
        self.scenarios.len() * self.profiles.len() * self.backgrounds.len() * self.attacks.len()
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// [`SweepError::Spec`] on empty axes, zero geometry, or duplicate
    /// scenario names (names double as attack labels, so they must be
    /// unique).
    pub fn validate(&self) -> Result<(), SweepError> {
        let bad = |m: String| Err(SweepError::Spec(m));
        if self.width == 0 || self.height == 0 {
            return bad(format!(
                "zero frame geometry {}x{}",
                self.width, self.height
            ));
        }
        if self.frames == 0 {
            return bad("zero frames per cell".to_string());
        }
        if !(self.fps.is_finite() && self.fps > 0.0) {
            return bad(format!("bad fps {}", self.fps));
        }
        for (axis, len) in [
            ("scenarios", self.scenarios.len()),
            ("profiles", self.profiles.len()),
            ("backgrounds", self.backgrounds.len()),
            ("attacks", self.attacks.len()),
        ] {
            if len == 0 {
                return bad(format!("empty {axis} axis"));
            }
        }
        let mut names: Vec<&str> = self.scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.scenarios.len() {
            return bad("duplicate scenario names".to_string());
        }
        if self.scenarios.iter().any(|s| s.name.is_empty()) {
            return bad("empty scenario name".to_string());
        }
        Ok(())
    }

    /// Enumerates every cell, scenario-major then profile, background,
    /// attack — the order (and therefore each cell's index and seed) is a
    /// pure function of the spec.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.cell_count());
        let mut index = 0usize;
        for scenario in &self.scenarios {
            for &profile in &self.profiles {
                for &vb in &self.backgrounds {
                    for &attack in &self.attacks {
                        cells.push(CellSpec {
                            index,
                            scenario: scenario.clone(),
                            profile,
                            vb,
                            attack,
                            // SplitMix-style index mixing keeps neighbouring
                            // cells' noise streams decorrelated.
                            seed: self
                                .base_seed
                                .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        });
                        index += 1;
                    }
                }
            }
        }
        cells
    }

    /// Serializes to the canonical pretty-printed JSON form.
    pub fn to_json_string(&self) -> String {
        json::to_pretty_string(&self.to_json())
    }

    fn to_json(&self) -> Json {
        let mut root = BTreeMap::new();
        root.insert("schema".to_string(), Json::String(SPEC_SCHEMA.to_string()));
        root.insert("width".to_string(), Json::Number(self.width as f64));
        root.insert("height".to_string(), Json::Number(self.height as f64));
        root.insert("frames".to_string(), Json::Number(self.frames as f64));
        root.insert("fps".to_string(), Json::Number(self.fps));
        root.insert("base_seed".to_string(), Json::Number(self.base_seed as f64));
        root.insert(
            "cell_parallelism".to_string(),
            Json::Number(self.cell_parallelism as f64),
        );
        root.insert(
            "scenarios".to_string(),
            Json::Array(
                self.scenarios
                    .iter()
                    .map(|s| {
                        let mut o = BTreeMap::new();
                        o.insert("name".to_string(), Json::String(s.name.clone()));
                        o.insert(
                            "action".to_string(),
                            Json::String(s.action.name().to_string()),
                        );
                        o.insert(
                            "speed".to_string(),
                            Json::String(s.speed.name().to_string()),
                        );
                        o.insert(
                            "lighting".to_string(),
                            Json::String(lighting_name(s.lighting).to_string()),
                        );
                        o.insert("room_seed".to_string(), Json::Number(s.room_seed as f64));
                        o.insert("companions".to_string(), Json::Number(s.companions as f64));
                        Json::Object(o)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "profiles".to_string(),
            Json::Array(
                self.profiles
                    .iter()
                    .map(|p| Json::String(p.name().to_string()))
                    .collect(),
            ),
        );
        root.insert(
            "backgrounds".to_string(),
            Json::Array(
                self.backgrounds
                    .iter()
                    .map(|b| Json::String(b.name()))
                    .collect(),
            ),
        );
        root.insert(
            "attacks".to_string(),
            Json::Array(
                self.attacks
                    .iter()
                    .map(|a| Json::String(a.name().to_string()))
                    .collect(),
            ),
        );
        Json::Object(root)
    }

    /// Parses a spec from its JSON form.
    ///
    /// # Errors
    ///
    /// [`SweepError::Parse`] on malformed JSON or unknown identifiers;
    /// [`SweepError::Spec`] when the parsed spec fails [`Self::validate`].
    pub fn from_json_str(text: &str) -> Result<SweepSpec, SweepError> {
        let value = json::parse(text)?;
        let root = value.as_object("spec")?;
        let schema = root
            .get("schema")
            .ok_or_else(|| SweepError::Parse("spec missing schema".to_string()))?
            .as_string("schema")?;
        if schema != SPEC_SCHEMA {
            return Err(SweepError::Parse(format!(
                "unsupported spec schema {schema:?} (expected {SPEC_SCHEMA})"
            )));
        }
        let field = |name: &str| -> Result<&Json, SweepError> {
            root.get(name)
                .ok_or_else(|| SweepError::Parse(format!("spec missing {name}")))
        };
        let usize_field =
            |name: &str| -> Result<usize, SweepError> { Ok(field(name)?.as_u64(name)? as usize) };
        let array_field = |name: &str| -> Result<&Vec<Json>, SweepError> {
            match field(name)? {
                Json::Array(items) => Ok(items),
                _ => Err(SweepError::Parse(format!("{name} must be an array"))),
            }
        };
        let mut scenarios = Vec::new();
        for (i, item) in array_field("scenarios")?.iter().enumerate() {
            let o = item.as_object(&format!("scenarios[{i}]"))?;
            let s = |name: &str| -> Result<&str, SweepError> {
                o.get(name)
                    .ok_or_else(|| SweepError::Parse(format!("scenarios[{i}] missing {name}")))?
                    .as_string(name)
                    .map_err(SweepError::from)
            };
            scenarios.push(ScenarioSpec {
                name: s("name")?.to_string(),
                action: s("action")?.parse::<Action>().map_err(SweepError::Parse)?,
                speed: speed_from_name(s("speed")?).map_err(SweepError::Parse)?,
                lighting: lighting_from_name(s("lighting")?).map_err(SweepError::Parse)?,
                room_seed: o
                    .get("room_seed")
                    .ok_or_else(|| SweepError::Parse(format!("scenarios[{i}] missing room_seed")))?
                    .as_u64("room_seed")?,
                companions: o
                    .get("companions")
                    .ok_or_else(|| SweepError::Parse(format!("scenarios[{i}] missing companions")))?
                    .as_u64("companions")? as usize,
            });
        }
        let parse_axis = |name: &str| -> Result<Vec<String>, SweepError> {
            array_field(name)?
                .iter()
                .map(|v| Ok(v.as_string(name)?.to_string()))
                .collect()
        };
        let spec = SweepSpec {
            width: usize_field("width")?,
            height: usize_field("height")?,
            frames: usize_field("frames")?,
            fps: field("fps")?.as_f64("fps")?,
            base_seed: field("base_seed")?.as_u64("base_seed")?,
            cell_parallelism: usize_field("cell_parallelism")?,
            scenarios,
            profiles: parse_axis("profiles")?
                .iter()
                .map(|s| ProfilePreset::from_str(s).map_err(SweepError::Parse))
                .collect::<Result<_, _>>()?,
            backgrounds: parse_axis("backgrounds")?
                .iter()
                .map(|s| VbSpec::from_str(s).map_err(SweepError::Parse))
                .collect::<Result<_, _>>()?,
            attacks: parse_axis("attacks")?
                .iter()
                .map(|s| AttackSpec::from_str(s).map_err(SweepError::Parse))
                .collect::<Result<_, _>>()?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// FNV-1a digest of the canonical JSON form — shard reports carry it so
    /// a merge across mismatched specs is refused.
    pub fn digest(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_json_string().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_and_tiny_validate_and_round_trip() {
        for spec in [SweepSpec::example(), SweepSpec::tiny()] {
            spec.validate().unwrap();
            let text = spec.to_json_string();
            let back = SweepSpec::from_json_str(&text).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.digest(), spec.digest());
            assert_eq!(back.to_json_string(), text);
        }
    }

    #[test]
    fn tiny_is_a_2x2x2_matrix() {
        let spec = SweepSpec::tiny();
        assert_eq!(spec.cell_count(), 8);
        let cells = spec.cells();
        assert_eq!(cells.len(), 8);
        // Indices are dense and in order; seeds are distinct.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn enumeration_is_scenario_major() {
        let spec = SweepSpec::tiny();
        let cells = spec.cells();
        // First half is scenario 0, second half scenario 1.
        assert!(cells[..4].iter().all(|c| c.scenario.name == "wave"));
        assert!(cells[4..].iter().all(|c| c.scenario.name == "still"));
        // Within a scenario, profile-major.
        assert_eq!(cells[0].profile, ProfilePreset::ZoomLike);
        assert_eq!(cells[2].profile, ProfilePreset::MeetLike);
    }

    #[test]
    fn vb_spec_parses_catalog_and_blur() {
        assert_eq!(
            VbSpec::from_str("beach").unwrap(),
            VbSpec::Catalog(BackgroundId::Beach)
        );
        assert_eq!(VbSpec::from_str("blur:3").unwrap(), VbSpec::Blur(3));
        assert_eq!(VbSpec::Blur(3).to_string(), "blur:3");
        assert!(VbSpec::from_str("blur:0").is_err());
        assert_eq!(
            VbSpec::from_str("blur:127").unwrap(),
            VbSpec::Blur(MAX_BLUR_RADIUS)
        );
        assert!(VbSpec::from_str("blur:128").is_err());
        assert!(VbSpec::from_str("blur:18446744073709551615").is_err());
        assert!(VbSpec::from_str("blur:x").is_err());
        assert!(VbSpec::from_str("matrix").is_err());
        assert_eq!(
            VbSpec::Catalog(BackgroundId::Beach).mode(16, 12),
            VbMode::from(BackgroundId::Beach.realize(16, 12))
        );
        assert!(matches!(
            VbSpec::Catalog(BackgroundId::LavaLamp).mode(16, 12),
            VbMode::Video(v) if v.dims() == (16, 12)
        ));
        assert_eq!(VbSpec::Blur(3).mode(16, 12), VbMode::Blur { radius: 3 });
    }

    #[test]
    fn attack_spec_parses() {
        assert_eq!(AttackSpec::from_str("none").unwrap(), AttackSpec::None);
        assert_eq!(
            AttackSpec::from_str("location").unwrap(),
            AttackSpec::Location
        );
        assert!(AttackSpec::from_str("exfil").is_err());
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let base = SweepSpec::tiny();
        let mut empty_axis = base.clone();
        empty_axis.profiles.clear();
        let mut dup_names = base.clone();
        dup_names.scenarios[1].name = dup_names.scenarios[0].name.clone();
        let mut zero_frames = base.clone();
        zero_frames.frames = 0;
        let mut zero_dims = base.clone();
        zero_dims.width = 0;
        for spec in [empty_axis, dup_names, zero_frames, zero_dims] {
            assert!(matches!(spec.validate(), Err(SweepError::Spec(_))));
        }
    }

    #[test]
    fn digest_tracks_content() {
        let a = SweepSpec::tiny();
        let mut b = a.clone();
        b.base_seed ^= 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(matches!(
            SweepSpec::from_json_str("not json"),
            Err(SweepError::Parse(_))
        ));
        let text = SweepSpec::tiny()
            .to_json_string()
            .replace(SPEC_SCHEMA, "bb-sweep/spec/v0");
        assert!(matches!(
            SweepSpec::from_json_str(&text),
            Err(SweepError::Parse(_))
        ));
    }
}
