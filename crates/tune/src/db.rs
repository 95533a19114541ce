//! The persistent tuning database.
//!
//! A JSON file of best-known records in four sections: 1x1 tilings,
//! pipeline plans, per-layer precisions and fleet placements. Each section
//! is a [`Section`] of one [`Record`] type, so one `insert` / `lookup` /
//! `iter` / `len`, one merge, one render loop and one parse loop serve all
//! four. The flow and the serving layer's deployment cache look configs up
//! here before ever considering a search; the tuner inserts (keeping the
//! better of old and new, by the record type's [`Record::beats`]) after a
//! search completes. Rendered and read back with [`fpgaccel_trace::json`],
//! so the crate stays dependency-free and the file round-trips exactly;
//! the loader rejects any field a tuner could not have written.

use crate::candidate::Candidate;
use fpgaccel_aoc::Precision;
use fpgaccel_trace::json::{Fields, Json};
use std::borrow::Borrow;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::Debug;
use std::path::Path;

/// Current on-disk format version.
pub const DB_VERSION: u64 = 1;

/// What a tuning record is keyed by.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DbKey {
    /// Model name (the imported graph's name, e.g. `mobilenet_v1`).
    pub model: String,
    /// Layer-shape signature from [`crate::shape_signature`] — two models
    /// with identical 1x1 extents share tuned configs.
    pub shape_sig: String,
    /// Target platform (`Debug` rendering of `FpgaPlatform`).
    pub platform: String,
    /// Numeric precision the record was tuned for.
    pub precision: Precision,
}

impl DbKey {
    /// The key's JSON fields, written first in every record keyed by it.
    fn fields(&self) -> [(&'static str, Json); 4] {
        [
            ("model", self.model.as_str().into()),
            ("shape_sig", self.shape_sig.as_str().into()),
            ("platform", self.platform.as_str().into()),
            ("precision", format!("{:?}", self.precision).into()),
        ]
    }

    fn read(f: &Fields) -> Result<DbKey, String> {
        Ok(DbKey {
            model: f.text("model")?,
            shape_sig: f.text("shape_sig")?,
            platform: f.text("platform")?,
            precision: parse_precision(&f.text("precision")?)
                .ok_or_else(|| f.error("precision", "must name a known precision"))?,
        })
    }
}

/// One best-known tuned configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneRecord {
    /// Winning `(W_2vec, C_2vec, C_1vec)` tiling.
    pub tile: (usize, usize, usize),
    /// Simulated full-network seconds per image with that tiling.
    pub seconds_per_image: f64,
    /// Device-busy 1x1-convolution seconds per image.
    pub conv1x1_seconds: f64,
    /// DSP blocks of the 1x1-only bitstream.
    pub dsps: u64,
    /// Achieved clock.
    pub fmax_mhz: f64,
    /// Candidate evaluations the producing search spent.
    pub evaluations: usize,
}

impl TuneRecord {
    /// The tuned candidate this record deploys at `precision`.
    pub fn candidate(&self, precision: Precision) -> Candidate {
        Candidate {
            tile: self.tile,
            precision,
        }
    }
}

/// One best-known dataflow-pipeline planner configuration (picked by
/// [`crate::pipeline::best_pipeline`]), stored alongside the tiling
/// records under the same key space.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineRecord {
    /// Winning FIFO depth policy in [`crate::pipeline::policy_id`] form.
    pub depth_policy: String,
    /// Winning segment stage cap.
    pub max_stages: usize,
    /// Simulated full-network seconds per image under the plan.
    pub seconds_per_image: f64,
    /// Activation elements per image kept on-chip vs staged execution.
    pub dram_elems_saved: u64,
    /// Layers running as channel-connected pipeline stages.
    pub pipelined_stages: usize,
    /// Layers demoted to the staged folded pool.
    pub staged_nodes: usize,
    /// Candidate evaluations the producing search spent.
    pub evaluations: usize,
}

/// One best-known per-layer mixed-precision assignment (searched by
/// [`crate::precision::search_precision`]), keyed at the f32 baseline
/// precision: the per-layer rungs live inside the record itself.
#[derive(Clone, Debug, PartialEq)]
pub struct PrecisionRecord {
    /// `(layer name, precision)` pairs in layer order; the precision is the
    /// `Debug` rendering of [`Precision`] (`"F32"`, `"Fp16"`, `"Int8"`, ...).
    pub assignment: Vec<(String, String)>,
    /// Modeled DSP blocks of the mixed-precision bitstream.
    pub dsps: u64,
    /// Modeled DSP blocks of the all-f32 bitstream the search started from.
    pub baseline_dsps: u64,
    /// Modeled RAM blocks of the mixed-precision bitstream.
    pub ram_blocks: u64,
    /// Worst output error the accepted assignment measured vs f32.
    pub worst_error: f64,
    /// Accuracy budget the search ran under.
    pub error_budget: f64,
    /// Accuracy evaluations the producing search spent.
    pub evaluations: usize,
}

/// Parses the `Debug` rendering of a [`Precision`] back into the enum.
pub(crate) fn parse_precision(s: &str) -> Option<Precision> {
    match s {
        "F32" => Some(Precision::F32),
        "Fp16" => Some(Precision::Fp16),
        "Int16" => Some(Precision::Int16),
        "Int8" => Some(Precision::Int8),
        _ => None,
    }
}

impl PrecisionRecord {
    /// The per-layer assignment this record deploys, or `None` when a stored
    /// precision name is from an incompatible future version.
    pub fn assignment_map(&self) -> Option<BTreeMap<String, Precision>> {
        self.assignment
            .iter()
            .map(|(layer, p)| Some((layer.clone(), parse_precision(p)?)))
            .collect()
    }

    /// Layers demoted below f32 by this assignment.
    pub fn demoted(&self) -> usize {
        self.assignment.iter().filter(|(_, p)| p != "F32").count()
    }
}

/// One cached fleet placement plan, keyed by the digest of the fleet
/// specification that produced it (device-class inventory + per-model
/// demand). Placement is deterministic in its spec, so the record is a
/// pure cache: a digest hit skips every feasibility compile and
/// calibration probe the optimizer would otherwise spend.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacementRecord {
    /// Replica counts as `(model name, platform label, replicas)`, in the
    /// deterministic order the optimizer assigned them.
    pub replicas: Vec<(String, String, usize)>,
    /// Aggregate steady-state serving rate of the plan, requests/second.
    pub total_rate_rps: f64,
    /// Feasibility evaluations (compile + calibration probes) the
    /// producing optimization spent.
    pub evaluations: usize,
}

/// A record type stored in one [`Section`] of the [`TuningDb`].
pub trait Record: Clone + Debug {
    /// What the section is keyed by.
    type Key: Ord + Clone + Debug;
    /// The section's name in the JSON document.
    const SECTION: &'static str;
    /// Whether `self` should replace `stored`, the record already kept
    /// under the same key.
    fn beats(&self, stored: &Self) -> bool;
    /// The record and its key as one JSON object, key fields first.
    fn write(&self, key: &Self::Key) -> Json;
    /// Reads a record and its key back from their JSON object.
    ///
    /// # Errors
    /// A missing field, or one no tuner could have written.
    fn read(f: &Fields) -> Result<(Self::Key, Self), String>;
}

impl Record for TuneRecord {
    type Key = DbKey;
    const SECTION: &'static str = "records";

    /// Lower latency wins.
    fn beats(&self, stored: &Self) -> bool {
        self.seconds_per_image < stored.seconds_per_image
    }

    fn write(&self, key: &DbKey) -> Json {
        Json::obj(key.fields().into_iter().chain([
            ("tile", vec![self.tile.0, self.tile.1, self.tile.2].into()),
            ("seconds_per_image", self.seconds_per_image.into()),
            ("conv1x1_seconds", self.conv1x1_seconds.into()),
            ("dsps", self.dsps.into()),
            ("fmax_mhz", self.fmax_mhz.into()),
            ("evaluations", self.evaluations.into()),
        ]))
    }

    fn read(f: &Fields) -> Result<(DbKey, TuneRecord), String> {
        let tile = f.list("tile", "an integer >= 1", |v| {
            v.as_count().filter(|&n| n >= 1)
        })?;
        let [w2, c2, c1] = tile[..] else {
            return Err(f.error("tile", "must have 3 factors"));
        };
        let record = TuneRecord {
            tile: (w2 as usize, c2 as usize, c1 as usize),
            seconds_per_image: f.seconds("seconds_per_image")?,
            conv1x1_seconds: f.real("conv1x1_seconds")?,
            dsps: f.count("dsps")?,
            fmax_mhz: f.real("fmax_mhz")?,
            evaluations: f.count("evaluations")? as usize,
        };
        Ok((DbKey::read(f)?, record))
    }
}

impl Record for PipelineRecord {
    type Key = DbKey;
    const SECTION: &'static str = "pipeline";

    /// Lower latency wins.
    fn beats(&self, stored: &Self) -> bool {
        self.seconds_per_image < stored.seconds_per_image
    }

    fn write(&self, key: &DbKey) -> Json {
        Json::obj(key.fields().into_iter().chain([
            ("depth_policy", self.depth_policy.as_str().into()),
            ("max_stages", self.max_stages.into()),
            ("seconds_per_image", self.seconds_per_image.into()),
            ("dram_elems_saved", self.dram_elems_saved.into()),
            ("pipelined_stages", self.pipelined_stages.into()),
            ("staged_nodes", self.staged_nodes.into()),
            ("evaluations", self.evaluations.into()),
        ]))
    }

    fn read(f: &Fields) -> Result<(DbKey, PipelineRecord), String> {
        let record = PipelineRecord {
            depth_policy: f.text("depth_policy")?,
            max_stages: f.count("max_stages")? as usize,
            seconds_per_image: f.seconds("seconds_per_image")?,
            dram_elems_saved: f.count("dram_elems_saved")?,
            pipelined_stages: f.count("pipelined_stages")? as usize,
            staged_nodes: f.count("staged_nodes")? as usize,
            evaluations: f.count("evaluations")? as usize,
        };
        Ok((DbKey::read(f)?, record))
    }
}

impl Record for PrecisionRecord {
    type Key = DbKey;
    const SECTION: &'static str = "mixed";

    /// Fewer DSPs (the search objective) wins.
    fn beats(&self, stored: &Self) -> bool {
        self.dsps < stored.dsps
    }

    fn write(&self, key: &DbKey) -> Json {
        let assignment = self
            .assignment
            .iter()
            .map(|(layer, p)| Json::Arr(vec![layer.as_str().into(), p.as_str().into()]));
        Json::obj(key.fields().into_iter().chain([
            ("assignment", Json::Arr(assignment.collect())),
            ("dsps", self.dsps.into()),
            ("baseline_dsps", self.baseline_dsps.into()),
            ("ram_blocks", self.ram_blocks.into()),
            ("worst_error", self.worst_error.into()),
            ("error_budget", self.error_budget.into()),
            ("evaluations", self.evaluations.into()),
        ]))
    }

    fn read(f: &Fields) -> Result<(DbKey, PrecisionRecord), String> {
        let record = PrecisionRecord {
            assignment: f.list("assignment", "a [layer, precision] pair", |v| {
                match v.as_array()? {
                    [layer, p] => Some((layer.as_str()?.to_string(), p.as_str()?.to_string())),
                    _ => None,
                }
            })?,
            dsps: f.count("dsps")?,
            baseline_dsps: f.count("baseline_dsps")?,
            ram_blocks: f.count("ram_blocks")?,
            worst_error: f.real("worst_error")?,
            error_budget: f.real("error_budget")?,
            evaluations: f.count("evaluations")? as usize,
        };
        Ok((DbKey::read(f)?, record))
    }
}

impl Record for PlacementRecord {
    /// The fleet-spec digest.
    type Key = String;
    const SECTION: &'static str = "placements";

    /// Placement is a pure function of its spec: the first write wins.
    fn beats(&self, _stored: &Self) -> bool {
        false
    }

    fn write(&self, spec: &String) -> Json {
        let replicas = self.replicas.iter().map(|(model, platform, n)| {
            Json::Arr(vec![
                model.as_str().into(),
                platform.as_str().into(),
                (*n).into(),
            ])
        });
        Json::obj([
            ("spec", spec.as_str().into()),
            ("replicas", Json::Arr(replicas.collect())),
            ("total_rate_rps", self.total_rate_rps.into()),
            ("evaluations", self.evaluations.into()),
        ])
    }

    fn read(f: &Fields) -> Result<(String, PlacementRecord), String> {
        let record = PlacementRecord {
            replicas: f.list("replicas", "a [model, platform, count] triple", |v| match v
                .as_array()?
            {
                [model, platform, n] => Some((
                    model.as_str()?.to_string(),
                    platform.as_str()?.to_string(),
                    n.as_count()? as usize,
                )),
                _ => None,
            })?,
            total_rate_rps: f.real("total_rate_rps")?,
            evaluations: f.count("evaluations")? as usize,
        };
        Ok((f.text("spec")?, record))
    }
}

/// One section of the database: the best record seen per key.
#[derive(Clone, Debug)]
pub struct Section<R: Record> {
    records: BTreeMap<R::Key, R>,
}

impl<R: Record> Default for Section<R> {
    fn default() -> Self {
        Section {
            records: BTreeMap::new(),
        }
    }
}

impl<R: Record> Section<R> {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the section holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record stored for a key, if any.
    pub fn lookup<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&R>
    where
        R::Key: Borrow<Q>,
    {
        self.records.get(key)
    }

    /// Iterates records in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&R::Key, &R)> {
        self.records.iter()
    }

    /// Stores `record` under `key` unless the record already there is at
    /// least as good ([`Record::beats`]). Returns whether `record` was
    /// stored.
    pub fn insert(&mut self, key: R::Key, record: R) -> bool {
        match self.records.entry(key) {
            Entry::Occupied(mut stored) if record.beats(stored.get()) => {
                stored.insert(record);
                true
            }
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(record);
                true
            }
        }
    }

    /// Inserts every record of `other`; returns how many of them won.
    pub fn merge(&mut self, other: &Section<R>) -> usize {
        other
            .iter()
            .filter(|(k, r)| self.insert((*k).clone(), (*r).clone()))
            .count()
    }

    /// The section as its named JSON array.
    fn write(&self) -> (&'static str, Json) {
        let records = self.records.iter().map(|(k, r)| r.write(k));
        (R::SECTION, Json::Arr(records.collect()))
    }

    /// Reads the section's array from the document, if present.
    fn read(doc: &Json) -> Result<Section<R>, String> {
        let mut section = Section::default();
        let Some(records) = doc.get(R::SECTION) else {
            return Ok(section);
        };
        let records = records
            .as_array()
            .ok_or_else(|| format!("`{}` is not an array", R::SECTION))?;
        for (index, json) in records.iter().enumerate() {
            let (key, record) = R::read(&Fields::new(R::SECTION, index, json))?;
            section.insert(key, record);
        }
        Ok(section)
    }
}

/// The database: one [`Section`] per record type.
#[derive(Clone, Debug, Default)]
pub struct TuningDb {
    /// Best 1x1 tilings, written as the `records` section.
    pub tilings: Section<TuneRecord>,
    /// Best pipeline-planner configurations.
    pub pipeline: Section<PipelineRecord>,
    /// Best per-layer mixed-precision assignments.
    pub mixed: Section<PrecisionRecord>,
    /// Cached fleet placement plans, keyed by spec digest.
    pub placements: Section<PlacementRecord>,
}

impl TuningDb {
    /// An empty database.
    pub fn new() -> TuningDb {
        TuningDb::default()
    }

    /// True when no records of any kind are stored.
    pub fn is_empty(&self) -> bool {
        self.tilings.is_empty()
            && self.pipeline.is_empty()
            && self.mixed.is_empty()
            && self.placements.is_empty()
    }

    /// Merges every record of `other` into this database, keeping the
    /// better record per key. Returns how many of `other`'s records won.
    pub fn merge(&mut self, other: &TuningDb) -> usize {
        self.tilings.merge(&other.tilings)
            + self.pipeline.merge(&other.pipeline)
            + self.mixed.merge(&other.mixed)
            + self.placements.merge(&other.placements)
    }

    /// Renders the database as its canonical JSON document: `records` is
    /// always written, the other sections only when non-empty.
    pub fn to_json(&self) -> String {
        let sections = [
            self.tilings.write(),
            self.pipeline.write(),
            self.mixed.write(),
            self.placements.write(),
        ];
        let written = sections.into_iter().filter(|(name, records)| {
            *name == TuneRecord::SECTION || records.as_array().is_some_and(|r| !r.is_empty())
        });
        Json::obj([("version", DB_VERSION.into())].into_iter().chain(written)).render()
    }

    /// Parses a database from its JSON document.
    ///
    /// # Errors
    /// A message naming the first malformed section, record and field, or
    /// a version other than [`DB_VERSION`].
    pub fn from_json(src: &str) -> Result<TuningDb, String> {
        let doc = Json::parse(src)?;
        let version = doc.get("version").ok_or("missing `version`")?;
        if version.as_f64() != Some(DB_VERSION as f64) {
            return Err(format!("unsupported tuning-db version {version}"));
        }
        doc.get(TuneRecord::SECTION)
            .and_then(Json::as_array)
            .ok_or("missing `records` array")?;
        Ok(TuningDb {
            tilings: Section::read(&doc)?,
            pipeline: Section::read(&doc)?,
            mixed: Section::read(&doc)?,
            placements: Section::read(&doc)?,
        })
    }

    /// Loads a database from `path`; a missing file is an empty database
    /// (first run), a malformed file is an error.
    ///
    /// # Errors
    /// I/O failures other than not-found, or a parse failure.
    pub fn load(path: &Path) -> Result<TuningDb, String> {
        match std::fs::read_to_string(path) {
            Ok(src) => TuningDb::from_json(&src),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(TuningDb::new()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Re-reads `path`, merges this database's records into the on-disk
    /// state (keeping the better record per key), writes the result back,
    /// and returns the merged database.
    ///
    /// This is the lost-update-safe way for concurrent tuners to persist:
    /// a plain [`TuningDb::save`] overwrites whatever another process
    /// wrote since this one loaded, while `save_merged` keeps the best
    /// record per key regardless of write order.
    ///
    /// # Errors
    /// A malformed on-disk database (which is left untouched), or any I/O
    /// failure.
    pub fn save_merged(&self, path: &Path) -> Result<TuningDb, String> {
        let mut merged = TuningDb::load(path)?;
        merged.merge(self);
        merged.save(path)?;
        Ok(merged)
    }

    /// Writes the database to `path` (creating parent directories).
    ///
    /// # Errors
    /// Any I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("{}: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> DbKey {
        DbKey {
            model: "mobilenet_v1".into(),
            shape_sig: "n13-deadbeef".into(),
            platform: "Arria10Gx".into(),
            precision: Precision::F32,
        }
    }

    fn record(tile: (usize, usize, usize), s: f64) -> TuneRecord {
        TuneRecord {
            tile,
            seconds_per_image: s,
            conv1x1_seconds: s * 0.6,
            dsps: 504,
            fmax_mhz: 187.5,
            evaluations: 84,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut db = TuningDb::new();
        db.tilings
            .insert(key(), record((7, 8, 8), 0.012345678901234));
        db.tilings.insert(
            DbKey {
                platform: "Stratix10Gx".into(),
                ..key()
            },
            record((7, 16, 8), 0.006),
        );
        let text = db.to_json();
        let back = TuningDb::from_json(&text).unwrap();
        assert_eq!(back.tilings.len(), 2);
        assert_eq!(back.tilings.lookup(&key()), db.tilings.lookup(&key()));
        // Canonical rendering is stable through a round trip.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn insert_keeps_the_better_record() {
        let mut db = TuningDb::new();
        assert!(db.tilings.insert(key(), record((7, 8, 8), 0.010)));
        assert!(
            !db.tilings.insert(key(), record((7, 4, 4), 0.020)),
            "worse record must not replace"
        );
        assert_eq!(db.tilings.lookup(&key()).unwrap().tile, (7, 8, 8));
        assert!(db.tilings.insert(key(), record((7, 16, 8), 0.005)));
        assert_eq!(db.tilings.lookup(&key()).unwrap().tile, (7, 16, 8));
    }

    #[test]
    fn load_of_missing_file_is_an_empty_db_and_save_round_trips() {
        let dir = std::env::temp_dir().join("fpgaccel-tune-db-test");
        let path = dir.join("nested").join("db.json");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(TuningDb::load(&path).unwrap().is_empty());
        let mut db = TuningDb::new();
        db.tilings.insert(key(), record((7, 8, 8), 0.012));
        db.save(&path).unwrap();
        let back = TuningDb::load(&path).unwrap();
        assert_eq!(back.tilings.lookup(&key()).unwrap().tile, (7, 8, 8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn pipeline_record(policy: &str, s: f64) -> PipelineRecord {
        PipelineRecord {
            depth_policy: policy.into(),
            max_stages: 32,
            seconds_per_image: s,
            dram_elems_saved: 6_460_928,
            pipelined_stages: 12,
            staged_nodes: 33,
            evaluations: 8,
        }
    }

    #[test]
    fn pipeline_records_round_trip_and_keep_the_better_one() {
        let mut db = TuningDb::new();
        db.tilings.insert(key(), record((7, 8, 8), 0.012));
        assert!(db.pipeline.insert(key(), pipeline_record("fill*2", 0.033)));
        assert!(
            !db.pipeline.insert(key(), pipeline_record("full", 0.050)),
            "worse pipeline record must not replace"
        );
        let text = db.to_json();
        let back = TuningDb::from_json(&text).unwrap();
        assert_eq!(back.pipeline.len(), 1);
        assert_eq!(back.pipeline.lookup(&key()), db.pipeline.lookup(&key()));
        assert_eq!(back.to_json(), text, "canonical rendering is stable");
        // Merge keeps the better pipeline record per key.
        let mut better = TuningDb::new();
        better
            .pipeline
            .insert(key(), pipeline_record("fill*4", 0.020));
        assert_eq!(db.merge(&better), 1);
        assert_eq!(db.pipeline.lookup(&key()).unwrap().depth_policy, "fill*4");
    }

    #[test]
    fn tiling_only_databases_render_without_a_pipeline_section() {
        let mut db = TuningDb::new();
        db.tilings.insert(key(), record((7, 8, 8), 0.012));
        assert!(!db.to_json().contains("\"pipeline\""));
        // And a pipeline-only database still counts as non-empty.
        let mut p = TuningDb::new();
        p.pipeline.insert(key(), pipeline_record("fill*2", 0.033));
        assert!(!p.is_empty());
    }

    fn mixed_record(dsps: u64) -> PrecisionRecord {
        PrecisionRecord {
            assignment: vec![
                ("conv1".into(), "Int8".into()),
                ("conv2".into(), "Fp16".into()),
                ("dense1".into(), "F32".into()),
            ],
            dsps,
            baseline_dsps: 600,
            ram_blocks: 420,
            worst_error: 0.0125,
            error_budget: 0.05,
            evaluations: 6,
        }
    }

    #[test]
    fn mixed_records_round_trip_and_keep_the_fewer_dsps() {
        let mut db = TuningDb::new();
        assert!(db.mixed.insert(key(), mixed_record(300)));
        assert!(
            !db.mixed.insert(key(), mixed_record(500)),
            "a record modeling more DSPs must not replace"
        );
        let text = db.to_json();
        let back = TuningDb::from_json(&text).unwrap();
        assert_eq!(back.mixed.len(), 1);
        assert_eq!(back.mixed.lookup(&key()), db.mixed.lookup(&key()));
        assert_eq!(back.to_json(), text, "canonical rendering is stable");
        // The stored assignment parses back into per-layer precisions.
        let map = back.mixed.lookup(&key()).unwrap().assignment_map().unwrap();
        assert_eq!(map["conv1"], Precision::Int8);
        assert_eq!(map["conv2"], Precision::Fp16);
        assert_eq!(map["dense1"], Precision::F32);
        assert_eq!(back.mixed.lookup(&key()).unwrap().demoted(), 2);
        // Merge keeps the fewer-DSP record per key.
        let mut better = TuningDb::new();
        better.mixed.insert(key(), mixed_record(250));
        assert_eq!(db.merge(&better), 1);
        assert_eq!(db.mixed.lookup(&key()).unwrap().dsps, 250);
    }

    #[test]
    fn mixed_free_databases_render_without_a_mixed_section() {
        let mut db = TuningDb::new();
        db.tilings.insert(key(), record((7, 8, 8), 0.012));
        assert!(!db.to_json().contains("\"mixed\""));
        let mut m = TuningDb::new();
        m.mixed.insert(key(), mixed_record(300));
        assert!(!m.is_empty());
        // A future precision name fails the parse, not the load.
        let mut rec = mixed_record(300);
        rec.assignment.push(("conv9".into(), "Int4".into()));
        assert_eq!(rec.assignment_map(), None);
    }

    fn placement_record() -> PlacementRecord {
        PlacementRecord {
            replicas: vec![
                ("MobileNetV1".into(), "S10SX".into(), 120),
                ("LeNet-5".into(), "A10".into(), 3),
            ],
            total_rate_rps: 4812.5,
            evaluations: 9,
        }
    }

    #[test]
    fn placement_records_round_trip_and_first_write_wins() {
        let mut db = TuningDb::new();
        assert!(db
            .placements
            .insert("fleet-abc123".into(), placement_record()));
        assert!(
            !db.placements.insert(
                "fleet-abc123".into(),
                PlacementRecord {
                    evaluations: 99,
                    ..placement_record()
                }
            ),
            "a spec digest is a pure cache key; first write wins"
        );
        let text = db.to_json();
        let back = TuningDb::from_json(&text).unwrap();
        assert_eq!(back.placements.len(), 1);
        assert_eq!(
            back.placements.lookup("fleet-abc123"),
            db.placements.lookup("fleet-abc123")
        );
        assert_eq!(back.to_json(), text, "canonical rendering is stable");
        // Merge carries placements across databases.
        let mut other = TuningDb::new();
        other
            .placements
            .insert("fleet-def456".into(), placement_record());
        assert_eq!(db.merge(&other), 1);
        assert_eq!(db.placements.len(), 2);
    }

    #[test]
    fn placement_free_databases_render_without_a_placements_section() {
        let mut db = TuningDb::new();
        db.tilings.insert(key(), record((7, 8, 8), 0.012));
        db.pipeline.insert(key(), pipeline_record("fill*2", 0.033));
        assert!(!db.to_json().contains("\"placements\""));
        // And a placement-only database still counts as non-empty.
        let mut p = TuningDb::new();
        p.placements
            .insert("fleet-abc123".into(), placement_record());
        assert!(!p.is_empty());
    }

    #[test]
    fn an_empty_database_still_writes_its_records_section() {
        let text = TuningDb::new().to_json();
        assert_eq!(text, "{\n  \"version\": 1,\n  \"records\": []\n}\n");
        assert!(TuningDb::from_json(&text).unwrap().is_empty());
    }

    #[test]
    fn malformed_documents_are_structured_errors() {
        assert!(TuningDb::from_json("{").is_err());
        assert!(TuningDb::from_json("{\"version\": 99, \"records\": []}")
            .unwrap_err()
            .contains("version"));
        let missing = "{\"version\": 1, \"records\": [{\"model\": \"m\"}]}";
        let err = TuningDb::from_json(missing).unwrap_err();
        assert!(err.contains("record 0: missing"), "{err}");
        // Every section's errors name the section, record and field.
        let mut db = TuningDb::new();
        db.tilings.insert(key(), record((7, 8, 8), 0.012));
        db.pipeline.insert(key(), pipeline_record("fill*2", 0.033));
        db.placements
            .insert("fleet-abc123".into(), placement_record());
        let text = db.to_json();
        for (from, to, error) in [
            (
                "\"max_stages\": 32",
                "\"max_stages\": -32",
                "`pipeline` record 0: `max_stages` must be a non-negative integer",
            ),
            (
                "[\"LeNet-5\", \"A10\", 3]",
                "[\"LeNet-5\", \"A10\"]",
                "`placements` record 0: `replicas[1]` must be a [model, platform, count] triple",
            ),
            (
                "\"records\": [",
                "\"records\": [{}, ",
                "`records` record 0: missing `tile`",
            ),
        ] {
            let broken = text.replace(from, to);
            assert_eq!(TuningDb::from_json(&broken).unwrap_err(), error);
        }
    }
}
