//! Negative-path tests for the persistent tuning database: truncated and
//! corrupt files, unsupported versions, and concurrent writers racing on
//! the same path. Every failure must be a structured `Err` — never a
//! panic — and a failed load or merge must leave the on-disk file exactly
//! as it was.

use fpgaccel_aoc::Precision;
use fpgaccel_tune::{DbKey, TuneRecord, TuningDb};
use std::path::PathBuf;

fn key(model: &str) -> DbKey {
    DbKey {
        model: model.into(),
        shape_sig: "n13-cafe".into(),
        platform: "Arria10Gx".into(),
        precision: Precision::F32,
    }
}

fn record(tile: (usize, usize, usize), seconds: f64) -> TuneRecord {
    TuneRecord {
        tile,
        seconds_per_image: seconds,
        conv1x1_seconds: seconds * 0.6,
        dsps: 504,
        fmax_mhz: 187.5,
        evaluations: 12,
    }
}

/// Fresh scratch path under the system temp dir (no temp-dir crate: the
/// name carries the test's identity, and the test removes it).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fpgaccel-tune-db-negative");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn truncated_file_is_an_error_and_the_db_recovers_by_resaving() {
    let path = scratch("truncated.json");
    let mut db = TuningDb::new();
    db.tilings
        .insert(key("mobilenet_v1"), record((7, 8, 8), 0.010));
    db.save(&path).unwrap();

    // Chop the file mid-document, as a crashed writer would leave it.
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    let err = TuningDb::load(&path).expect_err("truncated file must not parse");
    assert!(!err.is_empty(), "error must carry a description");

    // The in-memory database can re-save over the damage and the file is
    // whole again.
    db.save(&path).unwrap();
    assert_eq!(TuningDb::load(&path).unwrap().tilings.len(), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_json_and_binary_garbage_are_structured_errors() {
    for (name, bytes) in [
        ("not-json.json", b"this is not json at all".to_vec()),
        ("wrong-shape.json", b"[1, 2, 3]".to_vec()),
        ("binary.json", vec![0u8, 159, 146, 150, 255, 0, 7]),
        ("empty.json", Vec::new()),
        // Nested deep enough to overflow the stack of an unbounded parser.
        (
            "deep.json",
            format!("{{\"version\": 1, \"records\": {}", "[".repeat(100_000)).into_bytes(),
        ),
    ] {
        let path = scratch(name);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            TuningDb::load(&path).is_err(),
            "{name}: corrupt file must be an error, not a panic or an empty db"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn records_with_broken_fields_are_rejected_with_the_record_index() {
    let good = "{\"version\": 1, \"records\": [{\"model\": \"m\", \"shape_sig\": \"s\", \
         \"platform\": \"p\", \"precision\": \"F32\", \"tile\": [7, 8, 8], \
         \"seconds_per_image\": 1, \"conv1x1_seconds\": 1, \"dsps\": 1, \
         \"fmax_mhz\": 1, \"evaluations\": 1}]}";
    assert_eq!(TuningDb::from_json(good).unwrap().tilings.len(), 1);

    let bad_tile = good.replace("[7, 8, 8]", "[7, 8]");
    let err = TuningDb::from_json(&bad_tile).unwrap_err();
    assert!(err.contains("record 0"), "index missing from: {err}");
    assert!(err.contains("tile"), "field missing from: {err}");

    let bad_precision = good.replace("\"F32\"", "\"F64\"");
    let err = TuningDb::from_json(&bad_precision).unwrap_err();
    assert!(err.contains("precision"), "field missing from: {err}");

    let not_a_number = good.replace("\"seconds_per_image\": 1", "\"seconds_per_image\": \"x\"");
    let err = TuningDb::from_json(&not_a_number).unwrap_err();
    assert!(
        err.contains("seconds_per_image"),
        "field missing from: {err}"
    );

    // Numbers no tuner could have written: each names its field.
    for (from, to, field) in [
        ("[7, 8, 8]", "[7.9, -3, 8]", "tile"),
        ("[7, 8, 8]", "[7, 0, 8]", "tile"),
        ("\"dsps\": 1", "\"dsps\": -5", "dsps"),
        ("\"evaluations\": 1", "\"evaluations\": 1.5", "evaluations"),
        (
            "\"seconds_per_image\": 1",
            "\"seconds_per_image\": -1",
            "seconds_per_image",
        ),
        (
            "\"seconds_per_image\": 1",
            "\"seconds_per_image\": 0",
            "seconds_per_image",
        ),
        ("\"fmax_mhz\": 1", "\"fmax_mhz\": 1e999", "fmax_mhz"),
        ("\"version\": 1", "\"version\": 1.7", "version"),
    ] {
        let broken = good.replace(from, to);
        let err = TuningDb::from_json(&broken).expect_err(&broken);
        assert!(err.contains(field), "`{field}` missing from: {err}");
    }
}

#[test]
fn unsupported_version_on_disk_is_rejected_and_the_file_is_left_untouched() {
    let path = scratch("future-version.json");
    let future = "{\n  \"version\": 2,\n  \"records\": []\n}\n";
    std::fs::write(&path, future).unwrap();

    let err = TuningDb::load(&path).expect_err("future version must not load");
    assert!(err.contains("version"), "{err}");

    // A merge-save against the unreadable file must fail rather than
    // clobber a database some newer build owns.
    let mut db = TuningDb::new();
    db.tilings
        .insert(key("mobilenet_v1"), record((7, 8, 8), 0.010));
    assert!(db.save_merged(&path).is_err());
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        future,
        "failed merge must leave the on-disk bytes untouched"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_writers_keep_the_best_record_per_key_via_save_merged() {
    let path = scratch("concurrent.json");

    // Two tuners load the same (empty) database, then race their saves.
    let mut fast = TuningDb::new();
    fast.tilings
        .insert(key("mobilenet_v1"), record((7, 16, 8), 0.005));
    let mut slow = TuningDb::new();
    slow.tilings
        .insert(key("mobilenet_v1"), record((7, 4, 4), 0.020));
    slow.tilings
        .insert(key("other_net"), record((7, 8, 8), 0.030));

    fast.save_merged(&path).unwrap();
    // The slow tuner lands second with a *worse* record for the shared
    // key; a plain save would clobber the better one.
    let merged = slow.save_merged(&path).unwrap();

    assert_eq!(merged.tilings.len(), 2);
    let on_disk = TuningDb::load(&path).unwrap();
    assert_eq!(
        on_disk.tilings.lookup(&key("mobilenet_v1")).unwrap().tile,
        (7, 16, 8),
        "the better concurrent record must survive"
    );
    assert_eq!(
        on_disk.tilings.lookup(&key("other_net")).unwrap().tile,
        (7, 8, 8)
    );

    // A later, genuinely better record still wins.
    let mut better = TuningDb::new();
    better
        .tilings
        .insert(key("mobilenet_v1"), record((14, 16, 8), 0.004));
    better.save_merged(&path).unwrap();
    assert_eq!(
        TuningDb::load(&path)
            .unwrap()
            .tilings
            .lookup(&key("mobilenet_v1"))
            .unwrap()
            .tile,
        (14, 16, 8)
    );
    let _ = std::fs::remove_file(&path);
}
