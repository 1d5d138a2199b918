//! Decoder hardening: no sequence of bytes — random, truncated, or
//! adversarially crafted — may panic a decoder. Corrupt input must always
//! surface as a typed error (`DecodeError` / `EngineError::Corrupt`).

use orion_core::persist::{apply_record, encode_group, save_database, LoadState};
use orion_core::prelude::*;
use orion_pdf::prelude::*;
use orion_storage::codec::{decode_joint, decode_pdf1, encode_joint, encode_pdf1};
use orion_storage::{FileStore, HeapFile};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u32..256, 0..max).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_pdf1_never_panics_on_arbitrary_bytes(bytes in arb_bytes(400)) {
        let _ = decode_pdf1(&mut &bytes[..]);
    }

    #[test]
    fn decode_joint_never_panics_on_arbitrary_bytes(bytes in arb_bytes(400)) {
        let _ = decode_joint(&mut &bytes[..]);
    }

    #[test]
    fn apply_record_never_panics_on_arbitrary_bytes(bytes in arb_bytes(400)) {
        let mut state = LoadState::default();
        let _ = apply_record(&bytes, &mut state);
    }

    #[test]
    fn single_byte_mutations_of_valid_encodings_never_panic(
        pos in 0usize..4096, delta in 1u32..256
    ) {
        let joint = JointPdf::independent(vec![
            Pdf1::gaussian(3.0, 2.0).unwrap(),
            Pdf1::discrete(vec![(1.0, 0.4), (2.0, 0.6)]).unwrap(),
        ])
        .unwrap();
        let mut bytes = Vec::new();
        encode_joint(&joint, &mut bytes);
        let pos = pos % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(delta as u8);
        // Decode may succeed (mutation hit a payload float) or fail, but
        // must never panic or loop.
        let _ = decode_joint(&mut &bytes[..]);
    }
}

/// Every strict prefix of a valid encoding must decode to an error.
#[test]
fn truncated_pdf_encodings_always_error() {
    for pdf in [
        Pdf1::gaussian(0.0, 1.0).unwrap(),
        Pdf1::uniform(-1.0, 1.0).unwrap(),
        Pdf1::discrete(vec![(1.0, 0.5), (2.0, 0.5)]).unwrap(),
        Pdf1::Histogram(Pdf1::gaussian(0.0, 1.0).unwrap().to_histogram(6).unwrap()),
    ] {
        let mut bytes = Vec::new();
        encode_pdf1(&pdf, &mut bytes);
        for cut in 0..bytes.len() {
            assert!(decode_pdf1(&mut &bytes[..cut]).is_err(), "prefix {cut} of {pdf}");
        }
    }
}

/// The raw tagged records of a small database saved as `name` (one file per
/// test, so tests running in parallel never share it): schema, base, tuple.
fn snapshot_records(name: &str) -> Vec<Vec<u8>> {
    let mut reg = HistoryRegistry::new();
    let schema = ProbSchema::new(
        vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)],
        vec![],
    )
    .unwrap();
    let mut rel = Relation::new("T", schema);
    rel.insert_simple(
        &mut reg,
        &[("id", Value::Int(1))],
        &[("v", Pdf1::gaussian(5.0, 2.0).unwrap())],
    )
    .unwrap();
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), rel);
    let dir = orion_tests::scratch_dir("decode_fuzz");
    let path = dir.join(name);
    save_database(&path, &tables, &reg).unwrap();
    let heap = HeapFile::new(FileStore::open(&path).unwrap(), 8);
    let mut records: Vec<Vec<u8>> = Vec::new();
    heap.scan(|_, rec| {
        records.push(rec.to_vec());
        true
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(records.len() >= 3, "schema + base + tuple");
    records
}

#[test]
fn truncated_database_records_always_error_as_corruption() {
    // Snapshot a small database and harvest its raw tagged records.
    let records = snapshot_records("orion_decode_fuzz.db");
    for (i, rec) in records.iter().enumerate() {
        for cut in 0..rec.len() {
            let mut state = LoadState::default();
            for prev in &records[..i] {
                apply_record(prev, &mut state).unwrap();
            }
            let err = apply_record(&rec[..cut], &mut state)
                .expect_err(&format!("record {i} prefix {cut} must not decode"));
            assert!(err.is_corruption(), "record {i} prefix {cut}: {err}");
        }
    }
}

/// A transaction's group record: the whole group applies; every strict
/// prefix, a nested group and a retired marker member are corruption.
#[test]
fn group_records_decode_strictly() {
    let records = snapshot_records("orion_decode_fuzz_group.db");
    let mut group = Vec::new();
    encode_group(&records, &mut group);
    let mut state = LoadState::default();
    apply_record(&group, &mut state).unwrap();
    assert_eq!(state.tables["T"].len(), 1, "members apply in order");
    for cut in 0..group.len() {
        let err = apply_record(&group[..cut], &mut LoadState::default())
            .expect_err(&format!("group prefix {cut} must not decode"));
        assert!(err.is_corruption(), "group prefix {cut}: {err}");
    }
    let mut nested = Vec::new();
    encode_group(&[&group], &mut nested);
    let err = apply_record(&nested, &mut LoadState::default()).unwrap_err();
    assert!(err.is_corruption() && err.to_string().contains("nested"), "{err}");
    for tag in [6u8, 7, 8] {
        let marker = [&[tag][..], &9u64.to_le_bytes()].concat();
        let mut legacy = Vec::new();
        encode_group(&[marker], &mut legacy);
        let err = apply_record(&legacy, &mut LoadState::default()).unwrap_err();
        assert!(err.is_corruption() && err.to_string().contains("checkpoint()"), "{err}");
    }
}

/// A group whose member count or member length lies is rejected by bounds
/// math over the bytes present — members are borrowed, never allocated.
#[test]
fn lying_group_counts_and_lengths_are_rejected_cheaply() {
    let records = snapshot_records("orion_decode_fuzz_lying.db");
    let mut group = Vec::new();
    encode_group(&records, &mut group);
    let n = records.len() as u32;
    for count in [u32::MAX, n + 1, n - 1] {
        let mut lie = group.clone();
        lie[1..5].copy_from_slice(&count.to_le_bytes());
        let err = apply_record(&lie, &mut LoadState::default()).unwrap_err();
        assert!(err.is_corruption(), "count {count}: {err}");
    }
    let first_len = records[0].len() as u32;
    for len in [u32::MAX, u32::MAX - 3, first_len + 1, first_len - 1] {
        let mut lie = group.clone();
        lie[5..9].copy_from_slice(&len.to_le_bytes());
        let err = apply_record(&lie, &mut LoadState::default()).unwrap_err();
        assert!(err.is_corruption(), "member length {len}: {err}");
    }
}

/// Crafted length-field attacks: a u32::MAX count must be rejected by
/// bounds math, not by attempting a multi-gigabyte allocation.
#[test]
fn absurd_length_fields_are_rejected_cheaply() {
    // Tuple record claiming u32::MAX certain values.
    let mut rec = vec![3u8]; // TAG_TUPLE
    rec.extend_from_slice(&1u32.to_le_bytes());
    rec.push(b'T');
    rec.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut state = LoadState::default();
    assert!(apply_record(&rec, &mut state).unwrap_err().is_corruption());

    // Schema record claiming u32::MAX columns.
    let mut rec = vec![1u8]; // TAG_SCHEMA
    rec.extend_from_slice(&1u32.to_le_bytes());
    rec.push(b'S');
    rec.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut state = LoadState::default();
    assert!(apply_record(&rec, &mut state).unwrap_err().is_corruption());

    // Base record claiming u32::MAX attributes.
    let mut rec = vec![2u8]; // TAG_BASE
    rec.extend_from_slice(&7u64.to_le_bytes());
    rec.push(0);
    rec.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut state = LoadState::default();
    assert!(apply_record(&rec, &mut state).unwrap_err().is_corruption());

    // String with an absurd length.
    let mut rec = vec![3u8]; // TAG_TUPLE, table-name length lies
    rec.extend_from_slice(&u32::MAX.to_le_bytes());
    rec.push(b'x');
    let mut state = LoadState::default();
    assert!(apply_record(&rec, &mut state).unwrap_err().is_corruption());
}
