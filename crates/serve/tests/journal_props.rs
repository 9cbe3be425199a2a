//! Property tests for the crash-resume journal: replay must be
//! idempotent under arbitrary duplication and interleaving of entries
//! — the exact traffic a reclaimed-then-completed lease produces.

use pimcomp_dse::PointRecord;
use pimcomp_serve::{
    replay, spec_fingerprint, Journal, JournalEntry, JournalHeader, JOURNAL_VERSION,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn case_path() -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "pimcomp-journal-prop-{}-{case}.jsonl",
        std::process::id()
    ))
}

fn header(points: u64) -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        job: "prop".into(),
        spec_fingerprint: spec_fingerprint("{\"prop\":true}"),
        points,
    }
}

/// The deterministic record for a point index — duplicates on the wire
/// and in the journal always carry identical payloads, which is the
/// precondition the last-wins replay rule relies on.
fn record(index: u64) -> PointRecord {
    PointRecord {
        model: format!("model{}", index % 3),
        mode: if index.is_multiple_of(2) { "HT" } else { "LL" }.into(),
        hardware: "small_test".into(),
        policy: "naive".into(),
        batch: 1 + index % 4,
        seed: index,
        weight_reload: "off".into(),
        seq_len: if index.is_multiple_of(3) {
            None
        } else {
            Some(32 * (1 + index % 4))
        },
        quantization: if index.is_multiple_of(4) {
            Some(8)
        } else {
            None
        },
        rung: 0,
        budget: 2,
        pruned_at: None,
        ok: index % 5 != 4,
        error: if index % 5 == 4 {
            Some("synthetic failure".into())
        } else {
            None
        },
        metrics: None,
        pareto: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appending any sequence of (possibly heavily duplicated) entries
    /// replays to exactly one record per distinct index, and replaying
    /// a journal with every record appended *again* changes nothing.
    #[test]
    fn replay_is_idempotent_under_duplicate_records(
        points in 1u64..12,
        picks in proptest::collection::vec(0u64..12, 1..40),
    ) {
        let picks: Vec<u64> = picks.into_iter().map(|i| i % points).collect();
        let path = case_path();
        let header = header(points);

        let mut journal = Journal::create(&path, &header).unwrap();
        for &index in &picks {
            journal.append(&JournalEntry { index, record: record(index) }).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);

        let first = replay(&path, &header).unwrap();
        let distinct: BTreeSet<u64> = picks.iter().copied().collect();
        prop_assert_eq!(first.records.len(), distinct.len());
        for &index in &distinct {
            prop_assert_eq!(&first.records[&index], &record(index));
        }

        // Re-journal every replayed record (a full round of straggler
        // duplicates) and replay again: byte-for-byte the same map.
        let mut journal = Journal::open_append(&path, &first).unwrap();
        for (&index, rec) in &first.records {
            journal.append(&JournalEntry { index, record: rec.clone() }).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        let second = replay(&path, &header).unwrap();
        prop_assert_eq!(&second.records, &first.records);

        std::fs::remove_file(&path).ok();
    }

    /// Truncating the journal after any byte count at least the header
    /// either replays cleanly (dropping at most the torn final entry)
    /// or — never — panics; and resuming the truncated file with
    /// `open_append` repairs it so a further replay still succeeds.
    #[test]
    fn truncation_never_panics_and_resume_repairs(
        points in 1u64..8,
        cut_back in 0usize..200,
    ) {
        let path = case_path();
        let header = header(points);
        let mut journal = Journal::create(&path, &header).unwrap();
        for index in 0..points {
            journal.append(&JournalEntry { index, record: record(index) }).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);

        let text = std::fs::read_to_string(&path).unwrap();
        let header_len = text.lines().next().unwrap().len() + 1;
        let cut = text.len().saturating_sub(cut_back).max(header_len);
        std::fs::write(&path, &text[..cut]).unwrap();

        // A cut can land mid-line (torn tail, dropped) or on a line
        // boundary (clean prefix); both must replay without panicking.
        let replayed = replay(&path, &header).unwrap();
        prop_assert!(replayed.records.len() as u64 <= points);

        // Resume over the damaged file, append one fresh entry, and
        // the journal must still replay end to end.
        let mut journal = Journal::open_append(&path, &replayed).unwrap();
        journal.append(&JournalEntry { index: 0, record: record(0) }).unwrap();
        journal.sync().unwrap();
        drop(journal);
        let repaired = replay(&path, &header).unwrap();
        prop_assert!(repaired.records.contains_key(&0));
        prop_assert!(repaired.records.len() >= replayed.records.len());

        std::fs::remove_file(&path).ok();
    }
}
