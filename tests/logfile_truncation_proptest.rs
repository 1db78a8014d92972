//! Property: a log truncated at *any* byte offset inside its final
//! record recovers to the longest intact prefix — the reader serves
//! every earlier record and stops cleanly, and `LogWriter::open_append_in`
//! resumes writing exactly at the recovery point. Holds identically
//! through the plain [`StdVfs`] and a (fault-free) [`FaultVfs`], so the
//! fault-injection decorator is proven transparent on the same inputs.

use std::path::Path;
use std::sync::Arc;

use flowkv_common::error::StoreError;
use flowkv_common::logfile::{LogReader, LogWriter};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::vfs::{FaultPlan, FaultVfs, StdVfs, Vfs};
use proptest::prelude::*;

/// Reads records until a clean end or a torn tail; a torn tail must be
/// reported as corruption at exactly `expect_tail` (the last intact
/// record boundary), never as a hard error earlier in the file.
fn read_surviving(vfs: &Arc<dyn Vfs>, path: &Path, expect_tail: u64) -> Vec<Vec<u8>> {
    let mut reader = LogReader::open_in(vfs, path).unwrap();
    let mut records = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some((_, payload))) => records.push(payload),
            Ok(None) => break,
            Err(StoreError::Corruption { offset, .. }) => {
                assert_eq!(offset, expect_tail, "corruption before the torn tail");
                break;
            }
            Err(e) => panic!("unexpected error reading truncated log: {e}"),
        }
    }
    records
}

fn check_all_cut_points(vfs: Arc<dyn Vfs>, dir: &Path, payloads: &[Vec<u8>]) {
    vfs.create_dir_all(dir).unwrap();
    let full = dir.join("full.log");
    let mut writer = LogWriter::create_in(&vfs, &full).unwrap();
    let mut last_start = 0u64;
    for p in payloads {
        last_start = writer.append(p).unwrap().offset;
    }
    writer.sync().unwrap();
    let full_len = writer.offset();
    drop(writer);
    let bytes = vfs.read(&full).unwrap();
    assert_eq!(bytes.len() as u64, full_len);

    let intact = &payloads[..payloads.len() - 1];
    for cut in last_start..full_len {
        let copy = dir.join(format!("cut-{cut}.log"));
        vfs.write(&copy, &bytes[..cut as usize]).unwrap();

        // The reader must serve every record before the torn one.
        let survivors = read_surviving(&vfs, &copy, last_start);
        assert_eq!(survivors, intact, "cut at byte {cut}");

        // Re-opening for append truncates the torn tail and resumes at
        // the recovery point; the log is then fully usable again.
        let mut appender = LogWriter::open_append_in(&vfs, &copy, |_, _| Ok(())).unwrap();
        assert_eq!(appender.offset(), last_start, "cut at byte {cut}");
        appender.append(b"recovered").unwrap();
        appender.sync().unwrap();
        drop(appender);
        let mut expected: Vec<Vec<u8>> = intact.to_vec();
        expected.push(b"recovered".to_vec());
        let reread = read_surviving(&vfs, &copy, u64::MAX);
        assert_eq!(reread, expected, "cut at byte {cut}");
        vfs.remove_file(&copy).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn truncation_inside_final_record_recovers(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 2..8)
    ) {
        let dir = ScratchDir::new("logfile-truncation").unwrap();
        let std_vfs: Arc<dyn Vfs> = StdVfs::shared();
        check_all_cut_points(std_vfs, &dir.path().join("std"), &payloads);
        let fault_vfs: Arc<dyn Vfs> = FaultVfs::new(StdVfs::shared(), FaultPlan::new());
        check_all_cut_points(fault_vfs, &dir.path().join("fault"), &payloads);
    }
}
