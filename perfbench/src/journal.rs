//! Reading and replaying a run's journal.
//!
//! [`walk`] reads the journal with the record framing alone
//! (`webmon_streams::record::parse_record`): every record's extent and
//! checksum, but no snapshot is deserialized. `scan_journal` deserializes
//! every snapshot, which takes seconds per megabyte of journal — far too
//! long to run after each session (see README.md).

use std::path::Path;
use std::time::Instant;
use webmon_core::model::Chronon;
use webmon_core::serve::{EngineSnapshot, FsyncPolicy, JournalWriter};
use webmon_streams::record::{parse_record, RecordError};

// Record kinds of journal format version 1.
const KIND_HEADER: u8 = 1;
const KIND_FRAME: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;
const KIND_LIVE_MUTATION: u8 = 4;

/// Bytes a record adds to its payload: length prefix, kind byte, CRC.
const FRAMING: usize = 9;

/// One record of the journal, in file order.
pub enum Rec<'a> {
    /// A chronon frame: chronon, drain high-water mark, event lines.
    Frame(Chronon, u64, &'a str),
    /// A snapshot's JSON payload.
    Snapshot(&'a [u8]),
    /// A journaled live mutation.
    Live,
}

/// A journal read record by record.
#[derive(Default)]
pub struct Walk<'a> {
    /// Every record after the header, in file order.
    pub records: Vec<Rec<'a>>,
    /// Why the final record was discarded, if it was torn.
    pub torn_tail: Option<String>,
}

impl Walk<'_> {
    /// Frames, in file order.
    pub fn frames(&self) -> impl Iterator<Item = (Chronon, u64, &str)> {
        self.records.iter().filter_map(|r| match *r {
            Rec::Frame(t, seq, lines) => Some((t, seq, lines)),
            _ => None,
        })
    }

    /// Snapshot payloads, in file order.
    pub fn snapshots(&self) -> impl Iterator<Item = &[u8]> {
        self.records.iter().filter_map(|r| match *r {
            Rec::Snapshot(p) => Some(p),
            _ => None,
        })
    }

    /// Journaled live mutations.
    pub fn live_mutations(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, Rec::Live))
            .count()
    }

    /// Bytes of snapshot records, framing included.
    pub fn snapshot_bytes(&self) -> usize {
        self.snapshots().map(|p| p.len() + FRAMING).sum()
    }
}

/// Reads `buf` as a journal. A damaged final record is reported as a torn
/// tail; damage anywhere else, a missing header or an unknown record kind
/// is an error.
pub fn walk(buf: &[u8]) -> Result<Walk<'_>, String> {
    let mut w = Walk::default();
    let mut offset = 0;
    let mut header = false;
    loop {
        let rec = match parse_record(buf, offset) {
            Ok(None) => break,
            Ok(Some(rec)) => rec,
            Err(RecordError::Truncated { .. }) if header => {
                w.torn_tail = Some(format!("torn record at byte {offset} of {}", buf.len()));
                break;
            }
            Err(e) => return Err(e.to_string()),
        };
        match rec.kind {
            KIND_HEADER if !header => header = true,
            _ if !header => return Err("journal has no header".to_string()),
            KIND_FRAME if rec.payload.len() >= 12 => {
                let t = Chronon::from_le_bytes(rec.payload[0..4].try_into().expect("4 bytes"));
                let seq = u64::from_le_bytes(rec.payload[4..12].try_into().expect("8 bytes"));
                let lines = std::str::from_utf8(&rec.payload[12..]).map_err(|e| e.to_string())?;
                w.records.push(Rec::Frame(t, seq, lines));
            }
            KIND_SNAPSHOT => w.records.push(Rec::Snapshot(rec.payload)),
            KIND_LIVE_MUTATION => w.records.push(Rec::Live),
            kind => return Err(format!("unexpected record kind {kind} at byte {offset}")),
        }
        offset = rec.end;
    }
    if !header {
        return Err("journal has no header".to_string());
    }
    Ok(w)
}

/// Append timings of a journal replayed into a fresh writer.
#[derive(Default)]
pub struct Replay {
    /// Microseconds per `JournalWriter::frame`.
    pub frame_us: Vec<f64>,
    /// Milliseconds per `JournalWriter::snapshot`, for the sampled
    /// snapshots.
    pub snapshot_ms: Vec<f64>,
    /// Seconds spent deserializing the sampled snapshots (not timed as
    /// appends).
    pub parse_s: f64,
}

/// Snapshots deserialized and re-appended per replay: the first, the
/// middle and the last.
const SNAPSHOT_SAMPLES: usize = 3;

/// Replays `w`'s frames — and a sample of its snapshots, in place — into a
/// fresh journal at `path` under `fsync`, timing each append.
pub fn replay(w: &Walk<'_>, path: &Path, fsync: FsyncPolicy) -> Result<Replay, String> {
    let mut writer =
        JournalWriter::create(path, fsync, "perfbench replay").map_err(|e| e.to_string())?;
    let n_snaps = w.snapshots().count();
    let sampled: Vec<usize> = match n_snaps {
        0 => Vec::new(),
        n => {
            let mut v: Vec<usize> = (0..SNAPSHOT_SAMPLES)
                .map(|i| i * (n - 1) / (SNAPSHOT_SAMPLES - 1).max(1))
                .collect();
            v.dedup();
            v
        }
    };
    let mut out = Replay::default();
    let mut snap_index = 0;
    for rec in &w.records {
        match *rec {
            Rec::Frame(t, seq, lines) => {
                let start = Instant::now();
                writer.frame(t, seq, lines);
                out.frame_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            Rec::Snapshot(payload) => {
                if sampled.contains(&snap_index) {
                    let start = Instant::now();
                    let json = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
                    let snap: EngineSnapshot =
                        serde_json::from_str(json).map_err(|e| e.to_string())?;
                    out.parse_s += start.elapsed().as_secs_f64();
                    let start = Instant::now();
                    writer.snapshot(&snap);
                    out.snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
                snap_index += 1;
            }
            Rec::Live => {}
        }
    }
    writer.finish();
    match writer.errors() {
        [] => Ok(out),
        errors => Err(format!("journal replay: {errors:?}")),
    }
}
