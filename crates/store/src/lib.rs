//! # grdf-store — crash-safe durability for GRDF
//!
//! The paper's Fig. 3 centers on an *Onto repository* feeding G-SACS; this
//! crate makes that repository survive a crash. Three layers:
//!
//! * [`backend`] — an injectable [`StorageBackend`] (real files, in-memory,
//!   crash-at-byte-N, seeded fault injection) so every durability path is
//!   testable deterministically.
//! * [`wal`] — an append-only, CRC32-checksummed write-ahead log with
//!   torn-tail truncation and fail-closed interior-corruption detection.
//! * [`checkpoint`] — atomic, footer-checksummed snapshots of the base
//!   graph + policy set in the canonical `grdf_rdf::codec` encoding.
//!
//! [`DurableStore`] composes them: G-SACS appends every accepted update
//! batch to the WAL *before* mutating its in-memory state (the write-ahead
//! invariant), checkpoints rotate by WAL-size threshold, and
//! [`DurableStore::open`] rebuilds the exact pre-crash base graph and
//! policy set from the newest valid checkpoint plus the surviving WAL
//! prefix — refusing to serve (never serving a silently-holed graph) when
//! corruption is interior rather than a torn tail.

pub mod backend;
pub mod checkpoint;
pub mod store;
pub mod wal;

pub use backend::{CrashBackend, FaultyBackend, FsBackend, MemBackend, StorageBackend};
pub use store::{
    bump_boot, read_boot, recover, verify, DurableStore, Recovered, StoreConfig, VerifyReport,
};
pub use wal::FsyncPolicy;

use std::fmt;
use std::io;

use grdf_rdf::codec::{self, CodecError};
use grdf_rdf::term::Triple;

/// A typed durability failure. Everything fails closed: no variant is
/// recoverable by ignoring it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed (message keeps the `io::Error` text; the
    /// variant stays `Clone`/`Eq` for test assertions).
    Io {
        /// Store-relative file name.
        path: String,
        /// Stringified `io::Error`.
        message: String,
    },
    /// A WAL record failed its CRC **and** later records still parse:
    /// damage is in the middle of the log, so replaying past it would
    /// serve a graph with a silent hole. The store refuses to recover.
    CorruptInterior {
        /// Segment file name.
        path: String,
        /// Byte offset of the damaged record.
        offset: u64,
    },
    /// A checkpoint file failed its footer CRC or structural decode.
    CorruptCheckpoint {
        /// Checkpoint file name.
        path: String,
        /// The underlying codec failure.
        source: CodecError,
    },
    /// A WAL record's payload decoded to garbage (valid CRC, bad content —
    /// e.g. a foreign file at the WAL path).
    Codec(CodecError),
    /// No valid checkpoint exists to recover from.
    NoCheckpoint,
    /// A WAL segment needed to bridge a checkpoint fallback is missing;
    /// recovering without it would silently lose the ops it held.
    MissingWal {
        /// The missing segment's sequence number.
        seq: u64,
    },
    /// A prior append failed, so the log tail state is unknown; the store
    /// rejects further writes until re-opened through recovery.
    Poisoned,
}

impl StoreError {
    /// Adapter for `io::Result` call sites: `.map_err(StoreError::io(path))`.
    pub fn io(path: &str) -> impl FnOnce(io::Error) -> StoreError + '_ {
        move |e| StoreError::Io {
            path: path.to_string(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "i/o failure on {path}: {message}"),
            StoreError::CorruptInterior { path, offset } => write!(
                f,
                "interior corruption in {path} at byte {offset}: refusing to serve a holed graph"
            ),
            StoreError::CorruptCheckpoint { path, source } => {
                write!(f, "corrupt checkpoint {path}: {source}")
            }
            StoreError::Codec(e) => write!(f, "undecodable record payload: {e}"),
            StoreError::NoCheckpoint => write!(f, "no valid checkpoint to recover from"),
            StoreError::MissingWal { seq } => {
                write!(
                    f,
                    "wal segment {seq} is missing; recovery would lose its ops"
                )
            }
            StoreError::Poisoned => {
                write!(
                    f,
                    "store poisoned by an earlier append failure; re-open to recover"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> StoreError {
        StoreError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// Logged operations
// ---------------------------------------------------------------------------

/// One graph mutation as recorded in the WAL. `grdf-security` converts its
/// `UpdateOp` into this (the store crate sits *below* the security crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoggedOp {
    /// Insert a triple into the base graph.
    Insert(Triple),
    /// Remove a triple from the base graph.
    Delete(Triple),
}

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;

/// Encode an update batch (all ops of one accepted `UpdateRequest`) as one
/// WAL record payload, so a batch replays atomically or not at all.
pub fn encode_batch(ops: &[LoggedOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ops.len() * 32 + 4);
    codec::write_varint(ops.len() as u64, &mut out);
    for op in ops {
        match op {
            LoggedOp::Insert(t) => {
                out.push(OP_INSERT);
                codec::encode_triple(t, &mut out);
            }
            LoggedOp::Delete(t) => {
                out.push(OP_DELETE);
                codec::encode_triple(t, &mut out);
            }
        }
    }
    out
}

/// Decode one WAL record payload back to its batch.
pub fn decode_batch(payload: &[u8]) -> Result<Vec<LoggedOp>, CodecError> {
    let mut pos = 0;
    let count = codec::read_varint(payload, &mut pos)?;
    let count = usize::try_from(count).map_err(|_| CodecError::Truncated)?;
    if count > payload.len() {
        return Err(CodecError::Truncated);
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let &tag = payload.get(pos).ok_or(CodecError::Truncated)?;
        pos += 1;
        let triple = codec::decode_triple(payload, &mut pos)?;
        ops.push(match tag {
            OP_INSERT => LoggedOp::Insert(triple),
            OP_DELETE => LoggedOp::Delete(triple),
            other => return Err(CodecError::BadTag(other)),
        });
    }
    if pos != payload.len() {
        return Err(CodecError::Truncated);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grdf_rdf::term::Term;

    fn triple(n: u32) -> Triple {
        Triple::new(
            Term::iri(&format!("http://example.org/s{n}")),
            Term::iri("http://example.org/p"),
            Term::integer(i64::from(n)),
        )
    }

    #[test]
    fn batch_round_trips() {
        let ops = vec![
            LoggedOp::Insert(triple(1)),
            LoggedOp::Delete(triple(2)),
            LoggedOp::Insert(triple(3)),
        ];
        let payload = encode_batch(&ops);
        assert_eq!(decode_batch(&payload).unwrap(), ops);
        assert!(decode_batch(&[]).is_err());
        assert!(decode_batch(&payload[..payload.len() - 1]).is_err());
        let mut bad = payload.clone();
        bad[1] = 0x7E; // unknown op tag
        assert!(decode_batch(&bad).is_err());
    }

    #[test]
    fn empty_batch_round_trips() {
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn store_error_displays_mention_the_failure_site() {
        let e = StoreError::CorruptInterior {
            path: "wal-0".into(),
            offset: 42,
        };
        assert!(e.to_string().contains("wal-0"));
        assert!(e.to_string().contains("42"));
        let io = StoreError::io("boot")(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("boot"));
    }
}
