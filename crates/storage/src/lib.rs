//! # storage — durability subsystem for the SolveDB+ reproduction
//!
//! The catalog is in-memory and copy-on-write; this crate makes it
//! survive restarts and crashes, and makes it *one* catalog for every
//! session attached to the same data directory:
//!
//! * **Write-ahead log** ([`wal`]) — an append-only file of
//!   length-prefixed, CRC-32-checksummed *logical* records
//!   ([`record`]): one [`sqlengine::catalog::CatalogMutation`] per
//!   record (DDL, DML batches, solution materializations). Logging
//!   logical catalog mutations rather than SQL text means replay never
//!   re-runs a solver or UDF, so nondeterministic solves recover to
//!   exactly the rows that were committed.
//! * **Snapshots** ([`snapshot`]) — periodic atomic binary images of
//!   the full catalog (schemas, rows, views, UDF names) tagged with
//!   the last covered LSN, written by `CHECKPOINT`.
//! * **Recovery** ([`engine`]) — load the newest valid snapshot, then
//!   replay WAL records with a higher LSN; a torn final record (crash
//!   mid-write) is detected by checksum/length validation and
//!   physically truncated, leaving a prefix-consistent catalog.
//!
//! Shared by all sessions of a [`StorageEngine`]: the current version of
//! the relations (tables with their columnar images and statistics,
//! views), which a session adopts when a statement starts. Per session: a
//! [`SessionHook`] (the catalog's `DurabilityHook`) that buffers the
//! statement's mutations, logs them as one group-commit write, fsyncing
//! per [`FsyncPolicy`], and publishes the version they lead to — merging
//! appends and refusing conflicting changes to a relation another
//! connection committed to meanwhile. Everything is `std`-only (the repo
//! vendors no I/O crates); CRC-32 is implemented in [`crc`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod crc;
pub mod engine;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use engine::{FsyncPolicy, RecoveryStats, SessionHook, StorageEngine};
pub use record::Record;
pub use snapshot::SnapshotData;
pub use wal::{Wal, WalScan};
