//! # autocc-journal
//!
//! Crash-safe campaign journal for the AutoCC reproduction: an
//! append-only record of every completed check, durable across `kill -9`,
//! plus the recovery loader that lets an interrupted campaign resume
//! without redoing finished work.
//!
//! The paper's experiments are hours-long FPV campaigns (Table 1 reports
//! multi-hour JasperGold runs); a crash near the end of such a campaign
//! should not cost the whole run. This crate provides the durability
//! layer:
//!
//! * **Journal** ([`Journal`]): newline-delimited JSON, one record per
//!   completed check, each committed with `sync_data` before the campaign
//!   proceeds. The first line is a header pinning the journal schema
//!   version and the [`config_fingerprint`] of the campaign's
//!   `CheckConfig`, so a resume under different settings is rejected.
//! * **Recovery** ([`recover`]): tolerates a torn or truncated *final*
//!   record — the signature of a crash mid-append — by discarding it and
//!   resuming from the last intact entry. Corruption anywhere earlier is
//!   an error, never silently skipped: recovery never discards an intact
//!   record and never trusts a torn one.
//! * **Content addressing**: records are keyed by
//!   [`autocc_bmc::content_key`] — a stable hash of the COI-sliced AIG,
//!   the property set, and the deterministic check budgets — so a resumed
//!   campaign re-runs exactly the checks whose inputs changed and serves
//!   the rest from the journal. Cached counterexamples must be
//!   replay-certified (`FpvTestbench::certify_cex`) before being trusted;
//!   that policy lives in the campaign runner, not here.
//!
//! [`config_fingerprint`]: autocc_bmc::config_fingerprint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ipc;
mod journal;
pub mod record;

/// The JSON layer records and wire frames are written in, shared with
/// the run profile.
pub use autocc_telemetry::json;

pub use journal::{recover, Journal, JournalError, RecoveredJournal};
pub use record::{
    entry_line, header_line, outcome_json, parse_entry, parse_header, parse_outcome, JournalEntry,
    JournalHeader, JOURNAL_SCHEMA_VERSION,
};
