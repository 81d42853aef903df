//! # autocc-bench
//!
//! The experiment harness regenerating every table and figure of the
//! AutoCC paper (see `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record). Each experiment is a library function so the
//! report binaries (`report_*`) and the Criterion benches share one
//! definition of every testbench configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod experiments;
pub mod fleet;
pub mod workers;
pub use campaign::{
    run_campaign, Campaign, CampaignError, CampaignOptions, CampaignOutcome, CampaignStats,
    CampaignTask, Placement,
};
pub use cli::{
    finish_fleet, finish_profile, parse_flags, parse_report_args, ProfileSink, ReportArgs,
};
pub use experiments::*;
pub use fleet::{Fleet, FleetConfig, FleetEngine, FleetStats, FleetVerdict};
pub use workers::{maybe_run_worker, ProcEngine, WorkerLimits, WorkerPool};
