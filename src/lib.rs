//! # autocc
//!
//! Umbrella crate for the AutoCC reproduction (Orenes-Vera et al.,
//! *AutoCC: Automatic Discovery of Covert Channels in Time-Shared
//! Hardware*, MICRO 2023): re-exports the full stack under one roof.
//!
//! * [`sat`] — CDCL SAT solver (the FPV engine backend).
//! * [`hdl`] — word-level netlist IR, builder DSL, simulator, VCD.
//! * [`aig`] — bit-blasting and CNF encoding.
//! * [`bmc`] — bounded model checking and k-induction.
//! * [`core`] — the AutoCC methodology: testbench generation, covert
//!   channel discovery, root-cause analysis, flush synthesis.
//! * [`duts`] — models of the paper's four evaluation targets.
//! * [`sysim`] — system-level co-simulation and exploits.
//! * [`telemetry`] — check-pipeline observability: spans, solver
//!   counters, run profiles.
//! * [`journal`] — crash-safe run journal: append-only fsync'd check
//!   records, torn-tail recovery, content-addressed resume; plus the
//!   worker protocol that isolated and fleet workers speak.
//! * [`bench`] — experiment harness: campaign runner, report tables,
//!   and the worker supervisor (isolated pools, remote fleet,
//!   quarantine).
//!
//! See the repository README for a quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use autocc_aig as aig;
pub use autocc_bench as bench;
pub use autocc_bmc as bmc;
pub use autocc_core as core;
pub use autocc_duts as duts;
pub use autocc_hdl as hdl;
pub use autocc_journal as journal;
pub use autocc_sat as sat;
pub use autocc_sysim as sysim;
pub use autocc_telemetry as telemetry;
