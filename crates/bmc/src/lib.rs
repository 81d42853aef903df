//! # autocc-bmc
//!
//! Bounded model checking and k-induction over `autocc-hdl` netlists —
//! the solver-engine layer of the AutoCC reproduction (Orenes-Vera et al.,
//! MICRO 2023). Where the paper hands an FPV testbench to JasperGold or
//! SBY, this crate unrolls the bit-blasted transition relation into the
//! `autocc-sat` CDCL solver.
//!
//! * Safety properties and environment constraints are 1-bit module nodes
//!   that must hold on every cycle — the shape of every AutoCC property.
//! * Checking deepens incrementally; learnt clauses carry across depths.
//!   [`Bmc::check_each`] answers each property on its own from one shared
//!   unrolling, so learnt clauses also carry across properties.
//! * Counterexamples come back as input [`Trace`]s and are replay-validated
//!   against the interpreter before being reported, so a reported covert
//!   channel always reproduces in simulation.
//! * [`Bmc::prove`] runs k-induction with simple-path constraints for full
//!   (unbounded) proofs, as used for the paper's AES full-proof result.
//! * The [`engine`] layer wraps both strategies behind the pluggable
//!   [`CheckEngine`] trait, with per-property cone-of-influence slicing
//!   and cooperative cancellation; the [`portfolio`] scheduler fans
//!   independent jobs across threads (deterministic, order-indexed merge)
//!   and races engines over one spec (first conclusive result wins).
//!
//! ## Example: proving and refuting a counter property
//!
//! ```
//! use autocc_hdl::{Bv, ModuleBuilder};
//! use autocc_bmc::{Bmc, CheckConfig, CheckOutcome};
//!
//! let mut b = ModuleBuilder::new("counter");
//! let c = b.reg("count", 3, Bv::zero(3));
//! let one = b.lit(3, 1);
//! let next = b.add(c, one);
//! b.set_next(c, next);
//! let five = b.lit(3, 5);
//! let below = b.ult(c, five);
//! b.output("small", below);
//! let m = b.build();
//!
//! let mut bmc = Bmc::new(&m);
//! bmc.add_property("count_below_5", m.output_node("small").unwrap());
//! match bmc.check(&CheckConfig::default().depth(16)) {
//!     CheckOutcome::Cex(cex) => {
//!         // The counter reaches 5 after 6 cycles (0,1,2,3,4,5).
//!         assert_eq!(cex.depth, 6);
//!     }
//!     other => panic!("expected counterexample, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod certify;
mod checker;
pub mod config;
pub mod engine;
pub mod portfolio;
mod trace;

pub use cache::{
    certificate_digest, config_fingerprint, content_key, content_key_with_seq, CheckMode,
    ContentKey,
};
pub use certify::{cex_hash, CertificateStatus, CertificationEffort};
pub use checker::{
    Bmc, BmcStats, Cex, CheckFailure, CheckOutcome, FailureReason, ProveOutcome, StopCause,
};
pub use config::{solver_counters, CheckConfig, Granularity, Isolation, CLUSTER_OVERLAP};
pub use engine::{
    BmcEngine, CancelToken, CheckEngine, CheckSpec, EachRun, EngineOutcome, EngineRun, Falsifier,
    JobFailure, KInductionEngine, UnknownCause,
};
pub use portfolio::{EngineJob, JobPanic, Portfolio, RetryPolicy};
pub use trace::{ReplayedTrace, Trace};
