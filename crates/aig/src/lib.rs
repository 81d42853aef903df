//! # autocc-aig
//!
//! Bit-level lowering for the AutoCC flow (Orenes-Vera et al., MICRO 2023):
//! an and-inverter graph (AIG) with structural hashing, a word-to-bit
//! *bit-blaster* that turns an `autocc-hdl` module into a transition
//! relation, and a lazy Tseitin CNF encoder feeding the `autocc-sat`
//! solver.
//!
//! This crate is the moral equivalent of the synthesis front-end inside the
//! FPV tools the paper uses: JasperGold and SBY both reduce RTL to an
//! internal AIG-like form before invoking their solver engines.
//!
//! ## Pipeline
//!
//! ```text
//! Module ──SeqAig::from_module──▶ SeqAig (AIG + state/next/output lits)
//!        ──FrameMap::new per cycle──▶ CNF clauses in autocc-sat::Solver
//! ```
//!
//! ## Example
//!
//! ```
//! use autocc_hdl::{Bv, ModuleBuilder};
//! use autocc_aig::SeqAig;
//!
//! let mut b = ModuleBuilder::new("toggle");
//! let t = b.reg("t", 1, Bv::zero(1));
//! let n = b.not(t);
//! b.set_next(t, n);
//! b.output("q", t);
//! let module = b.build();
//!
//! let seq = SeqAig::from_module(&module);
//! assert_eq!(seq.state_cur.len(), 1);
//! assert_eq!(seq.state_init, vec![false]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blast;
mod cnf;
mod coi;
mod graph;

pub use blast::{SeqAig, StateBitInfo, StateSource};
pub use cnf::{assert_true_lit, FrameMap};
pub use coi::{cluster_cones, sequential_coi, ConeCluster, ConeWalk, SeqCoi};
pub use graph::{Aig, AigLit, AigNode};
