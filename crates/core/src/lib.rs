//! # autocc-core
//!
//! The AutoCC methodology (Orenes-Vera et al., *AutoCC: Automatic Discovery
//! of Covert Channels in Time-Shared Hardware*, MICRO 2023), implemented
//! over the `autocc-hdl`/`autocc-aig`/`autocc-bmc`/`autocc-sat` stack.
//!
//! AutoCC detects covert channels in hardware that is time-shared between
//! processes. It instantiates the design under test (DUT) twice — universes
//! α and β — lets both run *any* legal victim execution, models the OS
//! context switch as convergence of architectural state plus completion of
//! the microarchitectural flush, and then, with inputs held equal, asserts
//! that every DUT output is equal in both universes on every cycle. A
//! counterexample is a two-universe execution in which microarchitectural
//! residue from the victim changes what the spy observes: a covert channel.
//!
//! ## Crate map
//!
//! * [`FtSpec`] — testbench specification and generation (paper Sec. 3.3):
//!   `THRESHOLD`, `flush_done`, `architectural_state_eq`, assumptions.
//! * [`FpvTestbench`] — the generated two-universe miter; [`FpvTestbench::check`]
//!   searches for counterexamples, [`FpvTestbench::prove`] attempts a full
//!   proof by k-induction.
//! * [`CovertChannelCex`] — a counterexample with automatic root-cause
//!   analysis: the microarchitectural state that differed at spy start.
//! * [`incremental_flush`] / [`decremental_flush`] — Algorithms 1 and 2
//!   (Sec. 3.5), synthesising minimal flush sets.
//! * [`TableRow`]/[`format_table`] — the experiment-report shape of the
//!   paper's tables.
//!
//! ## Example: catching an unflushed register
//!
//! ```
//! use autocc_hdl::{Bv, ModuleBuilder};
//! use autocc_core::FtSpec;
//! use autocc_bmc::CheckConfig;
//!
//! // A 4-bit "configuration register" device: writes latch, reads expose
//! // the stored value only while `re` is high — so the victim can park a
//! // secret in `cfg` that stays invisible across the context switch.
//! let mut b = ModuleBuilder::new("cfg_dev");
//! let we = b.input("we", 1);
//! let re = b.input("re", 1);
//! let data = b.input("data", 4);
//! let cfg = b.reg("cfg", 4, Bv::zero(4));
//! let next = b.mux(we, data, cfg);
//! b.set_next(cfg, next);
//! let zero = b.lit(4, 0);
//! let q = b.mux(re, cfg, zero);
//! b.output("q", q);
//! let dut = b.build();
//!
//! // Default testbench: no flush, no arch state. The register leaks:
//! // the spy reads back whatever the victim configured.
//! let ft = FtSpec::new(&dut).generate();
//! let report = ft.check(&CheckConfig::default().depth(12));
//! let cex = report.outcome.cex().expect("cfg register is a covert channel");
//! assert_eq!(cex.property, "as__q_eq");
//! assert_eq!(cex.diverging_state[0].name, "cfg");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flush;
mod report;
mod spec;
mod sva;
mod testbench;

pub use flush::{
    decremental_flush, incremental_flush, FlushIteration, FlushSynthesisConfig,
    FlushSynthesisResult,
};
pub use report::{
    certificate_summary, failure_summary, format_duration, format_table, format_table_detailed,
    format_table_stable, report_exit_code, RowStatus, TableRow,
};
pub use spec::{AssumeHook, FlushDone, FtSpec, MiterHook};
pub use sva::to_sva;
pub use testbench::{
    property_class, AutoCcOutcome, CheckReport, ClusterPlan, CovertChannelCex, FpvTestbench,
    MonitorHandles, PortRole, PropertyClass, PropertyCluster, PropertyVerdict, StateDivergence,
};
