//! The generated FPV testbench and its checking interface.
//!
//! [`FpvTestbench`] owns the two-universe miter module and the generated
//! assumptions/assertions. [`FpvTestbench::check`] drives the bounded model
//! checker; a counterexample comes back as a [`CovertChannelCex`] with the
//! root-cause analysis of Sec. 4 already applied: the microarchitectural
//! state that differed between universes when the spy process started.

use autocc_aig::{cluster_cones, AigLit, ConeCluster, ConeWalk, SeqAig};
use autocc_bmc::{
    content_key_with_seq, BmcEngine, CancelToken, CertificateStatus, CheckConfig, CheckEngine,
    CheckMode, CheckSpec, ContentKey, EachRun, EngineJob, EngineOutcome, EngineRun, FailureReason,
    Falsifier, JobFailure, KInductionEngine, Portfolio, ReplayedTrace, Trace, UnknownCause,
    CLUSTER_OVERLAP,
};
use autocc_hdl::{Bv, Instance, Module, NodeId, RegId, Waveform};
use autocc_telemetry::{SolverCounters, SpanKind, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Role of each miter input port relative to the DUT interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortRole {
    /// Shared by both universes (the paper's `//AutoCC Common`).
    Common {
        /// Index of the corresponding DUT input.
        dut_port: usize,
    },
    /// Universe-a copy of a DUT input.
    UniverseA {
        /// Index of the corresponding DUT input.
        dut_port: usize,
    },
    /// Universe-b copy of a DUT input.
    UniverseB {
        /// Index of the corresponding DUT input.
        dut_port: usize,
    },
    /// The free `flush_done` oracle input.
    FlushFree,
}

/// Handles to the Listing-1 monitor signals inside the miter.
#[derive(Clone, Copy, Debug)]
pub struct MonitorHandles {
    /// Sticky register: set once the spy process is executing.
    pub spy_mode: NodeId,
    /// Consecutive-equality counter during the transfer period.
    pub eq_cnt: NodeId,
    /// Microarchitectural flush completion (free input or user condition).
    pub flush_done: NodeId,
    /// Equality of arch state, inputs, and outputs this cycle.
    pub transfer_cond: NodeId,
    /// Combinational condition that latches `spy_mode`.
    pub spy_starts: NodeId,
    /// The architectural-state equality condition.
    pub arch_state_eq: NodeId,
    /// All duplicated inputs equal this cycle (payloads valid-gated).
    pub input_signal_eq: NodeId,
    /// All outputs equal this cycle (payloads valid-gated).
    pub output_signal_eq: NodeId,
}

/// A microarchitectural state element that differed between universes
/// inside the context-switch window (the transfer period plus the spy-start
/// cycle). Differences confined to the victim phase are not reported: they
/// are the victim's legitimate divergence, not the channel's storage.
#[derive(Clone, Debug)]
pub struct StateDivergence {
    /// DUT-relative name (`pc`, `dcache.tags[2]`, ...).
    pub name: String,
    /// First cycle within the window at which the values differed.
    pub first_diff_cycle: usize,
    /// Last cycle (≤ spy start) at which the values differed.
    pub last_diff_cycle: usize,
    /// Value in universe a at `last_diff_cycle`.
    pub value_a: Bv,
    /// Value in universe b at `last_diff_cycle`.
    pub value_b: Bv,
}

/// A covert-channel counterexample: the paper's CEX, plus automatic
/// root-cause analysis.
#[derive(Clone, Debug)]
pub struct CovertChannelCex {
    /// The violated assertion (`as__<output>_eq`).
    pub property: String,
    /// Trace length in cycles — Table 1/2's "Depth".
    pub depth: usize,
    /// The miter-level input trace.
    pub trace: Trace,
    /// Cycle at which `spy_mode` first rose.
    pub spy_start_cycle: usize,
    /// Microarchitectural state that still differed between the universes
    /// when the spy began — the covert channel's storage (Sec. 3.5's
    /// `FindCause`). Ordered by DUT state declaration order.
    pub diverging_state: Vec<StateDivergence>,
}

/// Outcome of running AutoCC on a DUT.
#[derive(Clone, Debug)]
pub enum AutoCcOutcome {
    /// A covert channel (or RTL bug) was found.
    Cex(Box<CovertChannelCex>),
    /// No observable difference exists within the bound (bounded proof).
    Clean {
        /// Proven bound, in cycles.
        bound: usize,
    },
    /// The assertions hold for unbounded executions (full proof).
    Proved {
        /// Induction depth that closed the proof.
        induction_depth: usize,
    },
    /// Conflict budget exhausted first (deterministic).
    Exhausted {
        /// Deepest fully-proven depth, in cycles.
        bound: usize,
    },
    /// Stopped by a wall-clock budget or cancellation (machine-dependent,
    /// so kept apart from [`AutoCcOutcome::Exhausted`]).
    Unknown {
        /// Deepest fully-proven depth, in cycles.
        bound: usize,
        /// What stopped the run.
        cause: UnknownCause,
    },
    /// One or more check jobs failed internally (contained panic, replay
    /// mismatch, ...). The run survives; the failures carry the details.
    Failed {
        /// Every contained failure, in property order.
        failures: Vec<JobFailure>,
    },
}

impl AutoCcOutcome {
    /// The counterexample, if any.
    pub fn cex(&self) -> Option<&CovertChannelCex> {
        match self {
            AutoCcOutcome::Cex(c) => Some(c),
            _ => None,
        }
    }

    /// True when no counterexample exists within the explored bound.
    pub fn is_clean(&self) -> bool {
        matches!(
            self,
            AutoCcOutcome::Clean { .. } | AutoCcOutcome::Proved { .. }
        )
    }

    /// True when the run degraded instead of answering: a failure or a
    /// machine-dependent stop.
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            AutoCcOutcome::Unknown { .. } | AutoCcOutcome::Failed { .. }
        )
    }
}

/// Which semantic class a generated property belongs to.
///
/// The class decides which constraint set a property is checked under and
/// whether its result may move the table-level outcome. Exact-class
/// results fully determine the row; attribution-class results feed the
/// per-property verdict map (and degrade the row only on internal
/// failures, never on ordinary found/not-found answers), so paper-table
/// verdicts are identical at every granularity *by construction*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropertyClass {
    /// Listing-1 monitor properties (`as__*`, `inv__*`): exact covert-
    /// channel semantics under the `spy_mode` constraints.
    Exact,
    /// Per-state attribution properties (`st__*`): observer-monitor
    /// semantics under the `obs_mode` constraints.
    Attribution,
}

/// The class of a generated property, derived from its name prefix.
pub fn property_class(name: &str) -> PropertyClass {
    if name.starts_with("st__") {
        PropertyClass::Attribution
    } else {
        PropertyClass::Exact
    }
}

/// Splits an attribution state name like `regfile[2][7]` or `pc_f[3]` into
/// its base name and trailing bracketed indices. Returns `None` when the
/// bracket syntax is malformed (unterminated, non-numeric, or trailing
/// garbage after the last `]`).
fn parse_state_indices(state_name: &str) -> Option<(&str, Vec<usize>)> {
    let Some(open) = state_name.find('[') else {
        return Some((state_name, Vec::new()));
    };
    let (base, mut rest) = state_name.split_at(open);
    let mut indices = Vec::new();
    while !rest.is_empty() {
        let inner = rest.strip_prefix('[')?;
        let (idx, tail) = inner.split_once(']')?;
        indices.push(idx.parse().ok()?);
        rest = tail;
    }
    Some((base, indices))
}

/// Per-property outcome recorded in a [`CheckReport`]'s verdict map.
///
/// A compact projection of [`AutoCcOutcome`] — one number per verdict —
/// so hundreds of fine-grained verdicts stay cheap to journal and
/// render. The CEX *trace* lives only in the report-level outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropertyVerdict {
    /// The property is violated at this depth.
    Cex {
        /// Trace length in cycles.
        depth: usize,
    },
    /// The property holds up to this bound.
    Clean {
        /// Proven bound, in cycles.
        bound: usize,
    },
    /// The property holds for unbounded executions.
    Proved {
        /// Induction depth that closed the proof.
        induction_depth: usize,
    },
    /// Conflict budget exhausted first (deterministic).
    Exhausted {
        /// Deepest fully-proven depth.
        bound: usize,
    },
    /// Stopped by wall clock or cancellation (machine-dependent).
    Unknown {
        /// Deepest fully-proven depth.
        bound: usize,
    },
    /// The check job failed internally.
    Failed,
}

impl PropertyVerdict {
    /// Stable lower-case tag used in journal records.
    pub fn kind(&self) -> &'static str {
        match self {
            PropertyVerdict::Cex { .. } => "cex",
            PropertyVerdict::Clean { .. } => "clean",
            PropertyVerdict::Proved { .. } => "proved",
            PropertyVerdict::Exhausted { .. } => "exhausted",
            PropertyVerdict::Unknown { .. } => "unknown",
            PropertyVerdict::Failed => "failed",
        }
    }

    /// The verdict's single numeric payload (depth or bound; 0 for
    /// failures).
    pub fn num(&self) -> usize {
        match *self {
            PropertyVerdict::Cex { depth } => depth,
            PropertyVerdict::Clean { bound } => bound,
            PropertyVerdict::Proved { induction_depth } => induction_depth,
            PropertyVerdict::Exhausted { bound } => bound,
            PropertyVerdict::Unknown { bound } => bound,
            PropertyVerdict::Failed => 0,
        }
    }

    /// Inverse of the `(kind, num)` encoding.
    pub fn from_kind(kind: &str, num: usize) -> Option<PropertyVerdict> {
        Some(match kind {
            "cex" => PropertyVerdict::Cex { depth: num },
            "clean" => PropertyVerdict::Clean { bound: num },
            "proved" => PropertyVerdict::Proved {
                induction_depth: num,
            },
            "exhausted" => PropertyVerdict::Exhausted { bound: num },
            "unknown" => PropertyVerdict::Unknown { bound: num },
            "failed" => PropertyVerdict::Failed,
            _ => return None,
        })
    }
}

/// Result of a testbench run: the outcome, its wall-clock time (Table
/// 1/2's "Time"), and the solver work behind it. `stats` is collected
/// unconditionally (a struct copy per job, no clock reads), so reports can
/// print conflict counts even with telemetry disabled.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The outcome.
    pub outcome: AutoCcOutcome,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Aggregate solver counters across every job of the run.
    pub stats: SolverCounters,
    /// Per-property verdicts in property-registration order, naming
    /// which signal or state element each answer is about. Populated by
    /// the portfolio check paths; single-`Bmc` paths record what their
    /// one solve can attribute.
    pub verdicts: Vec<(String, PropertyVerdict)>,
    /// Whether the outcome deciding this row carries an independently
    /// checked certificate: a DRAT-checked proof transcript for
    /// UNSAT-backed verdicts (Clean, Proved), the replay-validated trace
    /// hash for counterexamples. Always `Uncertified` unless the run was
    /// made with [`CheckConfig::certify`]; inconclusive or failed rows
    /// never carry one.
    pub certificate: CertificateStatus,
}

/// Restricts a candidate certificate to conclusive outcomes: a failed row
/// (contained panic, replay mismatch, rejected proof) or an inconclusive
/// one (budget stop) must never look certified, whatever was collected
/// along the way.
fn gate_certificate(outcome: &AutoCcOutcome, candidate: CertificateStatus) -> CertificateStatus {
    match outcome {
        AutoCcOutcome::Cex(_) | AutoCcOutcome::Clean { .. } | AutoCcOutcome::Proved { .. } => {
            candidate
        }
        _ => CertificateStatus::Uncertified,
    }
}

/// One group of same-class properties whose sequential cones overlap
/// enough (Jaccard, [`CLUSTER_OVERLAP`]) to be sliced to a single
/// sub-miter and checked in one job; in the monolithic plan, one exact
/// property.
#[derive(Clone, Debug)]
pub struct PropertyCluster {
    /// Indices into [`FpvTestbench::properties`], ascending.
    pub members: Vec<usize>,
    /// The class every member shares (clusters never mix classes: the
    /// two classes run under different constraint sets).
    pub class: PropertyClass,
    /// State bits in the cluster's union cone (properties plus the class
    /// constraint set — exactly what the cluster's job slices to); 0 in
    /// the monolithic plan, which computes no cones.
    pub cone_state_bits: usize,
    /// Input-port bits in the cluster's union cone (0 when monolithic).
    pub cone_port_bits: usize,
    /// Display label: the first member's property name, with a `+N`
    /// suffix when N more properties share the cluster.
    pub label: String,
}

impl PropertyCluster {
    /// Total bits (state + ports) of the sliced cone.
    pub fn cone_bits(&self) -> usize {
        self.cone_state_bits + self.cone_port_bits
    }
}

/// The check plan for a testbench under one config: every property it
/// checks in exactly one cluster, exact-class clusters first. The
/// decomposed plan ([`FpvTestbench::cluster_plan`]) checks every
/// property; the monolithic one only the exact properties, one per job.
#[derive(Clone, Debug)]
pub struct ClusterPlan {
    /// The clusters, in deterministic plan order (exact class first,
    /// then attribution, each in first-member order).
    pub clusters: Vec<PropertyCluster>,
    /// State bits of the whole (unsliced) miter, for cone-size ratios.
    pub total_state_bits: usize,
    /// Input-port bits of the whole miter.
    pub total_port_bits: usize,
    /// The miter's bit-blast the decomposed plan was computed on, which
    /// its keys and in-process jobs reuse. `None` for the monolithic
    /// plan, which blasts nothing, and once released for jobs that run
    /// in another process.
    pub blast: Option<Arc<SeqAig>>,
}

impl ClusterPlan {
    /// Number of properties across all clusters.
    pub fn num_properties(&self) -> usize {
        self.clusters.iter().map(|c| c.members.len()).sum()
    }

    /// Mean union-cone size over clusters, in bits.
    pub fn mean_cone_bits(&self) -> f64 {
        if self.clusters.is_empty() {
            return 0.0;
        }
        let sum: usize = self.clusters.iter().map(|c| c.cone_bits()).sum();
        sum as f64 / self.clusters.len() as f64
    }

    /// Largest union cone over clusters, in bits.
    pub fn max_cone_bits(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| c.cone_bits())
            .max()
            .unwrap_or(0)
    }

    /// Releases the plan's blast unless `engine` answers in this process
    /// ([`CheckEngine::in_process`]): a worker blasts the module it is
    /// sent, so a blast held while its jobs run would only cost memory.
    /// Call it once the keys are computed and before any job starts.
    pub fn release_blast_for(&mut self, engine: &dyn CheckEngine) {
        if !engine.in_process() {
            self.blast = None;
        }
    }
}

/// A generated AutoCC FPV testbench (Sec. 3.3).
pub struct FpvTestbench {
    miter: Module,
    properties: Vec<(String, NodeId)>,
    constraints: Vec<NodeId>,
    /// Attribution-class assumptions (`obs_mode |-> input_eq` plus user
    /// hooks); empty unless the spec was generated at
    /// [`autocc_bmc::Granularity::Register`].
    obs_constraints: Vec<NodeId>,
    monitor: MonitorHandles,
    inst_a: Instance,
    inst_b: Instance,
    port_roles: Vec<PortRole>,
    threshold: u32,
}

impl FpvTestbench {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        miter: Module,
        properties: Vec<(String, NodeId)>,
        constraints: Vec<NodeId>,
        obs_constraints: Vec<NodeId>,
        monitor: MonitorHandles,
        inst_a: Instance,
        inst_b: Instance,
        port_roles: Vec<PortRole>,
        threshold: u32,
    ) -> FpvTestbench {
        FpvTestbench {
            miter,
            properties,
            constraints,
            obs_constraints,
            monitor,
            inst_a,
            inst_b,
            port_roles,
            threshold,
        }
    }

    /// The two-universe wrapper module (the FT's `wrapper.v`).
    pub fn miter(&self) -> &Module {
        &self.miter
    }

    /// Generated assertions: `(name, 1-bit node)`, one per DUT output —
    /// plus, at register granularity, one `st__*` attribution property
    /// per DUT state element.
    pub fn properties(&self) -> &[(String, NodeId)] {
        &self.properties
    }

    /// The exact-class (`as__`/`inv__`) subset of [`Self::properties`],
    /// with original `(global index, name, node)` positions. These are
    /// the properties whose answers decide the table-level outcome.
    pub fn exact_properties(&self) -> Vec<(usize, String, NodeId)> {
        self.properties
            .iter()
            .enumerate()
            .filter(|(_, (n, _))| property_class(n) == PropertyClass::Exact)
            .map(|(i, (n, p))| (i, n.clone(), *p))
            .collect()
    }

    /// Generated assumptions (including `spy_mode |-> input_eq`).
    pub fn constraints(&self) -> &[NodeId] {
        &self.constraints
    }

    /// Attribution-class assumptions (`obs_mode |-> input_eq` plus user
    /// hooks); empty unless generated at register granularity.
    pub fn obs_constraints(&self) -> &[NodeId] {
        &self.obs_constraints
    }

    /// The constraint set a property of the given name is checked (and
    /// replayed) under.
    pub fn class_constraints(&self, property: &str) -> &[NodeId] {
        self.constraints_of(property_class(property))
    }

    /// The constraint set the properties of `class` run under.
    fn constraints_of(&self, class: PropertyClass) -> &[NodeId] {
        match class {
            PropertyClass::Exact => &self.constraints,
            PropertyClass::Attribution => &self.obs_constraints,
        }
    }

    /// Monitor signal handles.
    pub fn monitor(&self) -> &MonitorHandles {
        &self.monitor
    }

    /// Universe-a instance handles.
    pub fn instance_a(&self) -> &Instance {
        &self.inst_a
    }

    /// Universe-b instance handles.
    pub fn instance_b(&self) -> &Instance {
        &self.inst_b
    }

    /// Role of each miter input port.
    pub fn port_roles(&self) -> &[PortRole] {
        &self.port_roles
    }

    /// The configured transfer-period threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Runs the exhaustive search for covert channels up to
    /// `config.max_depth` cycles: one [`BmcEngine`] solve over every exact
    /// property, sliced when `config.slice` asks.
    pub fn check(&self, config: &CheckConfig) -> CheckReport {
        self.check_exact("check", config, &[&BmcEngine])
    }

    /// Runs the covert-channel search through the check-engine portfolio:
    /// one [`BmcEngine`] job per generated assertion, optionally sliced to
    /// that assertion's sequential cone of influence, fanned across
    /// `config.jobs` worker threads.
    ///
    /// The merge is deterministic: the reported counterexample is the one
    /// with the smallest `(depth, property index)`, exhaustion bounds take
    /// the minimum over jobs, and results are merged in property order —
    /// so `jobs = 1` and `jobs = N` agree exactly (absent time budgets,
    /// which are inherently machine-dependent).
    ///
    /// Every job runs panic-contained under the config's retry policy; a
    /// job whose retries are spent degrades that property to a failure
    /// instead of aborting the batch. A counterexample is reported only
    /// after [`FpvTestbench::certify_cex`] replays it successfully.
    pub fn check_portfolio(&self, config: &CheckConfig) -> CheckReport {
        self.check_portfolio_with(config, &BmcEngine)
    }

    /// [`FpvTestbench::check_portfolio`] with an explicit engine — the
    /// seam the fault-injection tests use to exercise panic containment,
    /// hang interruption, and CEX certification with misbehaving engines.
    ///
    /// Runs the plan for `config`: at monolithic granularity one singleton
    /// job per exact property, in property order; at a decomposed one the
    /// [`FpvTestbench::cluster_plan`], one job per cone cluster, each
    /// sliced to its cone. The decomposed check bit-blasts the miter once,
    /// for the plan, and every job of an engine that answers in this
    /// process ([`CheckEngine::in_process`]) reuses that blast; for any
    /// other engine the plan drops it before the jobs start, and each
    /// worker blasts what it is sent. A monolithic plan is answered by
    /// one shared run when the engine offers [`CheckEngine::check_each`]:
    /// one unrolling and one solver for every exact property, each still
    /// answered on its own (a panic in that run falls back to the
    /// singleton jobs). Otherwise, and for decomposed
    /// plans, its jobs run on `config.jobs` workers, largest cone first (a
    /// monolithic plan's cones all read 0, so its jobs start in property
    /// order). Each answer becomes a report through the converter behind
    /// [`FpvTestbench::check_cluster`], [`FpvTestbench::check`] and
    /// [`FpvTestbench::prove`], and
    /// [`FpvTestbench::merge_cluster_reports`] merges them, so the
    /// table-level outcome derives from the exact-class properties alone.
    pub fn check_portfolio_with(
        &self,
        config: &CheckConfig,
        engine: &dyn CheckEngine,
    ) -> CheckReport {
        let start = Instant::now();
        let mut plan = match self.cluster_plan(config) {
            Some(plan) => {
                config
                    .telemetry
                    .gauge("clusters", plan.clusters.len() as u64);
                config
                    .telemetry
                    .gauge("cluster_properties", plan.num_properties() as u64);
                plan
            }
            None => self.monolithic_plan(),
        };
        plan.release_blast_for(engine);
        let jobs: Vec<EngineJob<'_, '_>> = plan
            .clusters
            .iter()
            .map(|cluster| self.plan_job(cluster, plan.blast.as_ref(), config, engine))
            .collect();
        // Each job's check span stays open while its answer is computed
        // and closes once it has been converted.
        let spans: Vec<Telemetry> = jobs.iter().map(|j| j.config.telemetry.clone()).collect();
        let shared = if config.granularity.is_decomposed() {
            None
        } else {
            self.shared_run(&plan, config, engine)
        };
        let (runs, counters) = match shared {
            Some(shared) => {
                let runs = shared
                    .answers
                    .into_iter()
                    .map(|(outcome, certificate)| EngineRun {
                        outcome,
                        counters: SolverCounters::default(),
                        certificate,
                    })
                    .collect();
                (runs, Some(shared.counters))
            }
            None => {
                // Results come back positionally, so the start order
                // affects load balance only and the merge stays
                // jobs-invariant.
                let mut priority: Vec<usize> = (0..plan.clusters.len()).collect();
                priority.sort_by_key(|&i| {
                    (
                        std::cmp::Reverse(plan.clusters[i].cone_bits()),
                        plan.clusters[i].members[0],
                    )
                });
                let portfolio = Portfolio::new(config.jobs);
                (
                    portfolio.run_engine_jobs_prioritized(jobs, Some(&priority)),
                    None,
                )
            }
        };
        let reports: Vec<CheckReport> = plan
            .clusters
            .iter()
            .zip(runs)
            .zip(&spans)
            .map(|((cluster, run), span)| self.job_report(&cluster.members, run, span))
            .collect();
        for span in &spans {
            span.close();
        }
        let merged = self.merge_cluster_reports(&plan, reports, config);
        CheckReport {
            elapsed: start.elapsed(),
            stats: counters.unwrap_or(merged.stats),
            ..merged
        }
    }

    /// Answers a monolithic plan (singleton jobs over the exact
    /// properties) with one [`CheckEngine::check_each`] run of `engine`:
    /// every exact property under the exact constraints, sliced to their
    /// union cone when `config.slice` asks, in one `attempt` span. Each
    /// property gets the answer its own job would give, from one
    /// unrolling and one solver instead of one per property.
    ///
    /// `None` when the engine answers one spec per call, or when the run
    /// panicked (or broke the one-answer-per-property contract): the panic
    /// is contained and recorded on the attempt span (`panicked`), and the
    /// caller runs the singleton jobs under their own retry policy
    /// instead, so a fault still degrades only its own property.
    fn shared_run(
        &self,
        plan: &ClusterPlan,
        config: &CheckConfig,
        engine: &dyn CheckEngine,
    ) -> Option<EachRun> {
        let mut spec = CheckSpec::new(&self.miter).constraints(&self.constraints);
        for cluster in &plan.clusters {
            for &i in &cluster.members {
                let (name, p) = &self.properties[i];
                spec = spec.property(name.clone(), *p);
            }
        }
        let attempt = config.telemetry.child(SpanKind::Attempt, engine.name());
        attempt.gauge("attempt", 1);
        let mut run_config = config.clone();
        run_config.telemetry = attempt.clone();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let run = engine.check_each(&spec, &run_config, &CancelToken::new())?;
            assert_eq!(
                run.answers.len(),
                spec.properties.len(),
                "one answer per property"
            );
            Some(run)
        }));
        if run.is_err() {
            attempt.gauge("panicked", 1);
        }
        attempt.close();
        run.ok().flatten()
    }

    /// The monolithic plan: one singleton job per exact property, in
    /// property order. It computes no cone and blasts nothing.
    fn monolithic_plan(&self) -> ClusterPlan {
        let clusters = self
            .exact_properties()
            .into_iter()
            .map(|(i, label, _)| PropertyCluster {
                members: vec![i],
                class: PropertyClass::Exact,
                cone_state_bits: 0,
                cone_port_bits: 0,
                label,
            })
            .collect();
        ClusterPlan {
            clusters,
            total_state_bits: 0,
            total_port_bits: 0,
            blast: None,
        }
    }

    /// Computes the decomposed check plan for this testbench under
    /// `config`, or `None` at [`autocc_bmc::Granularity::Monolithic`].
    ///
    /// The plan bit-blasts the miter once, under a `bit-blast` phase span
    /// of `config.telemetry`, and keeps the blast for the check's keys and
    /// jobs ([`ClusterPlan::blast`]).
    ///
    /// Per property, the plan computes the sequential COI of the property
    /// root *plus its class constraint set* — exactly the slice the
    /// cluster's engine job encodes. The constraint cone is walked once per
    /// class and extended per property. Attribution properties are then
    /// greedily clustered when their cones overlap by at least
    /// [`CLUSTER_OVERLAP`] (Jaccard); exact properties stay singleton
    /// clusters so the decomposed table reproduces the monolithic plan's
    /// per-property witness choice. Exact and
    /// attribution properties never share a cluster: they run under
    /// different constraint sets. The plan is deterministic in property
    /// registration order.
    pub fn cluster_plan(&self, config: &CheckConfig) -> Option<ClusterPlan> {
        if !config.granularity.is_decomposed() {
            return None;
        }
        let span = config.telemetry.child(SpanKind::Phase, "bit-blast");
        let seq = Arc::new(SeqAig::from_module(&self.miter));
        span.close();

        let mut clusters: Vec<PropertyCluster> = Vec::new();
        for class in [PropertyClass::Exact, PropertyClass::Attribution] {
            let members: Vec<usize> = (0..self.properties.len())
                .filter(|&i| property_class(&self.properties[i].0) == class)
                .collect();
            if members.is_empty() {
                continue;
            }
            let class_roots: Vec<AigLit> = self
                .constraints_of(class)
                .iter()
                .flat_map(|c| seq.node_lits[c.index()].iter().copied())
                .collect();
            let mut class_walk = ConeWalk::new(&seq);
            class_walk.extend(&class_roots);
            let cones: Vec<_> = members
                .iter()
                .map(|&i| {
                    let (_, p) = self.properties[i];
                    let mut walk = class_walk.clone();
                    walk.extend(&seq.node_lits[p.index()]);
                    walk.into_coi()
                })
                .collect();
            // Exact-class properties are never batched: each gets its own
            // singleton cluster, so the decomposed plan runs the same
            // one-property-per-solve jobs as the monolithic plan and the
            // merge reproduces its `(depth, property index)` witness choice
            // exactly. A batched solve reports whichever member the SAT
            // model happens to violate — a model-dependent witness that can
            // diverge from the monolithic table. Attribution properties
            // carry no such parity obligation and cluster by cone overlap.
            let groups: Vec<ConeCluster> = match class {
                PropertyClass::Exact => cones
                    .iter()
                    .enumerate()
                    .map(|(local, cone)| ConeCluster {
                        members: vec![local],
                        cone: cone.clone(),
                    })
                    .collect(),
                PropertyClass::Attribution => cluster_cones(&cones, CLUSTER_OVERLAP),
            };
            for cluster in groups {
                let global: Vec<usize> = cluster.members.iter().map(|&l| members[l]).collect();
                let first = &self.properties[global[0]].0;
                let label = if global.len() == 1 {
                    first.clone()
                } else {
                    format!("{first}+{}", global.len() - 1)
                };
                clusters.push(PropertyCluster {
                    members: global,
                    class,
                    cone_state_bits: cluster.cone.num_kept_state(),
                    cone_port_bits: cluster.cone.num_kept_ports(),
                    label,
                });
            }
        }
        Some(ClusterPlan {
            clusters,
            total_state_bits: seq.state_cur.len(),
            total_port_bits: seq.num_port_bits(),
            blast: Some(seq),
        })
    }

    /// Per-cluster content keys, over the plan's blast: the key of
    /// cluster `i` covers its sliced sub-miter, member properties, and
    /// class constraints, so a DUT edit re-solves only the clusters whose
    /// cones it actually touched.
    ///
    /// # Panics
    ///
    /// Panics if the plan holds no blast: keys are computed on a fresh
    /// decomposed plan, before [`ClusterPlan::release_blast_for`].
    pub fn cluster_keys(
        &self,
        plan: &ClusterPlan,
        config: &CheckConfig,
        mode: CheckMode,
    ) -> Vec<ContentKey> {
        let seq = plan
            .blast
            .as_ref()
            .expect("a decomposed plan carries its blast");
        plan.clusters
            .iter()
            .map(|cluster| {
                let props: Vec<(String, NodeId)> = cluster
                    .members
                    .iter()
                    .map(|&i| self.properties[i].clone())
                    .collect();
                let constraints = self.constraints_of(cluster.class);
                content_key_with_seq(seq, &props, constraints, config, mode)
            })
            .collect()
    }

    /// Runs one cluster of the plan as a single engine job — the miter
    /// sliced to the cluster's cone, member properties checked together
    /// under the class constraint set — and converts the result into a
    /// cluster-level report with per-member verdicts. Counterexamples are
    /// certified before being reported. `blast` is the plan's
    /// [`ClusterPlan::blast`], which the job checks on instead of
    /// blasting the miter again.
    pub fn check_cluster(
        &self,
        cluster: &PropertyCluster,
        blast: Option<&Arc<SeqAig>>,
        config: &CheckConfig,
        engine: &dyn CheckEngine,
    ) -> CheckReport {
        let start = Instant::now();
        let job = self.plan_job(cluster, blast, config, engine);
        let span = job.config.telemetry.clone();
        let runs = Portfolio::new(1).run_engine_jobs(vec![job]);
        let run = runs.into_iter().next().expect("one job yields one run");
        let report = self.job_report(&cluster.members, run, &span);
        span.close();
        CheckReport {
            elapsed: start.elapsed(),
            ..report
        }
    }

    /// One job of a plan: `engine` over the cluster's members under their
    /// class constraint set, on the plan's `blast` when there is one, in a
    /// check span named by the cluster label.
    /// Decomposed clusters always slice, whatever `config.slice` says:
    /// the cluster exists to confine the encoding to its cone, slicing is
    /// verdict-invariant, and without it every cluster would re-encode the
    /// full miter. A monolithic plan's jobs slice only when `config.slice`
    /// asks, and record no cone sizes (they computed none).
    fn plan_job<'t>(
        &'t self,
        cluster: &PropertyCluster,
        blast: Option<&Arc<SeqAig>>,
        config: &CheckConfig,
        engine: &'t dyn CheckEngine,
    ) -> EngineJob<'t, 't> {
        let span = config.telemetry.child(SpanKind::Check, &cluster.label);
        let decomposed = config.granularity.is_decomposed();
        if decomposed {
            span.gauge("cone_state_bits", cluster.cone_state_bits as u64);
            span.gauge("cone_port_bits", cluster.cone_port_bits as u64);
            span.gauge("cluster_properties", cluster.members.len() as u64);
        }
        let mut job_config = config.clone().slice(config.slice || decomposed);
        job_config.telemetry = span;
        let mut spec = CheckSpec::new(&self.miter).constraints(self.constraints_of(cluster.class));
        if let Some(seq) = blast {
            spec = spec.blast(Arc::clone(seq));
        }
        for &i in &cluster.members {
            let (name, p) = &self.properties[i];
            spec = spec.property(name.clone(), *p);
        }
        EngineJob {
            engine,
            spec,
            config: job_config,
            property: Some(cluster.label.clone()),
            cancel: CancelToken::new(),
        }
    }

    /// The one converter from an engine run to a report: `run` was made
    /// over the properties `members` (indices into [`Self::properties`]),
    /// and each member gets one verdict. A counterexample is
    /// replay-certified (under a `certify` phase span) before it counts; a
    /// rejected one turns the outcome into `Failed`. A certified witness
    /// pins its own property at its depth and, replayed once more, every
    /// sibling it also violates (several bits of one diverging register,
    /// say); the other siblings held one frame shy, since all earlier
    /// frames were UNSAT for the whole batch. Every other outcome applies
    /// to each member alike. The certificate the engine stamped is gated
    /// on the outcome, so a rejected CEX drops it. `elapsed` is left zero
    /// for the caller to fill.
    fn job_report(&self, members: &[usize], run: EngineRun, telemetry: &Telemetry) -> CheckReport {
        let outcome = match run.outcome {
            EngineOutcome::Cex(cex) => {
                let certify = telemetry.child(SpanKind::Phase, "certify");
                let outcome = match self.certify_cex(&cex) {
                    Ok(cc) => AutoCcOutcome::Cex(Box::new(cc)),
                    Err(f) => AutoCcOutcome::Failed { failures: vec![f] },
                };
                certify.close();
                outcome
            }
            EngineOutcome::BoundReached { depth } => AutoCcOutcome::Clean { bound: depth },
            EngineOutcome::Proved { induction_depth } => AutoCcOutcome::Proved { induction_depth },
            EngineOutcome::Exhausted { depth } => AutoCcOutcome::Exhausted { bound: depth },
            EngineOutcome::Unknown { depth, cause } => AutoCcOutcome::Unknown {
                bound: depth,
                cause,
            },
            EngineOutcome::Failed(f) => AutoCcOutcome::Failed { failures: vec![f] },
        };
        let verdict = match &outcome {
            AutoCcOutcome::Cex(cc) => PropertyVerdict::Clean {
                bound: cc.depth.saturating_sub(1),
            },
            AutoCcOutcome::Clean { bound } => PropertyVerdict::Clean { bound: *bound },
            AutoCcOutcome::Proved { induction_depth } => PropertyVerdict::Proved {
                induction_depth: *induction_depth,
            },
            AutoCcOutcome::Exhausted { bound } => PropertyVerdict::Exhausted { bound: *bound },
            AutoCcOutcome::Unknown { bound, .. } => PropertyVerdict::Unknown { bound: *bound },
            AutoCcOutcome::Failed { .. } => PropertyVerdict::Failed,
        };
        let mut verdicts: Vec<(String, PropertyVerdict)> = members
            .iter()
            .map(|&i| (self.properties[i].0.clone(), verdict))
            .collect();
        if let AutoCcOutcome::Cex(cc) = &outcome {
            let replay = (members.len() > 1).then(|| cc.trace.replay(&self.miter));
            // Certification rejected empty traces, so `depth >= 1`.
            let last = cc.depth - 1;
            for (&i, v) in members.iter().zip(&mut verdicts) {
                let (name, prop) = &self.properties[i];
                if *name == cc.property
                    || replay
                        .as_ref()
                        .is_some_and(|r| !r.node(last, *prop).as_bool())
                {
                    v.1 = PropertyVerdict::Cex { depth: cc.depth };
                }
            }
        }
        CheckReport {
            certificate: gate_certificate(&outcome, run.certificate),
            outcome,
            elapsed: Duration::ZERO,
            stats: run.counters,
            verdicts,
        }
    }

    /// Merges per-cluster reports (in plan order) into the task-level
    /// report. The merge is class-aware: exact-class outcomes alone
    /// decide the row — best certified CEX by `(depth, global property
    /// index)`, then failures, then minimum unknown/exhausted/clean
    /// bounds — while attribution-class answers only populate the verdict
    /// map. Attribution *failures* (contained panics, replay mismatches)
    /// still degrade the row: a broken check must never read as clean.
    pub fn merge_cluster_reports(
        &self,
        plan: &ClusterPlan,
        reports: Vec<CheckReport>,
        config: &CheckConfig,
    ) -> CheckReport {
        assert_eq!(plan.clusters.len(), reports.len());
        let mut stats = SolverCounters::default();
        let mut elapsed = Duration::ZERO;
        let mut indexed_verdicts: Vec<(usize, (String, PropertyVerdict))> = Vec::new();
        let mut best_cex: Option<(usize, usize, CovertChannelCex, CertificateStatus)> = None;
        let mut failures: Vec<JobFailure> = Vec::new();
        let mut unknown: Option<(usize, UnknownCause)> = None;
        let mut exhausted_bound: Option<usize> = None;
        let mut clean_bound: Option<usize> = None;
        // The row certificate certifies the row outcome, and exact-class
        // clusters alone decide the row — so a Clean row folds the exact
        // clusters' certificates (in plan order). Attribution clusters are
        // still individually checked; a failed attribution certification
        // degrades the row through the failures path like any failure.
        let mut unsat_cert: Option<CertificateStatus> = None;
        for (cluster, report) in plan.clusters.iter().zip(reports) {
            stats += &report.stats;
            elapsed += report.elapsed;
            let report_cert = report.certificate;
            for (&i, v) in cluster.members.iter().zip(report.verdicts) {
                indexed_verdicts.push((i, v));
            }
            let exact = cluster.class == PropertyClass::Exact;
            match report.outcome {
                AutoCcOutcome::Cex(cc) if exact => {
                    let index = self
                        .properties
                        .iter()
                        .position(|(n, _)| *n == cc.property)
                        .unwrap_or(usize::MAX);
                    if best_cex
                        .as_ref()
                        .is_none_or(|(d, j, _, _)| (cc.depth, index) < (*d, *j))
                    {
                        best_cex = Some((cc.depth, index, *cc, report_cert));
                    }
                }
                // An attribution CEX is the attribution itself — it names
                // the leaking state element in the verdict map — but it
                // is not an exact-semantics channel witness, so it never
                // decides the row.
                AutoCcOutcome::Cex(_) => {}
                AutoCcOutcome::Clean { bound }
                | AutoCcOutcome::Proved {
                    induction_depth: bound,
                } if exact => {
                    clean_bound = Some(clean_bound.map_or(bound, |b| b.min(bound)));
                    unsat_cert = Some(match unsat_cert {
                        None => report_cert,
                        Some(prev) => prev.combine(&report_cert),
                    });
                }
                AutoCcOutcome::Clean { .. } | AutoCcOutcome::Proved { .. } => {}
                AutoCcOutcome::Exhausted { bound } if exact => {
                    exhausted_bound = Some(exhausted_bound.map_or(bound, |b| b.min(bound)));
                }
                AutoCcOutcome::Exhausted { .. } => {}
                AutoCcOutcome::Unknown { bound, cause } if exact => {
                    unknown = Some(match unknown {
                        None => (bound, cause),
                        Some((b, c)) => (b.min(bound), c),
                    });
                }
                AutoCcOutcome::Unknown { .. } => {}
                // Failures degrade the row whatever the class.
                AutoCcOutcome::Failed { failures: f } => failures.extend(f),
            }
        }
        indexed_verdicts.sort_by_key(|(i, _)| *i);
        let verdicts = indexed_verdicts.into_iter().map(|(_, v)| v).collect();
        let mut cex_cert = CertificateStatus::Uncertified;
        let outcome = if let Some((_, _, cc, cert)) = best_cex {
            cex_cert = cert;
            AutoCcOutcome::Cex(Box::new(cc))
        } else if !failures.is_empty() {
            AutoCcOutcome::Failed { failures }
        } else if let Some((bound, cause)) = unknown {
            AutoCcOutcome::Unknown { bound, cause }
        } else if let Some(bound) = exhausted_bound {
            AutoCcOutcome::Exhausted { bound }
        } else {
            AutoCcOutcome::Clean {
                bound: clean_bound.unwrap_or(config.max_depth),
            }
        };
        let candidate = match &outcome {
            AutoCcOutcome::Cex(_) => cex_cert,
            _ => unsat_cert.unwrap_or(CertificateStatus::Uncertified),
        };
        CheckReport {
            certificate: gate_certificate(&outcome, candidate),
            outcome,
            elapsed,
            stats,
            verdicts,
        }
    }

    /// Attempts a full proof through the engine layer: k-induction alone
    /// at `jobs 1`; with `jobs > 1`, [`KInductionEngine`] raced against a
    /// [`Falsifier`]-wrapped [`BmcEngine`] over the whole assertion set
    /// (first conclusive result wins, the loser is cancelled).
    pub fn prove(&self, config: &CheckConfig) -> CheckReport {
        let falsifier = Falsifier(BmcEngine);
        if config.jobs > 1 {
            self.prove_portfolio_with(config, &[&KInductionEngine, &falsifier])
        } else {
            self.prove_portfolio_with(config, &[&KInductionEngine])
        }
    }

    /// [`FpvTestbench::prove`] with caller-chosen engines: the seam the
    /// process-isolation layer uses to substitute subprocess engines. A
    /// single engine runs serially; several race (first conclusive result
    /// wins, losers are cancelled).
    pub fn prove_portfolio_with(
        &self,
        config: &CheckConfig,
        engines: &[&dyn CheckEngine],
    ) -> CheckReport {
        self.check_exact("prove", config, engines)
    }

    /// One job over every exact property, in a check span `name`: a
    /// single engine runs directly on the caller's thread, several race.
    /// Only the exact constraint set is sound for the exact properties,
    /// and mixing the observer assumptions into one solver would restrict
    /// their traces, so attribution properties are left to the clustered
    /// plan.
    fn check_exact(
        &self,
        name: &str,
        config: &CheckConfig,
        engines: &[&dyn CheckEngine],
    ) -> CheckReport {
        let start = Instant::now();
        let span = config.telemetry.child(SpanKind::Check, name);
        let mut spec = CheckSpec::new(&self.miter).constraints(&self.constraints);
        let mut members = Vec::new();
        for (i, property, node) in self.exact_properties() {
            members.push(i);
            spec = spec.property(property, node);
        }
        let mut run_config = config.clone();
        run_config.telemetry = span.clone();
        let run = match engines {
            [only] => only.check(&spec, &run_config, &CancelToken::new()),
            _ => {
                let racers = Portfolio::new(config.jobs.max(engines.len()));
                racers.race(engines, &spec, &run_config).1
            }
        };
        let report = self.job_report(&members, run, &span);
        span.close();
        CheckReport {
            elapsed: start.elapsed(),
            ..report
        }
    }

    /// Certifies a checker counterexample by replaying it on the miter
    /// interpreter before anything is reported: every generated assumption
    /// must hold on every cycle, the asserted property node must be false
    /// at the final cycle, and the asserted output pair must actually
    /// diverge there. A mismatch is a checker bug (encoder/simulator
    /// divergence) and comes back as a [`FailureReason::ReplayMismatch`]
    /// failure — never as a discovered channel.
    pub fn certify_cex(&self, cex: &autocc_bmc::Cex) -> Result<CovertChannelCex, JobFailure> {
        let fail = |detail: String| JobFailure {
            engine: "certify".to_string(),
            property: Some(cex.property.clone()),
            depth: cex.depth,
            reason: FailureReason::ReplayMismatch,
            detail,
            attempts: 1,
        };
        if cex.trace.is_empty() || cex.trace.len() != cex.depth {
            return Err(fail(format!(
                "trace length {} disagrees with reported depth {}",
                cex.trace.len(),
                cex.depth
            )));
        }
        let replay = cex.trace.replay(&self.miter);
        let last = cex.depth - 1;
        // Each property class runs under its own assumption set; replay
        // certification must check the same set the solver used.
        let constraints = self.class_constraints(&cex.property);
        for t in 0..cex.depth {
            for (ci, &c) in constraints.iter().enumerate() {
                if !replay.node(t, c).as_bool() {
                    return Err(fail(format!(
                        "assumption {ci} violated at cycle {t} on replay"
                    )));
                }
            }
        }
        let Some((_, prop)) = self.properties.iter().find(|(n, _)| *n == cex.property) else {
            return Err(fail(format!(
                "reported property `{}` is not a generated assertion",
                cex.property
            )));
        };
        if replay.node(last, *prop).as_bool() {
            return Err(fail(format!(
                "asserted property holds at cycle {last} on replay"
            )));
        }
        // The violated assertion is `spy_mode |-> <out>_eq`, so the raw
        // output pair must diverge at the violation cycle.
        if let Some(out_name) = cex
            .property
            .strip_prefix("as__")
            .and_then(|s| s.strip_suffix("_eq"))
        {
            if let (Some(&oa), Some(&ob)) = (
                self.inst_a.outputs.get(out_name),
                self.inst_b.outputs.get(out_name),
            ) {
                let va = replay.node(last, oa);
                let vb = replay.node(last, ob);
                if va == vb {
                    return Err(fail(format!(
                        "output pair `{out_name}` does not diverge at cycle {last} \
                         (both universes read {va})"
                    )));
                }
            }
        }
        // The attribution assertion is `obs_mode |-> <state_bit>_eq`, so
        // the named state bit must itself diverge at the violation cycle.
        // Grammar (see spec.rs section 8b): `st__<reg>_eq`,
        // `st__<reg>[<b>]_eq`, `st__<mem>[<w>]_eq`, `st__<mem>[<w>][<b>]_eq`
        // — the base name decides whether the first index is a register bit
        // or a memory word.
        if let Some(state_name) = cex
            .property
            .strip_prefix("st__")
            .and_then(|s| s.strip_suffix("_eq"))
        {
            let (base, indices) = parse_state_indices(state_name)
                .ok_or_else(|| fail(format!("malformed state index in `{}`", cex.property)))?;
            let (va, vb, bit) = if let (Some(&ma), Some(&mb)) =
                (self.inst_a.mems.get(base), self.inst_b.mems.get(base))
            {
                let (Some(&w), bit) = (indices.first(), indices.get(1).copied()) else {
                    return Err(fail(format!(
                        "attribution property `{}` names memory `{base}` without a word index",
                        cex.property
                    )));
                };
                (
                    replay.mem_word(last, ma, w),
                    replay.mem_word(last, mb, w),
                    bit,
                )
            } else if let (Some(&ra), Some(&rb)) =
                (self.inst_a.regs.get(base), self.inst_b.regs.get(base))
            {
                (
                    replay.reg(last, ra),
                    replay.reg(last, rb),
                    indices.first().copied(),
                )
            } else {
                return Err(fail(format!(
                    "attribution property names unknown state element `{base}`"
                )));
            };
            let diverges = match bit {
                Some(i) => {
                    let i = u32::try_from(i)
                        .map_err(|_| fail(format!("bit index overflow in `{}`", cex.property)))?;
                    va.get_bit(i) != vb.get_bit(i)
                }
                None => va != vb,
            };
            if !diverges {
                return Err(fail(format!(
                    "state pair `{state_name}` does not diverge at cycle {last} \
                     (both universes hold {va})"
                )));
            }
        }
        Ok(self.analyze_cex(cex))
    }

    /// Root-cause analysis (the paper's `FindCause`): replay the trace and
    /// diff all DUT state between universes at the spy-start cycle.
    fn analyze_cex(&self, cex: &autocc_bmc::Cex) -> CovertChannelCex {
        let replay = cex.trace.replay(&self.miter);
        // Exact-class violations anchor on Listing-1 `spy_mode`;
        // attribution-class ones on the observer's `obs_mode`.
        let mode_reg = match property_class(&cex.property) {
            PropertyClass::Exact => "autocc.spy_mode",
            PropertyClass::Attribution => "autocc.obs_mode",
        };
        let spy_reg = self
            .miter
            .find_reg(mode_reg)
            .expect("monitor register exists");
        let spy_start_cycle = (0..replay.len())
            .find(|&t| replay.reg(t, spy_reg).as_bool())
            .unwrap_or(replay.len().saturating_sub(1));

        // The context-switch window: the transfer period (at least
        // THRESHOLD counting cycles plus the flush_done cycle) up to and
        // including the spy-start cycle. State that differs anywhere inside
        // this window survived — or was written during — the switch, and is
        // the candidate storage of the channel.
        let window_start = spy_start_cycle.saturating_sub(self.threshold as usize + 1);
        let mut diverging = Vec::new();
        let window_diff = |values: &dyn Fn(usize) -> (Bv, Bv)| -> Option<(usize, usize, Bv, Bv)> {
            let mut first = None;
            let mut last = None;
            for t in window_start..=spy_start_cycle {
                let (va, vb) = values(t);
                if va != vb {
                    first.get_or_insert(t);
                    last = Some((t, va, vb));
                }
            }
            last.map(|(t, va, vb)| (first.expect("set with last"), t, va, vb))
        };

        // Registers: pair instance-a and instance-b by DUT-relative name,
        // in DUT declaration order for deterministic reports.
        let dut_reg_names: Vec<&String> = {
            let mut names: Vec<(&String, &RegId)> = self.inst_a.regs.iter().collect();
            names.sort_by_key(|(_, rid)| rid.index());
            names.into_iter().map(|(n, _)| n).collect()
        };
        for name in dut_reg_names {
            let ra = self.inst_a.regs[name];
            let rb = self.inst_b.regs[name];
            let probe = |t: usize| (replay.reg(t, ra), replay.reg(t, rb));
            if let Some((first, last, va, vb)) = window_diff(&probe) {
                diverging.push(StateDivergence {
                    name: name.clone(),
                    first_diff_cycle: first,
                    last_diff_cycle: last,
                    value_a: va,
                    value_b: vb,
                });
            }
        }
        // Memories: word-wise diff.
        let mut mem_names: Vec<(&String, &autocc_hdl::MemId)> = self.inst_a.mems.iter().collect();
        mem_names.sort_by_key(|(_, mid)| mid.index());
        for (name, _) in mem_names {
            let ma = self.inst_a.mems[name];
            let mb = self.inst_b.mems[name];
            let depth = self
                .miter
                .mems()
                .get(ma.index())
                .map(|m| m.depth)
                .unwrap_or(0);
            for w in 0..depth {
                let probe = |t: usize| (replay.mem_word(t, ma, w), replay.mem_word(t, mb, w));
                if let Some((first, last, va, vb)) = window_diff(&probe) {
                    diverging.push(StateDivergence {
                        name: format!("{name}[{w}]"),
                        first_diff_cycle: first,
                        last_diff_cycle: last,
                        value_a: va,
                        value_b: vb,
                    });
                }
            }
        }

        CovertChannelCex {
            property: cex.property.clone(),
            depth: cex.depth,
            trace: cex.trace.clone(),
            spy_start_cycle,
            diverging_state: diverging,
        }
    }

    /// Replays a CEX trace over the miter (for waveforms and reports).
    pub fn replay(&self, cex: &CovertChannelCex) -> ReplayedTrace {
        cex.trace.replay(&self.miter)
    }

    /// Greedily simplifies a counterexample for human analysis: every input
    /// value that can be zeroed — and every universe-b input that can be
    /// made equal to its universe-a twin — without losing the violation is
    /// rewritten, so the surviving differences are exactly the ones that
    /// *operate* the channel. Root-cause analysis is recomputed on the
    /// simplified trace.
    ///
    /// This needs no solver: candidates are validated by replaying through
    /// the interpreter (the paper's "little engineering effort" goal for
    /// CEX analysis, automated).
    pub fn minimize_cex(&self, cex: &CovertChannelCex) -> CovertChannelCex {
        let num_ports = self.miter.inputs().len();
        let cycles = cex.trace.len();
        let mut inputs: Vec<Vec<Bv>> = (0..cycles)
            .map(|t| (0..num_ports).map(|p| cex.trace.input(t, p)).collect())
            .collect();

        let constraints = self.class_constraints(&cex.property);
        let still_fails = |inputs: &Vec<Vec<Bv>>| -> bool {
            let trace = Trace::new(inputs.clone());
            let replay = trace.replay(&self.miter);
            let last = cycles - 1;
            // The class's constraints must hold and the original property
            // must still be violated at the final cycle.
            let constraints_ok =
                (0..cycles).all(|t| constraints.iter().all(|&c| replay.node(t, c).as_bool()));
            let violated = self
                .properties
                .iter()
                .find(|(name, _)| *name == cex.property)
                .map(|(_, p)| !replay.node(last, *p).as_bool())
                .unwrap_or(false);
            constraints_ok && violated
        };
        debug_assert!(still_fails(&inputs));

        // Pair universe-b ports with their universe-a twins.
        let twin_of: Vec<Option<(usize, usize)>> = {
            // map dut_port -> miter port index for universe a
            let mut a_of_dut = vec![usize::MAX; self.miter.inputs().len().max(1)];
            for (idx, role) in self.port_roles.iter().enumerate() {
                if let PortRole::UniverseA { dut_port } = role {
                    if *dut_port >= a_of_dut.len() {
                        a_of_dut.resize(dut_port + 1, usize::MAX);
                    }
                    a_of_dut[*dut_port] = idx;
                }
            }
            self.port_roles
                .iter()
                .enumerate()
                .map(|(idx, role)| match role {
                    PortRole::UniverseB { dut_port } => Some((idx, a_of_dut[*dut_port])),
                    _ => None,
                })
                .collect()
        };

        for t in 0..cycles {
            for p in 0..num_ports {
                let width = self.miter.inputs()[p].width;
                // 1. Try making a universe-b input equal to universe-a.
                if let Some(Some((b_idx, a_idx))) = twin_of.get(p) {
                    let a_val = inputs[t][*a_idx];
                    if inputs[t][*b_idx] != a_val {
                        let saved = inputs[t][*b_idx];
                        inputs[t][*b_idx] = a_val;
                        if !still_fails(&inputs) {
                            inputs[t][*b_idx] = saved;
                        }
                    }
                }
                // 2. Try zeroing.
                let zero = Bv::zero(width);
                if inputs[t][p] != zero {
                    let saved = inputs[t][p];
                    inputs[t][p] = zero;
                    if !still_fails(&inputs) {
                        inputs[t][p] = saved;
                    }
                }
            }
        }

        let trace = Trace::new(inputs);
        let minimized = autocc_bmc::Cex {
            property: cex.property.clone(),
            depth: cex.depth,
            trace,
        };
        self.analyze_cex(&minimized)
    }

    /// Builds the Fig.-3-style convergence waveform from a CEX: per-cycle
    /// `arch_state_eq`, `input_eq`, `output_eq`, `flush_done`, `eq_cnt`,
    /// `spy_mode`, and the violated output pair.
    pub fn convergence_waveform(&self, cex: &CovertChannelCex) -> Waveform {
        let replay = self.replay(cex);
        let m = &self.monitor;
        let mut signals: Vec<(String, NodeId)> = vec![
            ("arch_state_eq".into(), m.arch_state_eq),
            ("input_eq".into(), m.input_signal_eq),
            ("output_eq".into(), m.output_signal_eq),
            ("transfer_cond".into(), m.transfer_cond),
            ("flush_done".into(), m.flush_done),
            ("eq_cnt".into(), m.eq_cnt),
            ("spy_mode".into(), m.spy_mode),
        ];
        // Add the diverging output pair (property "as__<name>_eq").
        if let Some(out_name) = cex
            .property
            .strip_prefix("as__")
            .and_then(|s| s.strip_suffix("_eq"))
        {
            if let (Some(&oa), Some(&ob)) = (
                self.inst_a.outputs.get(out_name),
                self.inst_b.outputs.get(out_name),
            ) {
                signals.push((format!("a.{out_name}"), oa));
                signals.push((format!("b.{out_name}"), ob));
            }
        }
        replay.waveform(&self.miter, &signals)
    }
}
