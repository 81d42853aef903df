//! The four benchmark workloads: which campaign tasks each runs, under
//! which check configuration, and how their testbenches are set up.

use autocc_bench::{
    cva6_cex_config, default_options, fix_validation_tasks, table1_tasks_with, table2_tasks_with,
    CampaignTask,
};
use autocc_bmc::{CheckConfig, CheckEngine, CheckMode, Granularity};
use autocc_core::FpvTestbench;
use autocc_duts::aes::{build_aes, AesConfig};
use autocc_duts::cva6::{build_cva6, Cva6Config};
use autocc_duts::maple::{build_maple, MapleConfig};
use autocc_duts::vscale::{build_vscale, VscaleConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One named workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`; also the
    /// campaign name handed to `run_campaign`.
    pub name: &'static str,
    /// Check depth.
    pub depth: usize,
    /// Property granularity.
    pub granularity: Granularity,
    /// Run under `--certify`.
    pub certify: bool,
    /// Run every check in a supervised worker subprocess.
    pub isolate: bool,
    /// The measured campaign passes write the journal that the resume
    /// passes serve from. Otherwise one extra, unmeasured pass writes it,
    /// so the measured campaign stays journal-free.
    pub journal_measured: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cex-search",
        depth: 20,
        granularity: Granularity::Monolithic,
        certify: false,
        isolate: false,
        journal_measured: true,
    },
    Workload {
        name: "fix-certified",
        depth: 12,
        granularity: Granularity::Monolithic,
        certify: true,
        isolate: false,
        journal_measured: true,
    },
    Workload {
        name: "attribution-sweep",
        depth: 5,
        granularity: Granularity::Register,
        certify: false,
        isolate: false,
        journal_measured: false,
    },
    Workload {
        name: "isolated-journal",
        depth: 5,
        granularity: Granularity::Register,
        certify: false,
        isolate: true,
        journal_measured: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn keep(tasks: Vec<CampaignTask>, ids: &[&str]) -> Vec<CampaignTask> {
    tasks
        .into_iter()
        .filter(|t| ids.contains(&t.id.as_str()))
        .collect()
}

impl Workload {
    /// The campaign configuration: the report binaries' defaults (serial,
    /// 30-minute budget per check job) at `depth`, isolated where the
    /// workload says so.
    pub fn config(&self, depth: usize) -> CheckConfig {
        let config = self.in_process_config(depth);
        if self.isolate {
            config.isolate()
        } else {
            config
        }
    }

    /// The same campaign run in-process.
    pub fn in_process_config(&self, depth: usize) -> CheckConfig {
        default_options(depth)
            .granularity(self.granularity)
            .certify(self.certify)
    }

    /// The workload's tasks in table order, from the public task
    /// builders.
    pub fn tasks(&self) -> Vec<CampaignTask> {
        match self.name {
            // V5 is left out: alone it takes 11 minutes at depth 20.
            "cex-search" => {
                let mut tasks = keep(
                    table1_tasks_with(Granularity::Monolithic),
                    &["C1", "C2", "C3", "M2", "M3", "A1"],
                );
                tasks.extend(keep(table2_tasks_with(Granularity::Monolithic), &["V3/V4"]));
                tasks
            }
            "fix-certified" => {
                let mut tasks = fix_validation_tasks();
                tasks.extend(keep(table2_tasks_with(Granularity::Monolithic), &["proof"]));
                tasks
            }
            _ => {
                let mut tasks = table1_tasks_with(Granularity::Register);
                tasks.extend(keep(
                    table2_tasks_with(Granularity::Register),
                    &["V1", "V3/V4", "V2"],
                ));
                tasks
            }
        }
    }
}

/// The DUT builder a task's testbench builder calls, under the same
/// configuration, as a span name plus a closure that elaborates it. Only
/// the traced run uses this: the task builders elaborate and generate in
/// one call, so the DUT's share of set-up is timed on its own here.
/// Mirrors the DUT configurations in `autocc_bench::experiments`.
pub fn dut_builder(task_id: &str) -> (&'static str, Box<dyn FnOnce()>) {
    match task_id {
        "C1" | "C2" | "C3" => {
            let config = cva6_cex_config(task_id);
            (
                "build_cva6",
                Box::new(move || drop(black_box(build_cva6(&config)))),
            )
        }
        "C1-C3 fixed" => (
            "build_cva6",
            Box::new(|| drop(black_box(build_cva6(&Cva6Config::all_fixed())))),
        ),
        "M2" | "M3" | "M2+M3 fixed" => {
            let config = MapleConfig {
                fix_tlb_enable: task_id != "M2",
                fix_array_base: task_id != "M3",
            };
            (
                "build_maple",
                Box::new(move || drop(black_box(build_maple(&config)))),
            )
        }
        "A1" | "A1 refined" => (
            "build_aes",
            Box::new(|| drop(black_box(build_aes(&AesConfig::default())))),
        ),
        other => {
            let config = VscaleConfig {
                blackbox_csr: other == "proof",
                ..VscaleConfig::default()
            };
            (
                "build_vscale",
                Box::new(move || drop(black_box(build_vscale(&config)))),
            )
        }
    }
}

/// A task whose testbench has been built: the testbench plus the task's
/// metadata, ready to be handed back to the campaign.
pub struct Built {
    /// The generated testbench.
    pub ft: FpvTestbench,
    /// Table-row id.
    pub id: String,
    /// Table-row description.
    pub description: String,
    /// Bounded check or proof.
    pub mode: CheckMode,
    span: String,
    engine: Option<Arc<dyn CheckEngine + Send + Sync>>,
}

impl Built {
    /// Runs the task's builder (DUT elaboration plus `FtSpec::generate`).
    pub fn new(task: CampaignTask) -> Built {
        let CampaignTask {
            id,
            description,
            span,
            mode,
            build,
            engine,
        } = task;
        Built {
            ft: build(),
            id,
            description,
            span,
            mode,
            engine,
        }
    }

    /// The task again, its builder now returning the finished testbench.
    pub fn into_task(self) -> CampaignTask {
        let ft = self.ft;
        CampaignTask {
            id: self.id,
            description: self.description,
            span: self.span,
            mode: self.mode,
            build: Box::new(move || ft),
            engine: self.engine,
        }
    }
}

/// Builds every task's testbench up front and returns tasks that hand the
/// finished testbench to the campaign, plus the set-up wall time.
pub fn set_up(tasks: Vec<CampaignTask>) -> (Vec<CampaignTask>, Duration) {
    let start = Instant::now();
    let built: Vec<Built> = tasks.into_iter().map(Built::new).collect();
    let elapsed = start.elapsed();
    (built.into_iter().map(Built::into_task).collect(), elapsed)
}

/// A seed-determined permutation of `0..n` (splitmix64 + Fisher-Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Reorders `items` by `order` (a permutation of their indices).
pub fn reorder<T>(items: Vec<T>, order: &[usize]) -> Vec<T> {
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    order
        .iter()
        .map(|&i| slots[i].take().expect("order is a permutation"))
        .collect()
}
