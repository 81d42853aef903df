//! The `autocc` binary journals its check through the report binaries'
//! campaign runner: one record per cluster at `--granularity register`,
//! one record per check at monolithic granularity, and a `--resume` that
//! serves every record and prints the same report.

use autocc::bmc::{CheckConfig, Granularity};
use autocc::core::FtSpec;
use autocc::duts::demo::config_device;
use autocc::journal::recover;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn autocc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autocc"))
        .args(args)
        .output()
        .expect("run autocc")
}

fn journal_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("autocc-cli-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Stdout without the lines that carry a run time (`... in 1.2 ms`).
fn untimed(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|line| {
            !line
                .match_indices(" in ")
                .any(|(i, _)| line[i + 4..].starts_with(|c: char| c.is_ascii_digit()))
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

fn journal_lines(path: &Path) -> usize {
    std::fs::read_to_string(path).unwrap().lines().count()
}

#[test]
fn register_check_journals_one_record_per_cluster_and_resumes_from_them() {
    let ft = FtSpec::new(&config_device(false))
        .granularity(Granularity::Register)
        .generate();
    let plan = ft
        .cluster_plan(&CheckConfig::default().granularity(Granularity::Register))
        .expect("register granularity plans clusters");
    let clusters = plan.clusters.len();
    assert!(clusters > 1, "the plan has attribution clusters");

    let path = journal_path("register");
    let journal = path.to_str().unwrap();
    let args = [
        "config-device",
        "--granularity",
        "register",
        "--journal",
        journal,
    ];
    let first = autocc(&args);
    assert!(first.status.success(), "{first:?}");
    assert_eq!(
        journal_lines(&path),
        1 + clusters,
        "header plus one record per cluster"
    );
    let recovered = recover(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(recovered.header.root, "config-device");
    assert_eq!(recovered.entries.len(), clusters);
    for (entry, cluster) in recovered.entries.iter().zip(&plan.clusters) {
        assert_eq!(entry.id, format!("config-device:{}", cluster.label));
    }

    let resumed = autocc(&[&args[..], &["--resume"]].concat());
    assert!(resumed.status.success(), "{resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains(&format!("journal: {clusters} served from cache"))
            && stderr.contains(" 0 live"),
        "every record is served: {stderr}"
    );
    assert_eq!(untimed(&first), untimed(&resumed));
    assert_eq!(
        journal_lines(&path),
        1 + clusters,
        "serving appends nothing"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn monolithic_check_journals_one_record() {
    let path = journal_path("monolithic");
    let journal = path.to_str().unwrap();
    let first = autocc(&["config-device", "--journal", journal]);
    assert!(first.status.success(), "{first:?}");
    assert_eq!(journal_lines(&path), 2, "header plus one record");
    let resumed = autocc(&["config-device", "--journal", journal, "--resume"]);
    assert!(resumed.status.success(), "{resumed:?}");
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("journal: 1 served from cache"));
    assert_eq!(untimed(&first), untimed(&resumed));
    assert_eq!(journal_lines(&path), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pruned_knobs_are_unknown() {
    for args in [
        &["config-device", "--granularity", "output"][..],
        &["config-device", "--cluster-overlap", "0.5"],
        &["config-device", "--poll-interval", "64"],
    ] {
        let out = autocc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}
