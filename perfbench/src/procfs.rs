//! Process resource readings from `/proc`. Each returns `None` where
//! `/proc` is missing or unreadable, so the caller reports the metric as
//! absent instead of as zero.

/// User+system CPU time of this process plus its reaped children
/// (`utime + stime + cutime + cstime` of `/proc/self/stat`), in clock
/// ticks.
pub fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields restart after
    // its closing parenthesis, at field 3 (`state`).
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime, stime, cutime, cstime are fields 14-17.
    fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
