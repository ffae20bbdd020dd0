//! Process CPU time and peak resident memory from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture the kernel
/// exposes to user space.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name is parenthesised and may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state(3) ppid pgrp session tty_nr tpgid flags
    // minflt cminflt majflt cmajflt utime(14) stime(15).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// This process's CPU time (user + system, all threads) in milliseconds.
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_cpu_ticks(&stat)? as f64 * 1e3 / TICKS_PER_SECOND)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let stat = "4242 (simcov (e2e) x) R 1 4242 4242 0 -1 4194304 1580 0 0 0 \
                    731 269 0 0 20 0 3 0 12345 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_cpu_ticks("4242 (x) R 1"), None, "truncated");
        assert_eq!(parse_cpu_ticks("no paren"), None);
    }

    #[test]
    fn status_reads_vm_hwm() {
        let status =
            "Name:\tsimcov-e2e\nVmPeak:\t  500000 kB\nVmHWM:\t  371712 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(371_712));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1024 kB\n"), None);
    }

    #[test]
    fn live_process_reports_cpu_and_memory() {
        assert!(cpu_ms().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
