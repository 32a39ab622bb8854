//! Process figures from `/proc`: CPU time, peak resident memory and
//! OS thread count of this process.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture it exposes to user
/// space, whatever the kernel's internal `HZ`.
const USER_HZ: u64 = 100;

/// One reading of this process's `/proc` figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User + system CPU time, microseconds.
    pub cpu_us: u64,
    /// Peak resident set size (`VmHWM`), kibibytes.
    pub rss_peak_kib: u64,
    /// Current OS thread count.
    pub threads: u64,
}

/// User + system CPU microseconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: field 3 (state) is index 0, so utime (field 14)
    // is index 11 and stime (field 15) index 12.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / USER_HZ)
}

/// The numeric value of `key` in the text of `/proc/<pid>/status`
/// (`VmHWM:   1234 kB` → 1234).
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Read this process's figures.
pub fn sample_self() -> ProcSample {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    ProcSample {
        cpu_us: parse_stat_cpu_us(&stat).expect("parse /proc/self/stat"),
        rss_peak_kib: parse_status_field(&status, "VmHWM").expect("VmHWM in /proc/self/status"),
        threads: parse_status_field(&status, "Threads").expect("Threads in /proc/self/status"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_name() {
        // A command name with spaces and a ')' must not shift fields.
        let stat = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 \
                    250 75 0 0 20 0 7 0 12345 100000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_us(stat), Some((250 + 75) * 10_000));
        assert_eq!(parse_stat_cpu_us("garbage"), None);
        assert_eq!(parse_stat_cpu_us("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_by_key() {
        let status = "Name:\tperfbench\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nThreads:\t1027\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20_480));
        assert_eq!(parse_status_field(status, "Threads"), Some(1_027));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn self_sample_is_plausible() {
        let s = sample_self();
        assert!(s.rss_peak_kib > 0);
        assert!(s.threads >= 1);
    }
}
