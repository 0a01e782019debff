//! `/proc` readers: CPU time of this process, its reaped children and a
//! live daemon, and the peak resident set of a running child.
//!
//! Std-only, so no `sysconf`: `USER_HZ` is taken as 100, which is what
//! every Linux ABI exposes through `/proc` regardless of the kernel's
//! internal tick rate.

use std::process::Child;

/// Milliseconds per `/proc/<pid>/stat` clock tick (`USER_HZ` = 100).
pub const MS_PER_TICK: f64 = 10.0;

/// CPU ticks parsed from one `/proc/<pid>/stat` line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// `utime + stime`: the process's own threads.
    pub own: u64,
    /// `cutime + cstime`: children it has waited for.
    pub reaped_children: u64,
}

/// Parses `utime stime cutime cstime` (fields 14-17) out of a stat
/// line. The command name (field 2) may contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTicks> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14
    let mut f = rest.split_ascii_whitespace().skip(11);
    let mut next = || f.next()?.parse::<u64>().ok();
    let (utime, stime, cutime, cstime) = (next()?, next()?, next()?, next()?);
    Some(CpuTicks {
        own: utime + stime,
        reaped_children: cutime + cstime,
    })
}

/// CPU ticks of process `pid` (`"self"` for this one), or zero when the
/// process is gone.
pub fn cpu_ticks(pid: &str) -> CpuTicks {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

/// Process name and peak resident set (`VmHWM`, KiB) from a
/// `/proc/<pid>/status` document. `None` for a zombie or kernel thread,
/// whose status has no `Vm*` lines.
pub fn parse_status(text: &str) -> Option<(&str, u64)> {
    let mut name = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("Name:") {
            name = Some(v.trim());
        } else if let Some(v) = line.strip_prefix("VmHWM:") {
            let kb = v.trim().strip_suffix("kB")?.trim().parse().ok()?;
            return Some((name?, kb));
        }
    }
    None
}

/// Polls `child`'s `VmHWM` until it exits and returns the highest value
/// seen, in KiB (0 when the child was gone before the first poll).
/// Samples taken before the child has `exec`ed still describe the
/// forked image of this benchmark, so only samples whose process name
/// is `expect_name` count. Reaps the child.
pub fn poll_peak_rss_kb(child: &mut Child, expect_name: &str) -> std::io::Result<(u64, bool)> {
    let path = format!("/proc/{}/status", child.id());
    let mut peak = 0;
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Some((name, kb)) = parse_status(&text) {
                if name == expect_name {
                    peak = peak.max(kb);
                }
            }
        }
        if let Some(status) = child.try_wait()? {
            return Ok((peak, status.success()));
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// `VmHWM` of a live process in KiB (the daemon, which outlives the
/// poll), or 0 when unreadable.
pub fn peak_rss_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|t| parse_status(&t).map(|(_, kb)| kb))
        .unwrap_or(0)
}

/// `(nproc, CPU model)` of the host, recorded beside every result.
pub fn host_info() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        // comm is "a) (b c": spaces and a closing paren inside field 2
        let line = "4242 (a) (b c) S 1 4242 4242 0 -1 4194304 175 3000 0 2 \
                    31 7 400 55 20 0 3 0 12345 1000000 200 18446744073709551615 0 0";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                own: 38,
                reaped_children: 455
            })
        );
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn own_stat_is_readable() {
        // this test binary has burned some CPU by now; the parse must at
        // least succeed on the real file
        let line = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat(&line).is_some());
    }

    #[test]
    fn status_yields_name_and_high_water_mark() {
        let text = "Name:\teasypap\nUmask:\t0022\nState:\tR (running)\nVmPeak:\t   20000 kB\n\
                    VmSize:\t   19000 kB\nVmHWM:\t    5124 kB\nVmRSS:\t    4000 kB\n";
        assert_eq!(parse_status(text), Some(("easypap", 5124)));
        // a zombie has no Vm lines at all
        assert_eq!(parse_status("Name:\teasypap\nState:\tZ (zombie)\n"), None);
        // a malformed unit is rejected rather than misread
        assert_eq!(parse_status("Name:\tx\nVmHWM:\t12 MB\n"), None);
    }
}
