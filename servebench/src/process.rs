//! Process-level counters: CPU time and context switches of every
//! thread the process ran (including joined ones), and peak RSS.

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and context switches of the whole process so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu_us: u64,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut r = Rusage::default();
        // SAFETY: `r` is a writable `struct rusage` with the kernel's
        // 64-bit layout (two timevals, then fourteen longs), and
        // RUSAGE_SELF is a valid `who`; the call writes only into it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
        if rc != 0 {
            return Usage::default();
        }
        let us = |tv: [i64; 2]| (tv[0] * 1_000_000 + tv[1]) as u64;
        Usage {
            cpu_us: us(r.utime) + us(r.stime),
            // ru_nvcsw and ru_nivcsw: voluntary and involuntary.
            ctx_switches: (r.longs[12] + r.longs[13]) as u64,
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us.saturating_sub(earlier.cpu_us),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// `(steal, total)` jiffies of the machine so far, from the `cpu` line
/// of `/proc/stat`: time the hypervisor ran something else while this
/// machine's CPUs wanted to run.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest matching mount point wins).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".to_owned();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(point), Some(fs)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if abs.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), fs.to_owned()));
        }
    }
    best.map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_owned())
}
