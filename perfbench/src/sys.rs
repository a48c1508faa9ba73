//! Process and machine readings for the noise diagnostics: CPU time,
//! peak resident memory, host CPU pressure, core count and git revision.
//! Every reading degrades to a neutral value when its source is missing
//! (non-Linux hosts, a checkout without `.git`).

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const TICKS_PER_SECOND: f64 = 100.0;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User plus system CPU time of the whole process (all threads), seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being the 12th and
    // 13th of them.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| {
        fields
            .get(k)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size of the process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU pressure (`/proc/pressure/cpu`, "some" line): the cumulative
/// stall total in microseconds and the 60-second average percentage.
/// `None` where the kernel does not expose pressure stall information.
pub fn cpu_pressure() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("/proc/pressure/cpu").ok()?;
    let some = text.lines().find(|l| l.starts_with("some"))?;
    let field = |key: &str| {
        some.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse::<f64>().ok())
    };
    Some((field("total=")?, field("avg60=")?))
}

/// The checked-out commit, read from `.git` without spawning git;
/// `"unknown"` outside a git repository.
pub fn git_rev() -> String {
    read_git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// CPU and pressure readings bracketing one timed phase.
pub struct PhaseMeter {
    wall: std::time::Instant,
    cpu: f64,
    pressure: Option<f64>,
}

/// What a [`PhaseMeter`] saw over its phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseUsage {
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Process CPU time spent in the phase, seconds.
    pub cpu_s: f64,
    /// Share of the phase in which some host task waited for a CPU
    /// (0 when pressure information is unavailable).
    pub pressure: f64,
}

impl PhaseMeter {
    /// Starts metering now.
    pub fn start() -> Self {
        Self {
            wall: crate::now(),
            cpu: cpu_seconds(),
            pressure: cpu_pressure().map(|(total, _)| total),
        }
    }

    /// Ends the phase.
    pub fn stop(self) -> PhaseUsage {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let pressure = match (self.pressure, cpu_pressure()) {
            (Some(before), Some((after, _))) if wall_s > 0.0 => (after - before) / 1e6 / wall_s,
            _ => 0.0,
        };
        PhaseUsage {
            wall_s,
            cpu_s: cpu_seconds() - self.cpu,
            pressure,
        }
    }
}

impl PhaseUsage {
    /// Average busy cores over the phase.
    pub fn cpu_util(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cpu_s / self.wall_s
        } else {
            0.0
        }
    }
}
