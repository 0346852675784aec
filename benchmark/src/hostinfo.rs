//! Process and host counters read from `/proc`, so a disturbed run can be
//! recognised from its own output.

use std::fs;

/// Kernel clock ticks per second in `/proc` (USER_HZ; 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// `(user, system)` CPU seconds of this process so far.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() / TICKS_PER_S, ticks() / TICKS_PER_S)
}

/// Peak resident set size of this process, bytes (`VmHWM`).
pub fn max_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// `(steal, total)` ticks of CPU `cpu` since boot. Steal is time the
/// hypervisor ran someone else while this CPU had work.
pub fn cpu_ticks(cpu: usize) -> (f64, f64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let prefix = format!("cpu{cpu} ");
    let Some(line) = stat.lines().find(|l| l.starts_with(&prefix)) else {
        return (0.0, 0.0);
    };
    // user nice system idle iowait irq softirq steal (guest times repeat
    // user/nice and are left out).
    let ticks: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_read() {
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(max_rss_bytes() > 0);
        let (steal, total) = cpu_ticks(0);
        assert!(total > 0.0 && steal <= total);
    }
}
