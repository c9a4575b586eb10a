//! Statistics helpers and the result line.

/// The `q`-quantile of sorted values, interpolated linearly between
/// ranks; 0 for no values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, over all its threads, in
/// seconds. This is the kernel's scheduler clock: with paravirtual steal
/// accounting it leaves out time the hypervisor ran someone else, so it
/// measures the program's own work even on a busy shared host.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in seconds; the same
/// clock as `process_cpu_s`.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Hypervisor-stolen and total CPU time since boot, in clock ticks
/// summed over all CPUs (the first line of `/proc/stat`); (0, 0) where
/// it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let ticks: Vec<u64> = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next().map(str::to_owned))
        .map(|cpu| {
            cpu.split_whitespace()
                .skip(1)
                .take(8)
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the figure rests on, printed in the table.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn over(mut self, samples: usize) -> Self {
        self.samples = Some(samples);
        self
    }
}

/// Prints the table rows for `metrics`.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let n = m.samples.map_or(String::new(), |n| format!("n={n}"));
        println!("  {:<30} {:>14.4} {:<10} {n}", m.name, m.value, m.unit);
    }
}

/// The machine-readable result: the last line of standard output.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), 3.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (p1, t1) = (process_cpu_s(), thread_cpu_s());
        assert!(t1 > t0 && p1 - p0 >= t1 - t0 - 1e-6, "{x}");
    }
}
