//! Benchmark of Polystore++ over its public API: the real data plane,
//! timed on the process CPU clock and the wall clock.
//!
//! One process runs one workload: it sets the deployment up
//! `SETUP_REPS` times, then two closed-loop clients send requests for
//! `--seconds` and every reply is checked against answers the benchmark
//! computes itself. With `--trace 0` it prints the end-to-end figures;
//! with `--trace 1` it spends half the time untraced and half on the
//! traced path and prints the per-layer figures. The last line of
//! standard output is the JSON result.
//!
//! ```text
//! perfbench --workload analytic|lookup|pipeline --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```

mod alloc;
mod loadgen;
mod oracle;
mod report;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use polystorepp::common::{Error, Result};
use polystorepp::telemetry::{MetricValue, MetricsSnapshot};

use loadgen::{layouts, measure, warm_up, Ctx, Outcome, Sample};
use report::{
    cpu_ticks, json_line, median, peak_rss_mb, print_table, process_cpu_s, quantile, Metric,
};
use trace::{layer_p50, RequestTrace, Tracer};
use workload::{deploy, Class, RequestStream, Workload, CLIENTS, SETUP_REPS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, 1, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
                    .ok_or(format!("--seconds must be in (0, 120], got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String> {
    let w = args.workload;
    let tracer = args.trace.then(Tracer::new);

    // Set-up: datagen + build + one warm-up pass, repeated; the last
    // system is the one measured. Each is timed on the process CPU clock
    // (the gated figure) and on the wall clock (printed).
    let (mut setup_cpu_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut setup_rss_mb = 0.0;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let cpu0 = process_cpu_s();
        let deployed = deploy(w, args.seed, tracer.as_ref())?;
        let t0 = Instant::now();
        let (sim_ms, reference) =
            warm_up(&deployed.system, w, args.seed, deployed.truth.patients())?;
        setup_cpu_s.push(process_cpu_s() - cpu0 - deployed.oracle_cpu_s);
        setup_wall_s.push(deployed.datagen_s + deployed.build_s + t0.elapsed().as_secs_f64());
        if rep == 0 {
            setup_rss_mb = peak_rss_mb();
        }
        last = Some((deployed, sim_ms, reference));
    }
    let setup = Setup {
        cpu_s: median(setup_cpu_s),
        wall_s: median(setup_wall_s),
        rss_mb: setup_rss_mb,
    };
    let (deployed, sim_ms, reference) = last.expect("at least one set-up");
    let reshard_rows = deployed
        .system
        .metrics()
        .snapshot()
        .counter_total("pspp_reshard_rows_total");
    let ctx = Ctx {
        workload: w,
        truth: &deployed.truth,
        reference,
        layouts: layouts(&deployed.system, w)?,
    };
    let patients = deployed.truth.patients();
    let mut streams: Vec<RequestStream> = (0..CLIENTS)
        .map(|c| RequestStream::new(w, args.seed, c, patients))
        .collect();

    println!(
        "perfbench {} seed={} seconds={} clients={CLIENTS} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let Some(tracer) = tracer else {
        let (stolen, total) = cpu_ticks();
        let (_, outcome) = measure(deployed.system, &ctx, &mut streams, args.seconds, None)?;
        let (stolen2, total2) = cpu_ticks();
        let steal =
            stolen2.saturating_sub(stolen) as f64 / total2.saturating_sub(total).max(1) as f64;
        return Ok(end_to_end(&outcome, &setup, sim_ms, steal));
    };

    // Traced run: the untraced half gives the baseline p50 that the
    // traced half's overhead is measured against.
    let half = args.seconds / 2.0;
    let (system, untraced) = measure(deployed.system, &ctx, &mut streams, half, None)?;
    let before = system.metrics().snapshot();
    let (system, traced) = measure(system, &ctx, &mut streams, half, Some(&tracer))?;
    let after = system.metrics().snapshot();
    if let Some(path) = &args.trace_out {
        tracer
            .write(path)
            .map_err(|e| Error::Execution(format!("writing {}: {e}", path.display())))?;
    }
    let requests = tracer.requests();
    let layer_metrics = per_layer(
        &tracer,
        &requests,
        &untraced,
        &traced,
        &before,
        &after,
        reshard_rows,
    );
    print_table("per-layer (counts are per query request)", &layer_metrics);
    print_class_table(&requests);
    let unbalanced = requests
        .iter()
        .filter(|r| r.self_sum_ns != r.wall_ns)
        .count();
    if unbalanced > 0 {
        eprintln!("{unbalanced} traced requests whose self times do not sum to their wall time");
    }
    let (a1, f1) = counts(&untraced);
    let (a2, f2) = counts(&traced);
    Ok(json_line(
        f1 + f2 == 0 && unbalanced == 0,
        a1 + a2,
        f1 + f2,
        &layer_metrics,
    ))
}

/// Median set-up cost over the `SETUP_REPS` set-ups, and the peak
/// resident set when the first set-up (with its warm-up pass) ended.
struct Setup {
    cpu_s: f64,
    wall_s: f64,
    rss_mb: f64,
}

/// Prints the end-to-end table and returns the result line.
///
/// The gated figures are the ones a shared host's load does not move:
/// allocations per query, the peak resident set when the first set-up
/// and its warm-up pass end (the whole run's peak also depends on how
/// the two clients' largest queries happen to overlap), and the
/// simulated makespan; plus set-up time on the process CPU clock, which
/// leaves out stolen time. The table adds the query-path times, which
/// move with the host's load: CPU time per query, set-up wall time,
/// throughput, p50 and p95 latency (with the samples beyond p95), the
/// whole run's peak and every class p50, beside the failure share, the
/// oracle's share of the CPU time, and the share of CPU time the host
/// stole during the measured phase.
fn end_to_end(outcome: &Outcome, setup: &Setup, sim_ms: f64, steal: f64) -> String {
    let (attempted, failed) = counts(outcome);
    let queries = || {
        outcome
            .samples
            .iter()
            .filter(|s| s.class != Class::Rebalance)
    };
    let latencies = sorted_ms(queries());
    let completed = queries().filter(|s| s.ok).count();
    let p95 = quantile(&latencies, 0.95);
    let (cpu_ms, check_frac) = cpu_per_query_ms(outcome, completed);
    let per_query = |x: u64| x as f64 / completed.max(1) as f64;
    let metrics = [
        Metric::new("setup_s", setup.cpu_s, "s").over(SETUP_REPS),
        Metric::new("allocs_per_req", per_query(outcome.allocs), "count").over(completed),
        Metric::new(
            "alloc_kb_per_req",
            per_query(outcome.alloc_bytes) / 1024.0,
            "KiB",
        )
        .over(completed),
        Metric::new("peak_rss_mb", setup.rss_mb, "MB"),
        Metric::new("sim_ms", sim_ms, "ms"),
    ];
    print_table("end-to-end", &metrics);
    let wall = [
        Metric::new("cpu_ms_per_req", cpu_ms, "ms").over(completed),
        Metric::new("setup_wall_s", setup.wall_s, "s").over(SETUP_REPS),
        Metric::new("throughput_qps", completed as f64 / outcome.wall_s, "1/s").over(completed),
        Metric::new("p50_ms", quantile(&latencies, 0.5), "ms").over(latencies.len()),
        Metric::new("peak_rss_run_mb", peak_rss_mb(), "MB"),
    ];
    print_table("times and whole-run peak (not gated)", &wall);
    println!(
        "  {:<30} {check_frac:>14.4} {:<10} of process CPU, left out of cpu_ms_per_req",
        "oracle_cpu_frac", "ratio"
    );
    let beyond = latencies.iter().filter(|&&l| l > p95).count();
    println!(
        "  {:<30} {p95:>14.4} {:<10} n={} with {beyond} beyond",
        "p95_ms",
        "ms",
        latencies.len()
    );
    println!(
        "  {:<30} {:>14.4} {:<10} {failed} of {attempted} attempted",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    println!(
        "  {:<30} {steal:>14.4} {:<10} of all CPU time",
        "host_steal_frac", "ratio"
    );
    for (name, class) in [
        ("scan_p50_ms", Class::Scan),
        ("sort_p50_ms", Class::Sort),
        ("join_p50_ms", Class::Join),
        ("agg_p50_ms", Class::Agg),
        ("point_p50_ms", Class::Point),
        ("range_p50_ms", Class::Range),
        ("point_join_p50_ms", Class::PointJoin),
        ("rebalance_p50_ms", Class::Rebalance),
    ] {
        let v = sorted_ms(outcome.samples.iter().filter(|s| s.class == class));
        match v.len() {
            0 => println!(
                "  {name:<30} {:>14} {:<10} class not in this workload",
                "-", "ms"
            ),
            n => println!(
                "  {name:<30} {:>14.4} {:<10} n={n}",
                quantile(&v, 0.5),
                "ms"
            ),
        }
    }
    json_line(failed == 0, attempted, failed, &metrics)
}

/// Program CPU time per completed query, in ms: the process CPU time
/// over the measured phase less the CPU time the oracle's checks took.
/// For the lookup workload the rebalances between phases are included.
/// Also returns the checks' share of the process CPU time.
fn cpu_per_query_ms(outcome: &Outcome, completed: usize) -> (f64, f64) {
    let checks: f64 = outcome.samples.iter().map(|s| s.check_cpu_s).sum();
    let cpu_ms = (outcome.cpu_s - checks) * 1e3 / completed.max(1) as f64;
    (cpu_ms, checks / outcome.cpu_s.max(f64::MIN_POSITIVE))
}

fn counts(outcome: &Outcome) -> (usize, usize) {
    let failed = outcome.samples.iter().filter(|s| !s.ok).count();
    (outcome.samples.len(), failed)
}

fn sorted_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.map(|s| s.ms).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after
        .counter_total(name)
        .saturating_sub(before.counter_total(name)) as f64
}

fn histogram_sum(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot
        .entries
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| match &e.value {
            MetricValue::Histogram(h) => Some(h.sum_seconds()),
            _ => None,
        })
        .sum()
}

fn per_layer(
    tracer: &Tracer,
    requests: &[RequestTrace],
    untraced: &Outcome,
    traced: &Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    reshard_rows: u64,
) -> Vec<Metric> {
    let all: Vec<&RequestTrace> = requests.iter().collect();
    let n = requests.len();
    let per_req = |x: f64| x / n.max(1) as f64;
    let d = |name| delta(before, after, name);
    let plans = tracer.plan_counts();
    let lookups = d("pspp_plan_cache_lookups_total");
    let hits = labeled(after, "pspp_plan_cache_lookups_total", "hit")
        - labeled(before, "pspp_plan_cache_lookups_total", "hit");
    let untraced_p50 = median(
        untraced
            .samples
            .iter()
            .filter(|s| s.class != Class::Rebalance)
            .map(|s| s.ms)
            .collect(),
    );
    let traced_p50 = median(requests.iter().map(|r| r.wall_ns as f64 / 1e6).collect());
    let rebalanced: usize = traced.rebalances.iter().map(|r| r.total_rows).sum();
    let moved = d("pspp_rebalance_moved_rows_total");
    let rebalances = traced.rebalances.len();
    let (compile_us, compiles) = layer_p50(&all, "frontend.compile", 1e3);
    let (optimize_us, _) = layer_p50(&all, "optimizer.optimize", 1e3);
    let gap_us = median(requests.iter().map(|r| r.gap_ns as f64 / 1e3).collect());
    let migration_ms = (histogram_sum(after, "pspp_migration_seconds")
        - histogram_sum(before, "pspp_migration_seconds"))
        * 1e3;
    vec![
        Metric::new(
            "core.datagen_ms",
            median(tracer.root_ms("core.datagen")),
            "ms",
        )
        .over(SETUP_REPS),
        Metric::new("core.build_ms", median(tracer.root_ms("core.build")), "ms").over(SETUP_REPS),
        Metric::new("frontend.compile_us", compile_us, "us").over(compiles),
        Metric::new(
            "frontend.compiles",
            per_req(plans.compiles as f64),
            "count/req",
        )
        .over(n),
        Metric::new("optimizer.optimize_us", optimize_us, "us").over(compiles),
        Metric::new(
            "optimizer.rewrites",
            per_req(plans.rewrites as f64),
            "count/req",
        )
        .over(n),
        Metric::new(
            "optimizer.exchanges_planned",
            per_req(plans.exchanges as f64),
            "count/req",
        )
        .over(n),
        Metric::new(
            "optimizer.host_fallbacks",
            per_req(plans.host_fallbacks as f64),
            "count/req",
        )
        .over(n),
        Metric::new(
            "service.queue_us",
            layer_p50(&all, "service.queue", 1e3).0,
            "us",
        )
        .over(n),
        Metric::new(
            "service.plan_cache_us",
            layer_p50(&all, "service.plan_cache", 1e3).0,
            "us",
        )
        .over(n),
        Metric::new(
            "service.report_us",
            layer_p50(&all, "service.report", 1e3).0,
            "us",
        )
        .over(n),
        Metric::new(
            "service.plan_hit_ratio",
            hits as f64 / lookups.max(1.0),
            "ratio",
        )
        .over(lookups as usize),
        Metric::new(
            "service.plan_evictions",
            per_req(d("pspp_plan_cache_evictions_total")),
            "count/req",
        )
        .over(n),
        Metric::new(
            "service.admission_peak_queue",
            after
                .gauge_value("pspp_admission_peak_queue", &[])
                .unwrap_or(0) as f64,
            "count",
        ),
        Metric::new(
            "runtime.execute_ms",
            layer_p50(&all, "runtime.execute", 1e6).0,
            "ms",
        )
        .over(n),
        Metric::new(
            "runtime.tasks",
            per_req(d("pspp_executor_tasks_total")),
            "count/req",
        )
        .over(n),
        Metric::new(
            "runtime.exchange_rows",
            per_req(d("pspp_exchange_rows_total")),
            "rows/req",
        )
        .over(n),
        Metric::new(
            "runtime.exchange_bytes",
            per_req(d("pspp_exchange_bytes_total")),
            "bytes/req",
        )
        .over(n),
        Metric::new(
            "registry.rebalance_ms",
            median(tracer.root_ms("registry.rebalance")),
            "ms",
        )
        .over(rebalances),
        Metric::new(
            "registry.moved_rows",
            moved / rebalances.max(1) as f64,
            "rows",
        )
        .over(rebalances),
        Metric::new(
            "registry.moved_frac",
            moved / rebalanced.max(1) as f64,
            "ratio",
        )
        .over(rebalanced),
        Metric::new("registry.reshard_rows", reshard_rows as f64, "rows"),
        Metric::new(
            "migrate.migrations",
            per_req(d("pspp_migrations_total")),
            "count/req",
        )
        .over(n),
        Metric::new("migrate.sim_ms", per_req(migration_ms), "ms/req").over(n),
        Metric::new("request.gap_us", gap_us, "us").over(n),
        Metric::new("request.wall_ms", traced_p50, "ms").over(n),
        Metric::new(
            "trace.overhead_frac",
            traced_p50 / untraced_p50 - 1.0,
            "ratio",
        ),
    ]
}

fn counter(value: &MetricValue) -> u64 {
    match value {
        MetricValue::Counter(v) => *v,
        _ => 0,
    }
}

fn labeled(snapshot: &MetricsSnapshot, name: &str, outcome: &str) -> u64 {
    snapshot
        .entries
        .iter()
        .filter(|e| e.name == name && e.labels.iter().any(|(_, v)| v == outcome))
        .map(|e| counter(&e.value))
        .sum()
}

/// Per class: request count, traced wall p50, and the p50 self time of
/// each layer and of the gap, in µs.
fn print_class_table(requests: &[RequestTrace]) {
    const LAYERS: [&str; 6] = [
        "service.queue",
        "service.plan_cache",
        "frontend.compile",
        "optimizer.optimize",
        "runtime.execute",
        "service.report",
    ];
    println!("per-class self time p50 (us)");
    print!("  {:<11} {:>6} {:>11}", "class", "n", "wall");
    for l in LAYERS {
        print!(" {l:>18}");
    }
    println!(" {:>10}", "gap");
    let classes: std::collections::BTreeSet<Class> = requests.iter().map(|r| r.class).collect();
    for class in classes {
        let of: Vec<&RequestTrace> = requests.iter().filter(|r| r.class == class).collect();
        let wall = median(of.iter().map(|r| r.wall_ns as f64 / 1e3).collect());
        print!("  {:<11} {:>6} {wall:>11.1}", class.name(), of.len());
        for l in LAYERS {
            let (p50, k) = layer_p50(&of, l, 1e3);
            if k == 0 {
                print!(" {:>18}", "-");
            } else {
                print!(" {p50:>18.1}");
            }
        }
        let gap = median(of.iter().map(|r| r.gap_ns as f64 / 1e3).collect());
        println!(" {gap:>10.1}");
    }
}
