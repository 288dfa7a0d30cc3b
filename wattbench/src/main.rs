//! `wattbench` — the closed-loop, layer-traced benchmark of the `wattd`
//! power-estimation service.
//!
//! ```text
//! wattbench --workload <cold-mix|hot-tcp|batch-overlap> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it sets the service up several times
//! (the median is `setup_s`), drives it closed-loop from 2 client threads
//! for `--seconds`, checks every answer (see [`check`]), and prints a
//! human-readable report followed by one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the run spends half its time untraced and half traced and
//! the result carries the per-layer metrics (see [`layers`]).

mod check;
mod gen;
mod layers;
mod stats;
mod workload;

use std::time::Instant;

use wm_fleet::json::{obj, Json};

use check::{run_oracle, OracleCase};
use layers::{metric, Metric};
use workload::{
    run_phase, sample_serve_overhead, Conn, Phase, Rig, Source, Workload, CLIENTS, SETUP_REPS,
    WORKERS,
};

const USAGE: &str = "usage: wattbench --workload <cold-mix|hot-tcp|batch-overlap> \
                     --seed <n> --seconds <s> --trace <0|1>";
/// Requests a run needs so that p99 has ten samples beyond it.
const MIN_REQUESTS: u64 = 1000;
/// Distinct requests the direct layer calls run on.
const DIRECT_SPECS: usize = 12;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wattbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    for line in &outcome.report {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
}

struct Outcome {
    report: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    }
}

fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let mut report = vec![format!(
        "wattbench {} seed={} seconds={} trace={} clients={CLIENTS} workers={WORKERS} nproc={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )];

    // Set up several times; the last rig is the one measured. A warm-up
    // answer that fails in any set-up fails the run.
    let mut setup_times = Vec::new();
    let mut rig = None;
    let mut problems: Vec<String> = Vec::new();
    let mut setup_errors: Vec<String> = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(old) = rig.take() {
            if let Err(e) = Rig::teardown(old) {
                problems.push(e);
            }
        }
        let t = Instant::now();
        let mut built = Rig::build(w, args.seed);
        setup_times.push(t.elapsed().as_secs_f64());
        setup_errors.append(&mut built.setup_errors);
        rig = Some(built);
    }
    let rig = rig.expect("at least one set-up");

    let mut sources: Vec<Source> = (0..CLIENTS)
        .map(|c| Source::new(w, args.seed, c, &rig))
        .collect();
    let mut conns: Vec<Conn> = (0..CLIENTS).map(|_| rig.connect()).collect();
    let rss_at = w.rss_checkpoint();
    let (untraced, traced) = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = run_phase(&rig, &mut sources, &mut conns, half, false, rss_at);
        let mut traced = run_phase(&rig, &mut sources, &mut conns, half, true, rss_at);
        if let Err(e) = sample_serve_overhead(&rig, &mut sources[0], &mut conns[0], &mut traced) {
            problems.push(e);
        }
        (untraced, Some(traced))
    } else {
        let phase = run_phase(&rig, &mut sources, &mut conns, args.seconds, false, rss_at);
        (phase, None)
    };
    drop(conns);

    let phases: Vec<&Phase> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let attempted: u64 = phases.iter().map(|p| p.tally.attempted).sum();
    let mut failed: u64 = phases.iter().map(|p| p.tally.failed).sum();
    for p in &phases {
        problems.extend(p.tally.errors.iter().cloned());
    }

    // The oracle: warmed first answers plus the sampled fresh answers.
    let fleet = rig.sched.fleet().clone();
    let cases: Vec<OracleCase> = rig
        .warm_oracle
        .iter()
        .cloned()
        .chain(phases.iter().flat_map(|p| p.tally.oracle.iter().cloned()))
        .collect();
    let oracle = run_oracle(&fleet, &cases, CLIENTS);
    failed += oracle.mismatches.len() as u64 + setup_errors.len() as u64;
    problems.extend(oracle.mismatches.iter().cloned());
    problems.extend(setup_errors);

    let peak_w = rig.sched.peak_committed_w();
    let budget_w = fleet.power_budget_w();
    if peak_w > budget_w {
        problems.push(format!(
            "peak committed {peak_w} W exceeds the {budget_w} W budget"
        ));
    }

    let main_phase = traced.as_ref().unwrap_or(&untraced);
    let t = &main_phase.tally;
    let hits_checked: u64 = phases.iter().map(|p| p.tally.hits_checked).sum();
    let clock_differs: u64 = phases.iter().map(|p| p.tally.clock_scale_differs).sum();
    let mut dropped_spans = 0;

    let metrics = if let Some(traced) = &traced {
        let spans = layers::analyse_spans(&traced.reqs, &traced.spans);
        let specs = Source::sample_specs(w, args.seed, &rig, DIRECT_SPECS);
        let direct = layers::direct_calls(&fleet, &specs);
        dropped_spans = traced.dropped_spans;
        if dropped_spans > 0 {
            problems.push(format!("the span ring dropped {dropped_spans} spans"));
        }
        layers::per_layer(
            traced,
            &untraced,
            &spans,
            &direct,
            peak_w,
            budget_w,
            w.constructed_shares(),
        )
    } else {
        end_to_end(&untraced, &setup_times)
    };
    if let Err(e) = rig.teardown() {
        problems.push(e);
    }

    if args.trace {
        report.push("per-layer metrics (traced phase):".into());
    } else {
        report.push("end-to-end metrics:".into());
        report.push(format!(
            "  {:<40} {:>14} {:<6} ({} failed of {} attempted)",
            "error_share",
            stats::share(failed as f64, attempted as f64),
            "share",
            failed,
            attempted
        ));
    }
    for m in &metrics {
        report.push(format!(
            "  {:<40} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        ));
    }
    if !args.trace {
        report.push(format!(
            "  ({} completed in {:.3} s; peak_rss_mb read at {} completed requests{})",
            t.attempted - t.failed,
            main_phase.elapsed_s,
            main_phase.rss_read_at,
            if main_phase.rss_read_at < rss_at {
                format!(", short of the {rss_at} it is meant to be read at")
            } else {
                String::new()
            }
        ));
        // Printed, not gated: on a shared VM the tail of a short request
        // follows the hypervisor's steal more than the program (see the
        // README's note on latency_p99_us).
        report.push(format!(
            "  {:<40} {:>14.4} {:<6} (n={}; reported, not a gated metric)",
            "latency_p99_us",
            main_phase.latency_quantile(0.99),
            "us",
            t.latencies_us.len()
        ));
    }
    if t.attempted < MIN_REQUESTS {
        report.push(format!(
            "note: {} requests measured; p99 needs {MIN_REQUESTS} for ten samples beyond it",
            t.attempted
        ));
    }
    let (hit_c, member_c, grouped_c) = w.constructed_shares();
    report.push(format!(
        "shares: whole-hit constructed {hit_c:.3}; member-hit constructed {member_c:.3}; \
         grouped constructed {grouped_c:.3}, measured {:.3} of {} results",
        stats::share(t.grouped_results as f64, t.results as f64),
        t.results
    ));
    report.push(format!(
        "oracle: {} fresh answers recomputed with PowerLab, {} mismatches; {} hits equal \
         their first answer; {} replays echo a clock_scale other than the planned one \
         (known, not a failure)",
        oracle.checked,
        oracle.mismatches.len(),
        hits_checked,
        clock_differs
    ));
    report.push(format!(
        "budget: peak committed {peak_w:.1} W of {budget_w:.1} W; dropped spans {dropped_spans}"
    ));
    report.push(format!(
        "host: {:.2}% of CPU time stolen by the hypervisor during the measured phase",
        main_phase.steal_share * 100.0
    ));
    for p in &problems {
        report.push(format!("FAILURE: {p}"));
    }
    Outcome {
        report,
        correct: problems.is_empty() && failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
    }
}

fn end_to_end(p: &Phase, setup_times: &[f64]) -> Vec<Metric> {
    let t = &p.tally;
    let ok = t.attempted - t.failed;
    let n = t.latencies_us.len();
    vec![
        metric("throughput_rps", p.throughput_rps(), "1/s", ok as usize),
        metric("latency_p50_us", p.latency_quantile(0.5), "us", n),
        metric(
            "setup_s",
            stats::median(setup_times),
            "s",
            setup_times.len(),
        ),
        metric("peak_rss_mb", p.peak_rss_mb, "MB", 1),
        metric(
            "cpu_ms_per_request",
            p.cpu_s * 1e3 / ok.max(1) as f64,
            "ms",
            ok as usize,
        ),
        metric(
            "energy_mj_per_request",
            stats::share(t.energy_mj_sum, t.results as f64),
            "mJ",
            t.results as usize,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "hot-tcp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::HotTcp);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args(&["--workload", "warm"]).is_err());
        assert!(args(&["--workload", "cold-mix", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "cold-mix", "--seconds"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "cold-mix", "--seed", "1", "--seconds", "5"]).is_err());
    }
}
