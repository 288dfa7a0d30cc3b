//! Per-layer numbers of a traced run.
//!
//! Three sources: the scheduler's own span ring (drained after every
//! request, so nothing is dropped), the benchmark's timing of its own
//! calls into the protocol layer, and direct calls into each layer's
//! public functions on a sample of the workload's requests. Span stamps
//! are whole microseconds, so stage times are reported as means over
//! spans, which keep their fractional digits.
//!
//! A stage's self time is its span's duration minus the part covered by
//! other spans of the same request nested inside it (the TCP `session`
//! span contains the protocol's spans). Queue wait is the gap between
//! the `parse` span's end and the `cache_lookup` span's start of a run
//! line; for a batch member, between the batch's `pack` end and the
//! member's `cache_lookup` start (which includes waiting for earlier
//! packed rounds). What the client measured beyond the union of all
//! spans and queue waits of a request is its unattributed remainder.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use wm_core::{first_seed_member_operands, member_ordinals, simulate_member_activity};
use wm_fleet::Fleet;
use wm_obs::{stage, SpanRecord};
use wm_power::evaluate_group;
use wm_predict::features_for_request;

use crate::gen::Spec;
use crate::stats::{mean, median, quantile, share};
use crate::workload::{Phase, ReqTrace};

/// One metric of the report: name, value, unit, sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Self time of each span: duration minus the union of same-request
/// spans strictly nested inside it.
fn self_times(spans: &[&SpanRecord]) -> Vec<(&'static str, f64)> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut inner: Vec<(u64, u64)> = spans
                .iter()
                .enumerate()
                .filter(|(j, o)| {
                    *j != i
                        && o.start_us >= s.start_us
                        && o.end_us <= s.end_us
                        && (o.start_us, o.end_us) != (s.start_us, s.end_us)
                })
                .map(|(_, o)| (o.start_us, o.end_us))
                .collect();
            let covered = union_len(&mut inner);
            (s.stage, s.duration_us() as f64 - covered as f64)
        })
        .collect()
}

/// Total length of the union of half-open intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

fn find<'a>(spans: &[&'a SpanRecord], name: &str) -> Option<&'a SpanRecord> {
    spans.iter().copied().find(|s| s.stage == name)
}

/// Span-derived stage metrics of a traced phase.
pub struct SpanAnalysis {
    pub self_us: HashMap<&'static str, Vec<f64>>,
    pub queue_wait_us: Vec<f64>,
    pub unattributed_us: Vec<f64>,
    pub latency_us: Vec<f64>,
}

pub fn analyse_spans(reqs: &[ReqTrace], spans: &[SpanRecord]) -> SpanAnalysis {
    let mut by_rid: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        by_rid.entry(s.request_id).or_default().push(s);
    }
    let mut out = SpanAnalysis {
        self_us: HashMap::new(),
        queue_wait_us: Vec::new(),
        unattributed_us: Vec::new(),
        latency_us: Vec::new(),
    };
    let none: Vec<&SpanRecord> = Vec::new();
    for req in reqs {
        let Some(&top) = req.rids.first() else {
            continue;
        };
        let top_spans = by_rid.get(&top).unwrap_or(&none);
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for &rid in &req.rids {
            let rs = by_rid.get(&rid).unwrap_or(&none);
            for (name, t) in self_times(rs) {
                out.self_us.entry(name).or_default().push(t);
            }
            covered.extend(rs.iter().map(|s| (s.start_us, s.end_us)));
            // Queue wait: from the step that handed the job to the
            // scheduler to the worker's first span.
            let handoff = if req.batch {
                find(top_spans, stage::PACK)
            } else {
                find(rs, stage::PARSE)
            };
            if let (Some(h), Some(lookup)) = (handoff, find(rs, stage::CACHE_LOOKUP)) {
                if lookup.start_us >= h.end_us {
                    out.queue_wait_us.push((lookup.start_us - h.end_us) as f64);
                    covered.push((h.end_us, lookup.start_us));
                }
            }
        }
        let window = (req.start_us, req.end_us.max(req.start_us));
        let mut clipped: Vec<(u64, u64)> = covered
            .into_iter()
            .map(|(a, b)| (a.max(window.0), b.min(window.1)))
            .filter(|(a, b)| a < b)
            .collect();
        let attributed = union_len(&mut clipped) as f64;
        out.unattributed_us
            .push((req.latency_us - attributed).max(0.0));
        out.latency_us.push(req.latency_us);
    }
    out
}

/// Direct-call timings of each layer's public functions.
#[derive(Default)]
pub struct DirectCalls {
    pub features_us: Vec<f64>,
    pub generate_us: Vec<f64>,
    pub simulate_us: Vec<f64>,
    pub evaluate_us: Vec<f64>,
}

fn timed<T>(out: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = black_box(f());
    out.push(t.elapsed().as_secs_f64() * 1e6);
    r
}

/// Time feature extraction per request, operand generation per member,
/// kernel simulation per member and seed, and power evaluation per seed
/// and device, on `specs`.
pub fn direct_calls(fleet: &Fleet, specs: &[Spec]) -> DirectCalls {
    let mut d = DirectCalls::default();
    for spec in specs {
        let req = spec.request();
        timed(&mut d.features_us, || features_for_request(&req));
        let ordinals = member_ordinals(&req);
        // per_seed[s][i]: seed s's activity of member i.
        let mut per_seed = vec![Vec::new(); req.seeds as usize];
        for &(member, ord) in &ordinals {
            timed(&mut d.generate_us, || {
                first_seed_member_operands(&req, member, ord)
            });
            for (s, acts) in per_seed.iter_mut().enumerate() {
                // Each seed simulates its own operands; a shifted base
                // seed gives operands of the same shape and pattern.
                let seeded = req
                    .clone()
                    .with_base_seed(req.base_seed ^ ((s as u64) << 40));
                let (a, b) = first_seed_member_operands(&seeded, member, ord);
                acts.push(timed(&mut d.simulate_us, || {
                    simulate_member_activity(&req, member, &a, &b)
                }));
            }
        }
        for acts in &per_seed {
            for dev in fleet.devices() {
                timed(&mut d.evaluate_us, || evaluate_group(&dev.gpu, acts));
            }
        }
    }
    d
}

/// Everything a traced run reports, in output order.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    traced: &Phase,
    untraced: &Phase,
    spans: &SpanAnalysis,
    direct: &DirectCalls,
    peak_committed_w: f64,
    budget_w: f64,
    constructed: (f64, f64, f64),
) -> Vec<Metric> {
    let t = &traced.tally;
    let completed = t.attempted as usize;
    let stage_mean = |name: &str| {
        let v = spans.self_us.get(name).map(Vec::as_slice).unwrap_or(&[]);
        (mean(v), v.len())
    };
    let (before, after) = (
        traced.stats_before.expect("phase stats"),
        traced.stats_after.expect("phase stats"),
    );
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let member_hits = (after.member_cache_hits - before.member_cache_hits) as f64;
    let residues = (after.member_residue_jobs - before.member_residue_jobs) as f64;
    let steals = (after.steals - before.steals) as f64;
    let per_req = completed.max(1) as f64;

    let mut m = Vec::new();
    let mut stage = |name: &'static str, span: &str| {
        let (v, n) = stage_mean(span);
        m.push(metric(name, v, "us", n));
    };
    stage("cache.lookup_us", stage::CACHE_LOOKUP);
    stage("features.self_us", stage::FEATURES);
    stage("pricing.self_us", stage::PRICING);
    stage("placement.self_us", stage::PLACEMENT);
    stage("execute.self_us", stage::EXECUTE);
    stage("feedback.self_us", stage::FEEDBACK);
    stage("pack.self_us", stage::PACK);
    stage("serve.session_self_us", stage::SESSION);
    let qw = &spans.queue_wait_us;
    let lat_p50 = median(&spans.latency_us);
    let unattributed_p50 = median(&spans.unattributed_us);
    m.extend([
        metric(
            "protocol.parse_us",
            median(&traced.parse_us),
            "us",
            traced.parse_us.len(),
        ),
        metric(
            "protocol.encode_us",
            median(&traced.encode_us),
            "us",
            traced.encode_us.len(),
        ),
        metric(
            "serve.rtt_overhead_us",
            median(&traced.rtt_overhead_us),
            "us",
            traced.rtt_overhead_us.len(),
        ),
        metric(
            "scheduler.queue_wait_p50_us",
            quantile(qw, 0.5),
            "us",
            qw.len(),
        ),
        metric(
            "scheduler.queue_wait_p99_us",
            quantile(qw, 0.99),
            "us",
            qw.len(),
        ),
        metric(
            "scheduler.steals_per_request",
            steals / per_req,
            "count",
            completed,
        ),
        metric(
            "cache.hit_share",
            share(hits, hits + misses),
            "share",
            (hits + misses) as usize,
        ),
        metric(
            "cache.member_hit_share",
            share(member_hits, member_hits + residues),
            "share",
            (member_hits + residues) as usize,
        ),
        metric(
            "cache.dedup_joins",
            (after.dedup_joins - before.dedup_joins) as f64,
            "count",
            completed,
        ),
        metric(
            "features.extract_us",
            median(&direct.features_us),
            "us",
            direct.features_us.len(),
        ),
        metric(
            "pricing.learned_share",
            share(t.learned as f64, t.priced as f64),
            "share",
            t.priced as usize,
        ),
        metric(
            "pricing.ape_p50_pct",
            median(&t.ape_pct),
            "%",
            t.ape_pct.len(),
        ),
        metric(
            "patterns.generate_us",
            median(&direct.generate_us),
            "us",
            direct.generate_us.len(),
        ),
        metric(
            "kernels.simulate_us",
            median(&direct.simulate_us),
            "us",
            direct.simulate_us.len(),
        ),
        metric(
            "power.evaluate_us",
            median(&direct.evaluate_us),
            "us",
            direct.evaluate_us.len(),
        ),
        metric(
            "kernels.operand_mb_per_request",
            t.operand_mb / per_req,
            "MB",
            completed,
        ),
        metric(
            "kernels.member_seeds_per_request",
            t.member_seeds as f64 / per_req,
            "count",
            completed,
        ),
        metric(
            "pack.rounds_per_batch",
            mean(&t.rounds),
            "count",
            t.rounds.len(),
        ),
        metric(
            "budget.peak_committed_share",
            peak_committed_w / budget_w,
            "share",
            1,
        ),
        metric(
            "latency.p99_us",
            untraced.latency_quantile(0.99),
            "us",
            untraced.tally.latencies_us.len(),
        ),
        metric(
            "latency.traced_p50_us",
            lat_p50,
            "us",
            spans.latency_us.len(),
        ),
        metric(
            "latency.unattributed_p50_us",
            unattributed_p50,
            "us",
            spans.unattributed_us.len(),
        ),
        metric(
            "latency.unattributed_share",
            share(unattributed_p50, lat_p50),
            "share",
            spans.unattributed_us.len(),
        ),
        metric(
            "trace.untraced_rps",
            untraced.throughput_rps(),
            "1/s",
            untraced.tally.attempted as usize,
        ),
        metric(
            "trace.traced_rps",
            traced.throughput_rps(),
            "1/s",
            completed,
        ),
        metric(
            "trace.overhead_share",
            1.0 - share(traced.throughput_rps(), untraced.throughput_rps()),
            "share",
            completed,
        ),
        metric(
            "trace.dropped_spans",
            traced.dropped_spans as f64,
            "count",
            traced.spans.len(),
        ),
        metric("workload.hit_share_constructed", constructed.0, "share", 1),
        metric(
            "workload.member_hit_share_constructed",
            constructed.1,
            "share",
            1,
        ),
        metric(
            "workload.grouped_share_constructed",
            constructed.2,
            "share",
            1,
        ),
        metric(
            "workload.grouped_share_measured",
            share(t.grouped_results as f64, t.results as f64),
            "share",
            t.results as usize,
        ),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rid: u64, stage: &'static str, start_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord {
            request_id: rid,
            stage,
            detail: String::new(),
            start_us,
            end_us,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&mut [(0, 5), (3, 8), (10, 12)]), 10);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn nested_spans_leave_self_time() {
        let outer = span(1, stage::SESSION, 0, 100);
        let a = span(1, stage::PARSE, 10, 20);
        let b = span(1, stage::CACHE_LOOKUP, 30, 35);
        let refs = vec![&outer, &a, &b];
        let t = self_times(&refs);
        assert_eq!(t[0], (stage::SESSION, 85.0));
        assert_eq!(t[1], (stage::PARSE, 10.0));
    }

    #[test]
    fn queue_wait_and_remainder_of_a_run_line() {
        let spans = vec![
            span(7, stage::PARSE, 100, 110),
            span(7, stage::CACHE_LOOKUP, 130, 132),
            span(7, stage::EXECUTE, 132, 200),
        ];
        let req = ReqTrace {
            rids: vec![7],
            batch: false,
            start_us: 95,
            end_us: 210,
            latency_us: 115.0,
        };
        let a = analyse_spans(&[req], &spans);
        assert_eq!(a.queue_wait_us, vec![20.0]);
        // 115 measured, 100..200 attributed.
        assert_eq!(a.unattributed_us, vec![15.0]);
    }
}
