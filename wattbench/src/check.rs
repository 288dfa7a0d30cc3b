//! Per-request accounting and the correctness oracle.
//!
//! Every answered request is checked as it arrives: the response must be
//! `ok`, a whole-result hit of a warmed request must carry exactly the
//! warmed answer's result fields, and a fresh answer in the seed-chosen
//! sample is queued for the oracle, which recomputes it after the
//! measured phase with `PowerLab::new(gpu).with_vm(vm).run(&req)` on the
//! device the response names. Only result fields are compared; the
//! `clock_scale` echo legitimately differs between a fresh answer (the
//! planned clock) and its replay (the result's own clock), so that
//! difference is counted and reported, never failed.

use wm_core::{PowerLab, RunResult};
use wm_fleet::json::Json;
use wm_fleet::Fleet;

use crate::gen::{Spec, SEEDS};

/// The result fields of one answer, compared bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Fields {
    values: [f64; 5],
    throttled: bool,
}

const FIELD_NAMES: [&str; 5] = [
    "power_w",
    "power_std_w",
    "energy_per_iter_mj",
    "runtime_us",
    "utilization_pct",
];

impl Fields {
    pub fn from_json(v: &Json) -> Option<Fields> {
        let mut values = [0.0; 5];
        for (slot, name) in values.iter_mut().zip(FIELD_NAMES) {
            *slot = v.get(name)?.as_f64()?;
        }
        Some(Fields {
            values,
            throttled: v.get("throttled")?.as_bool()?,
        })
    }

    /// The fields as the protocol renders them from a result.
    pub fn from_result(r: &RunResult) -> Fields {
        Fields {
            values: [
                r.power.mean,
                r.power.std,
                r.energy_per_iter.mean * 1e3,
                r.runtime.mean * 1e6,
                r.utilization_pct,
            ],
            throttled: r.throttled,
        }
    }

    pub fn energy_mj(&self) -> f64 {
        self.values[2]
    }

    /// The first field that differs, if any.
    pub fn diff(&self, other: &Fields) -> Option<String> {
        for (i, name) in FIELD_NAMES.iter().enumerate() {
            if self.values[i].to_bits() != other.values[i].to_bits() {
                return Some(format!("{name} {} != {}", self.values[i], other.values[i]));
            }
        }
        (self.throttled != other.throttled).then(|| "throttled differs".to_string())
    }
}

/// A warmed request's first answer.
#[derive(Debug, Clone, Copy)]
pub struct Warm {
    pub fields: Fields,
    pub clock_scale: f64,
}

/// One member of a request line: its spec, and the index of its warmed
/// first answer when setup warmed it.
#[derive(Debug, Clone)]
pub struct Member {
    pub spec: Spec,
    pub warm: Option<usize>,
}

/// One request line and what it asks for.
#[derive(Debug, Clone)]
pub struct Job {
    /// The wire form, newline included.
    pub wire: String,
    pub members: Vec<Member>,
    /// Whether the oracle recomputes this job's fresh answers.
    pub sampled: bool,
}

impl Job {
    pub fn line(&self) -> &str {
        self.wire.trim_end()
    }
}

/// A fresh answer queued for recomputation.
#[derive(Debug, Clone)]
pub struct OracleCase {
    pub spec: Spec,
    pub device: usize,
    pub fields: Fields,
}

/// What one client observed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Client latency of every answered line. Stored compactly (6 bytes
    /// a sample with the second below): the samples live in the measured
    /// process, so their size shows in its peak RSS.
    pub latencies_us: Vec<f32>,
    /// The second of the phase each latency sample completed in.
    pub latency_secs: Vec<u16>,
    /// Successful run results (a batch contributes one per member).
    pub results: u64,
    pub energy_mj_sum: f64,
    pub grouped_results: u64,
    pub fresh_results: u64,
    pub ape_pct: Vec<f64>,
    pub learned: u64,
    pub priced: u64,
    pub operand_mb: f64,
    pub member_seeds: u64,
    pub hits_checked: u64,
    pub clock_scale_differs: u64,
    pub rounds: Vec<f64>,
    pub oracle: Vec<OracleCase>,
    pub errors: Vec<String>,
}

const MAX_ERRORS_KEPT: usize = 8;

impl Tally {
    /// A tally with room for `n` latency samples, reserved up front so
    /// the sample vectors never reallocate mid-run (a doubling copy
    /// would show up as a step in peak RSS).
    pub fn with_capacity(n: usize) -> Tally {
        Tally {
            latencies_us: Vec::with_capacity(n),
            latency_secs: Vec::with_capacity(n),
            ..Tally::default()
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
        self.latency_secs.extend(other.latency_secs);
        self.results += other.results;
        self.energy_mj_sum += other.energy_mj_sum;
        self.grouped_results += other.grouped_results;
        self.fresh_results += other.fresh_results;
        self.ape_pct.extend(other.ape_pct);
        self.learned += other.learned;
        self.priced += other.priced;
        self.operand_mb += other.operand_mb;
        self.member_seeds += other.member_seeds;
        self.hits_checked += other.hits_checked;
        self.clock_scale_differs += other.clock_scale_differs;
        self.rounds.extend(other.rounds);
        self.oracle.extend(other.oracle);
        for e in other.errors {
            self.note_error(e);
        }
    }

    /// Record one answered request line that completed in second `sec`
    /// of the phase after `latency_us`.
    pub fn record(&mut self, latency_us: f64, sec: u16) {
        self.latencies_us.push(latency_us as f32);
        self.latency_secs.push(sec);
    }

    pub fn note_error(&mut self, e: String) {
        if self.errors.len() < MAX_ERRORS_KEPT {
            self.errors.push(e);
        }
    }

    /// Account one answered request line: `results[i]` answers
    /// `job.members[i]`. Returns false (and counts a failure) when any
    /// member is wrong.
    pub fn absorb(&mut self, job: &Job, results: &[Json], warm: &[Warm]) -> bool {
        self.attempted += 1;
        let outcome = if results.len() != job.members.len() {
            Err(format!(
                "{} results for {} members",
                results.len(),
                job.members.len()
            ))
        } else {
            job.members
                .iter()
                .zip(results)
                .try_for_each(|(member, r)| self.absorb_result(job.sampled, member, r, warm))
        };
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.note_error(e);
                false
            }
        }
    }

    fn absorb_result(
        &mut self,
        sampled: bool,
        member: &Member,
        r: &Json,
        warm: &[Warm],
    ) -> Result<(), String> {
        if r.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("error answer: {r}"));
        }
        let fields = Fields::from_json(r).ok_or_else(|| format!("missing result fields: {r}"))?;
        let device = r
            .get("device")
            .and_then(Json::as_usize)
            .ok_or("missing device")?;
        let hit = r.get("cache_hit").and_then(Json::as_bool) == Some(true);
        let clock_scale = r
            .get("clock_scale")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        self.results += 1;
        self.energy_mj_sum += fields.energy_mj();
        if member.spec.grouped {
            self.grouped_results += 1;
        }
        if hit {
            if let Some(w) = member.warm.and_then(|i| warm.get(i)) {
                if let Some(d) = w.fields.diff(&fields) {
                    return Err(format!("hit differs from its first answer: {d}"));
                }
                self.hits_checked += 1;
                if w.clock_scale.to_bits() != clock_scale.to_bits() {
                    self.clock_scale_differs += 1;
                }
            }
            return Ok(());
        }
        self.fresh_results += 1;
        self.count_fresh_work(member, r);
        if let (Some(p), Some(m)) = (
            r.get("predicted_w").and_then(Json::as_f64),
            r.get("measured_w").and_then(Json::as_f64),
        ) {
            self.ape_pct.push((p - m).abs() / m * 100.0);
        }
        match r.get("predicted_source").and_then(Json::as_str) {
            Some("learned") => {
                self.learned += 1;
                self.priced += 1;
            }
            Some(_) => self.priced += 1,
            None => {}
        }
        // A warmed request answered fresh (its first answer was lost) is
        // always recomputed; otherwise the sample decides.
        if sampled || member.warm.is_some() {
            self.oracle.push(OracleCase {
                spec: member.spec.clone(),
                device,
                fields,
            });
        }
        Ok(())
    }

    /// Operand bytes and member-seed simulations a fresh answer stands
    /// for, from tensor sizes: members answered from the member store
    /// (`"cached": true` in a group echo) generate nothing.
    fn count_fresh_work(&mut self, member: &Member, r: &Json) {
        let spec = &member.spec;
        match r.get("group").and_then(Json::as_arr) {
            Some(group) => {
                for m in group {
                    if m.get("cached").and_then(Json::as_bool) == Some(true) {
                        continue;
                    }
                    let axis = |k: &str| m.get(k).and_then(Json::as_usize).unwrap_or(0);
                    let dims = wm_gpu::GemmDims {
                        n: axis("n"),
                        m: axis("m"),
                        k: axis("k"),
                    };
                    self.operand_mb += spec.operand_mb(dims) * SEEDS as f64;
                    self.member_seeds += SEEDS;
                }
            }
            None => {
                self.operand_mb += spec.operand_mb(spec.members[0]) * SEEDS as f64;
                self.member_seeds += SEEDS;
            }
        }
    }
}

/// The outcome of recomputing the queued fresh answers.
#[derive(Debug, Default)]
pub struct OracleReport {
    pub checked: u64,
    pub mismatches: Vec<String>,
}

/// Recompute every case on the device its answer names, on `threads`
/// threads, and compare result fields bit for bit.
pub fn run_oracle(fleet: &Fleet, cases: &[OracleCase], threads: usize) -> OracleReport {
    let chunk = cases.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = cases
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter_map(|case| {
                            let Some(dev) = fleet.device(case.device) else {
                                return Some(format!(
                                    "answer names unknown device {}",
                                    case.device
                                ));
                            };
                            let lab = PowerLab::new(dev.gpu.clone()).with_vm(dev.vm.id);
                            let expect = Fields::from_result(&lab.run(&case.spec.request()));
                            expect.diff(&case.fields).map(|d| {
                                format!(
                                    "oracle mismatch on {} ({}): {d}",
                                    dev.gpu.name,
                                    case.spec.line(0)
                                )
                            })
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    OracleReport {
        checked: cases.len() as u64,
        mismatches: parts.into_iter().flatten().collect(),
    }
}
