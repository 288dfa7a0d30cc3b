//! The three workloads: set-up, request sources, and the closed-loop
//! clients that drive the service through its public entry points.
//!
//! * `cold-mix` — in-process `wm_fleet::answer` on the 4-GPU catalog
//!   fleet; every request is distinct, so nothing is reused.
//! * `hot-tcp` — two TCP sessions to an in-process `wm_serve::Server`,
//!   sending `run` lines from a 64-request pool that set-up warmed, so
//!   every measured request is a whole-result hit.
//! * `batch-overlap` — in-process `wm_fleet::answer_streamed` batches of
//!   8 members, streamed by packed round under a fleet budget below the
//!   sum of device caps: half the members repeat warmed singles, two are
//!   groups built around a warmed member, two are fresh singles.
//!
//! Each client sends its next request only after the previous answer is
//! complete (closed loop). Latency is timed by the client, from the
//! request line to the complete answer line(s).

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use wm_fleet::json::{obj, Json};
use wm_fleet::{answer, answer_streamed, Fleet, Scheduler, SchedulerStats};
use wm_gpu::GpuSpec;
use wm_obs::SpanRecord;
use wm_serve::{ServeConfig, Server, ServerHandle};

use crate::check::{Job, Member, OracleCase, Tally, Warm};
use crate::gen::{fixed_pool, mix, paired_pool, Kind, MixStream, Rng, Spec, KINDS};

/// Client threads (or TCP sessions): one per core of the 2-core target host.
pub const CLIENTS: usize = 2;
/// Scheduler worker threads.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Distinct requests cold-mix set-up runs to finish lazy set-up (a
/// fixed design, so set-up cost does not depend on the seed).
const COLD_WARMUP: usize = 16;
/// Warmed requests hot-tcp draws from.
const HOT_POOL: usize = 64;
/// Knob sets batch-overlap warms, each as two singles of different
/// shapes; batches repeat the singles and build groups around the pairs.
const BATCH_WARM_SETS: usize = 16;
/// batch-overlap fleet budget: well under the 1560 W sum of the catalog
/// caps, so every batch packs into more than one round.
pub const BATCH_BUDGET_W: f64 = 120.0;
/// Members per batch line, and how many of them repeat warmed singles
/// or are groups built around a warmed member.
const BATCH_MEMBERS: usize = 8;
const BATCH_WARM_REPEATS: usize = 4;
const BATCH_GROUPS: usize = 2;
/// Samples a latency window holds at least, so that its p99 has ten
/// samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 1000;
/// Latency samples reserved per client. Untouched reserved pages are
/// not resident, so the reservation costs no RSS until used.
const LATENCY_CAPACITY: usize = 1 << 21;
/// Times hot-tcp's replay pairs each pool line for `serve.rtt_overhead_us`.
const SERVE_SAMPLE_REPS: usize = 8;
/// One fresh request line in this many goes to the oracle...
const ORACLE_EVERY: u64 = 12;
/// ...up to this many lines per client and run.
const ORACLE_MAX_PER_CLIENT: u64 = 96;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    ColdMix,
    HotTcp,
    BatchOverlap,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-mix" => Some(Workload::ColdMix),
            "hot-tcp" => Some(Workload::HotTcp),
            "batch-overlap" => Some(Workload::BatchOverlap),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold-mix",
            Workload::HotTcp => "hot-tcp",
            Workload::BatchOverlap => "batch-overlap",
        }
    }

    fn fleet(self) -> Fleet {
        match self {
            Workload::BatchOverlap => {
                let mut b = Fleet::builder();
                for gpu in GpuSpec::catalog() {
                    b = b.device(gpu);
                }
                b.power_budget_w(BATCH_BUDGET_W).build()
            }
            _ => Fleet::from_catalog(),
        }
    }

    /// Completed requests at which `peak_rss_mb` is read: fixed per
    /// workload and below what a run completes, so that memory which
    /// grows with every distinct request is compared at equal work, not
    /// at equal time.
    pub fn rss_checkpoint(self) -> u64 {
        match self {
            Workload::ColdMix => 2_000,
            Workload::HotTcp => 200_000,
            Workload::BatchOverlap => 500,
        }
    }

    /// Constructed shares of the properties a gain depends on: whole
    /// hits per member, member-store hits per simulated-or-reused member,
    /// grouped requests per member.
    pub fn constructed_shares(self) -> (f64, f64, f64) {
        match self {
            Workload::ColdMix => (0.0, 0.0, 0.25),
            Workload::HotTcp => (1.0, 0.0, 0.25),
            // Per batch: 4 whole hits; each group reuses 2 of its 3
            // members and simulates 1, each fresh single simulates 1.
            Workload::BatchOverlap => (0.5, 4.0 / 8.0, 0.25),
        }
    }
}

/// A constructed service plus the warmed first answers.
pub struct Rig {
    pub sched: Arc<Scheduler>,
    /// Warmed requests and their first answers, by index.
    pub warm_specs: Vec<Spec>,
    pub warm: Vec<Warm>,
    /// The warmed answers, for the oracle.
    pub warm_oracle: Vec<OracleCase>,
    pub setup_errors: Vec<String>,
    server: Option<ServerRig>,
}

struct ServerRig {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Rig {
    /// Construct the fleet, scheduler and (for hot-tcp) server, and warm
    /// what the workload repeats.
    pub fn build(w: Workload, seed: u64) -> Rig {
        let sched = Arc::new(Scheduler::with_workers(w.fleet(), WORKERS));
        let server = (w == Workload::HotTcp).then(|| {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            };
            let server = Server::bind(cfg, Arc::clone(&sched)).expect("bind loopback listener");
            let addr = server.local_addr();
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run());
            ServerRig {
                addr,
                handle,
                thread,
            }
        });
        let (warm_specs, keep) = match w {
            Workload::ColdMix => (fixed_pool(seed, 15, COLD_WARMUP, &KINDS), false),
            Workload::HotTcp => (fixed_pool(seed, 4, HOT_POOL, &KINDS), true),
            Workload::BatchOverlap => (paired_pool(seed, 5, BATCH_WARM_SETS), true),
        };
        let (warm, warm_oracle, setup_errors) = warm_up(&sched, &warm_specs);
        let mut rig = Rig {
            sched,
            warm_specs,
            warm,
            warm_oracle,
            setup_errors,
            server,
        };
        if !keep {
            rig.warm_specs.clear();
            rig.warm.clear();
            rig.warm_oracle.clear();
        }
        rig
    }

    pub fn connect(&self) -> Conn {
        match &self.server {
            None => Conn::InProc,
            Some(s) => {
                let stream = TcpStream::connect(s.addr).expect("connect to loopback server");
                stream.set_nodelay(true).expect("set TCP_NODELAY");
                let reader = BufReader::new(stream.try_clone().expect("clone TCP stream"));
                Conn::Tcp {
                    writer: stream,
                    reader,
                    buf: String::new(),
                }
            }
        }
    }

    /// Stop the server (clients must have disconnected) and the workers.
    pub fn teardown(self) -> Result<(), String> {
        if let Some(s) = self.server {
            s.handle.shutdown();
            match s.thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(format!("server drain failed: {e}")),
                Err(_) => return Err("server thread panicked".into()),
            }
        }
        drop(self.sched);
        Ok(())
    }
}

/// Answer every spec once, in-process on `CLIENTS` threads, keeping the
/// first answers in spec order.
fn warm_up(sched: &Scheduler, specs: &[Spec]) -> (Vec<Warm>, Vec<OracleCase>, Vec<String>) {
    let answers: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    specs
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|(i, spec)| (i, answer(&spec.json(i as u64), sched)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, Json)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up thread panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, a)| a).collect()
    });
    let mut warm = Vec::new();
    let mut oracle = Vec::new();
    let mut errors = Vec::new();
    for (spec, a) in specs.iter().zip(&answers) {
        let fields = crate::check::Fields::from_json(a);
        let device = a.get("device").and_then(Json::as_usize);
        match (a.get("ok").and_then(Json::as_bool), fields, device) {
            (Some(true), Some(fields), Some(device)) => {
                warm.push(Warm {
                    fields,
                    clock_scale: a
                        .get("clock_scale")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN),
                });
                oracle.push(OracleCase {
                    spec: spec.clone(),
                    device,
                    fields,
                });
            }
            _ => errors.push(format!("warm-up answer failed: {a}")),
        }
    }
    (warm, oracle, errors)
}

/// A client's connection: in-process calls or one TCP session.
pub enum Conn {
    InProc,
    Tcp {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
        buf: String,
    },
}

/// One request line's outcome, as the client saw it.
#[derive(Debug, Default)]
pub struct Exchange {
    pub latency_us: f64,
    /// Tracer-clock window of the exchange.
    pub start_us: u64,
    pub end_us: u64,
    /// One run result per member, in member order.
    pub results: Vec<Json>,
    /// Daemon request ids: the line's own id first, then batch members'.
    pub rids: Vec<u64>,
    pub rounds: Option<f64>,
    pub error: Option<String>,
    /// In-process traced exchanges only: the benchmark's own timing of
    /// `Json::parse` on the request line and `Display` of the response.
    pub parse_us: Option<f64>,
    pub encode_us: Option<f64>,
}

fn elapsed_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn rid_of(v: &Json) -> Option<u64> {
    v.get("request_id").and_then(Json::as_u64)
}

impl Conn {
    fn exchange(&mut self, sched: &Scheduler, job: &Job, traced: bool) -> Exchange {
        let tracer = sched.tracer();
        let start_us = tracer.now_us();
        let mut ex = match self {
            Conn::InProc => inproc_exchange(sched, job, traced),
            Conn::Tcp {
                writer,
                reader,
                buf,
            } => {
                let t0 = Instant::now();
                buf.clear();
                let io = writer
                    .write_all(job.wire.as_bytes())
                    .and_then(|()| reader.read_line(buf));
                let latency_us = elapsed_us(t0);
                let mut ex = match io {
                    Ok(0) => Exchange {
                        error: Some("server closed the session".into()),
                        ..Exchange::default()
                    },
                    Ok(_) => match Json::parse(buf.trim_end()) {
                        Ok(v) => Exchange {
                            rids: rid_of(&v).into_iter().collect(),
                            results: vec![v],
                            ..Exchange::default()
                        },
                        Err(e) => Exchange {
                            error: Some(format!("unparseable answer: {e}")),
                            ..Exchange::default()
                        },
                    },
                    Err(e) => Exchange {
                        error: Some(format!("session I/O failed: {e}")),
                        ..Exchange::default()
                    },
                };
                ex.latency_us = latency_us;
                ex
            }
        };
        ex.start_us = start_us;
        ex.end_us = tracer.now_us();
        ex
    }
}

/// Line in, line(s) out, in-process: parse, answer (streamed for a
/// batch), encode.
fn inproc_exchange(sched: &Scheduler, job: &Job, traced: bool) -> Exchange {
    let t0 = Instant::now();
    let v = match Json::parse(job.line()) {
        Ok(v) => v,
        Err(e) => {
            return Exchange {
                error: Some(format!("generated line does not parse: {e}")),
                ..Exchange::default()
            }
        }
    };
    let parse_us = elapsed_us(t0);
    let mut encode_us = 0.0;
    let mut lines: Vec<Json> = Vec::new();
    let mut encode = |line: &Json| {
        let t = Instant::now();
        black_box(line.to_string());
        encode_us += elapsed_us(t);
    };
    if job.members.len() == 1 {
        let a = answer(&v, sched);
        encode(&a);
        lines.push(a);
    } else {
        let streamed = answer_streamed(&v, sched, &mut |line| {
            encode(line);
            lines.push(line.clone());
            Ok(())
        });
        if let Err(e) = streamed {
            return Exchange {
                latency_us: elapsed_us(t0),
                error: Some(format!("stream failed: {e}")),
                ..Exchange::default()
            };
        }
    }
    let latency_us = elapsed_us(t0);
    let mut ex = Exchange {
        latency_us,
        ..Exchange::default()
    };
    if traced {
        ex.parse_us = Some(parse_us);
        ex.encode_us = Some(encode_us);
    }
    if lines.len() == 1 && lines[0].get("results").is_none() {
        ex.rids = rid_of(&lines[0]).into_iter().collect();
        ex.results = lines;
        return ex;
    }
    // Streamed batch: reassemble members by index; the line's own id
    // comes first, members' ids after.
    ex.rids = lines.first().and_then(rid_of).into_iter().collect();
    let mut members: Vec<(usize, Json)> = Vec::new();
    for line in &lines {
        if line.get("ok").and_then(Json::as_bool) != Some(true) {
            ex.error = Some(format!("batch line failed: {line}"));
            return ex;
        }
        ex.rounds = line.get("rounds").and_then(Json::as_f64);
        for r in line.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
            let index = r
                .get("index")
                .and_then(Json::as_usize)
                .unwrap_or(usize::MAX);
            members.push((index, r.clone()));
        }
    }
    if lines
        .last()
        .and_then(|l| l.get("last"))
        .and_then(Json::as_bool)
        != Some(true)
    {
        ex.error = Some("batch stream did not end with \"last\": true".into());
        return ex;
    }
    members.sort_by_key(|(i, _)| *i);
    if members
        .iter()
        .enumerate()
        .any(|(i, (index, _))| i != *index)
    {
        ex.error = Some("batch member indices are not 0..n exactly once".into());
        return ex;
    }
    ex.rids
        .extend(members.iter().filter_map(|(_, r)| rid_of(r)));
    ex.results = members.into_iter().map(|(_, r)| r).collect();
    ex
}

/// Where one client's request lines come from.
pub struct Source {
    kind: SourceKind,
    seed: u64,
    client: u64,
    lines: u64,
    sampled: u64,
}

enum SourceKind {
    Cold(MixStream),
    Hot {
        pool: Arc<Vec<Job>>,
        order: Vec<usize>,
        rng: Rng,
    },
    Batch {
        fresh: MixStream,
        warm: Arc<Vec<Spec>>,
    },
}

impl Source {
    pub fn new(w: Workload, seed: u64, client: usize, rig: &Rig) -> Source {
        let client = client as u64;
        let kind = match w {
            Workload::ColdMix => SourceKind::Cold(MixStream::new(seed, client, &KINDS)),
            Workload::HotTcp => SourceKind::Hot {
                pool: Arc::new(
                    rig.warm_specs
                        .iter()
                        .enumerate()
                        .map(|(i, spec)| Job {
                            wire: format!("{}\n", spec.line(i as u64)),
                            members: vec![Member {
                                spec: spec.clone(),
                                warm: Some(i),
                            }],
                            sampled: false,
                        })
                        .collect(),
                ),
                order: Vec::new(),
                rng: Rng::new(mix(seed ^ (client << 48) ^ 0x407)),
            },
            Workload::BatchOverlap => SourceKind::Batch {
                fresh: MixStream::new(seed, 6 + client, &[Kind::Square, Kind::Ragged, Kind::Gemv]),
                warm: Arc::new(rig.warm_specs.clone()),
            },
        };
        Source {
            kind,
            seed,
            client,
            lines: 0,
            sampled: 0,
        }
    }

    /// A sample of the distinct specs this source sends, for the direct
    /// layer calls.
    pub fn sample_specs(w: Workload, seed: u64, rig: &Rig, n: usize) -> Vec<Spec> {
        match w {
            Workload::HotTcp => rig.warm_specs.iter().take(n).cloned().collect(),
            _ => {
                let mut s = Source::new(w, seed ^ 0xD1CE, 0, rig);
                let mut specs = Vec::new();
                while specs.len() < n {
                    let job = s.next_job();
                    specs.extend(
                        job.members
                            .iter()
                            .filter(|m| m.warm.is_none())
                            .map(|m| m.spec.clone()),
                    );
                }
                specs.truncate(n);
                specs
            }
        }
    }

    fn take_sample(&mut self) -> bool {
        let pick = mix(self.seed ^ (self.client << 40) ^ self.lines).is_multiple_of(ORACLE_EVERY)
            && self.sampled < ORACLE_MAX_PER_CLIENT;
        self.sampled += pick as u64;
        pick
    }

    pub fn next_job(&mut self) -> Arc<Job> {
        let id = self.lines;
        let sampled = match self.kind {
            SourceKind::Hot { .. } => false,
            _ => self.take_sample(),
        };
        self.lines += 1;
        match &mut self.kind {
            SourceKind::Cold(stream) => {
                let spec = stream.next_spec();
                Arc::new(Job {
                    wire: format!("{}\n", spec.line(id)),
                    members: vec![Member { spec, warm: None }],
                    sampled,
                })
            }
            SourceKind::Hot { pool, order, rng } => {
                if order.is_empty() {
                    *order = (0..pool.len()).collect();
                    rng.shuffle(order);
                }
                let i = order.pop().expect("refilled order");
                Arc::new(pool[i].clone())
            }
            SourceKind::Batch { fresh, warm } => {
                let mut members: Vec<Member> = Vec::with_capacity(BATCH_MEMBERS);
                for _ in 0..BATCH_WARM_REPEATS {
                    let i = fresh.rng().below(warm.len());
                    members.push(Member {
                        spec: warm[i].clone(),
                        warm: Some(i),
                    });
                }
                for _ in 0..BATCH_GROUPS {
                    let set = fresh.rng().below(warm.len() / 2);
                    let twin = warm[2 * set + 1].members[0];
                    let mut spec = warm[2 * set].clone();
                    spec.members.extend([twin, fresh.fresh_shape()]);
                    spec.grouped = true;
                    spec.square = false;
                    members.push(Member { spec, warm: None });
                }
                while members.len() < BATCH_MEMBERS {
                    members.push(Member {
                        spec: fresh.next_spec(),
                        warm: None,
                    });
                }
                fresh.rng().shuffle(&mut members);
                let requests: Vec<Json> = members
                    .iter()
                    .enumerate()
                    .map(|(i, m)| m.spec.json(i as u64))
                    .collect();
                let line = obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("op", Json::Str("batch".into())),
                    ("requests", Json::Arr(requests)),
                ]);
                Arc::new(Job {
                    wire: format!("{line}\n"),
                    members,
                    sampled,
                })
            }
        }
    }
}

impl Phase {
    /// Completed requests per second over the whole measured phase,
    /// seconds in which nothing completed included.
    pub fn throughput_rps(&self) -> f64 {
        let t = &self.tally;
        (t.attempted - t.failed) as f64 / self.elapsed_s
    }

    /// The `q`-quantile of client latency: the median over consecutive
    /// time windows of the phase, each long enough to hold about
    /// `MIN_WINDOW_SAMPLES` samples (one window when the phase has
    /// fewer), of each window's exact nearest-rank quantile. Windows keep
    /// a burst of outside interference from moving the tail of the
    /// whole phase.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let t = &self.tally;
        let seconds = (self.elapsed_s.floor() as usize).max(1);
        let windows = (t.latencies_us.len() / MIN_WINDOW_SAMPLES).clamp(1, seconds);
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for (&l, &sec) in t.latencies_us.iter().zip(&t.latency_secs) {
            let w = (sec as usize * windows / seconds).min(windows - 1);
            buckets[w].push(l.into());
        }
        let per_window: Vec<f64> = buckets
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| crate::stats::quantile(b, q))
            .collect();
        crate::stats::median(&per_window)
    }
}

/// Per-request trace bookkeeping of a traced phase.
#[derive(Debug, Clone)]
pub struct ReqTrace {
    pub rids: Vec<u64>,
    pub batch: bool,
    pub start_us: u64,
    pub end_us: u64,
    pub latency_us: f64,
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// Share of machine CPU time stolen by the hypervisor in the phase.
    pub steal_share: f64,
    /// `VmHWM` when the clients together completed `rss_at` requests
    /// (at the end of the phase if they completed fewer), and the count
    /// it was read at.
    pub peak_rss_mb: f64,
    pub rss_read_at: u64,
    pub stats_before: Option<SchedulerStats>,
    pub stats_after: Option<SchedulerStats>,
    pub reqs: Vec<ReqTrace>,
    pub spans: Vec<SpanRecord>,
    pub parse_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub rtt_overhead_us: Vec<f64>,
    pub dropped_spans: u64,
}

#[derive(Default)]
struct ClientRun {
    tally: Tally,
    reqs: Vec<ReqTrace>,
    spans: Vec<SpanRecord>,
    parse_us: Vec<f64>,
    encode_us: Vec<f64>,
}

/// Drive every client closed-loop for `seconds`. A traced phase drains
/// the scheduler's span ring after every request and keeps the
/// benchmark's own timings. Peak RSS is read when the clients together
/// complete `rss_at` requests.
pub fn run_phase(
    rig: &Rig,
    sources: &mut [Source],
    conns: &mut [Conn],
    seconds: f64,
    traced: bool,
    rss_at: u64,
) -> Phase {
    let sched = &*rig.sched;
    let tracer = sched.tracer();
    if traced {
        // Start from an empty ring: spans of untraced work are not ours.
        drop(tracer.drain());
    }
    let dropped_before = tracer.dropped();
    let stats_before = sched.stats();
    let cpu0 = crate::stats::process_cpu_s();
    let steal0 = crate::stats::cpu_steal_ticks();
    let t0 = Instant::now();
    let deadline = t0 + std::time::Duration::from_secs_f64(seconds);
    let completed = AtomicU64::new(0);
    let rss_at_checkpoint = OnceLock::new();
    let (completed, rss_at_checkpoint) = (&completed, &rss_at_checkpoint);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .iter_mut()
            .zip(conns.iter_mut())
            .map(|(source, conn)| {
                s.spawn(move || {
                    let mut run = ClientRun {
                        tally: Tally::with_capacity(LATENCY_CAPACITY),
                        ..ClientRun::default()
                    };
                    while Instant::now() < deadline {
                        let job = source.next_job();
                        let ex = conn.exchange(sched, &job, traced);
                        let ok = match &ex.error {
                            Some(e) => {
                                run.tally.attempted += 1;
                                run.tally.failed += 1;
                                run.tally.note_error(e.clone());
                                false
                            }
                            None => run.tally.absorb(&job, &ex.results, &rig.warm),
                        };
                        let sec = t0.elapsed().as_secs().min(u16::MAX.into()) as u16;
                        run.tally.record(ex.latency_us, sec);
                        if ok && completed.fetch_add(1, Ordering::Relaxed) + 1 == rss_at {
                            let _ = rss_at_checkpoint.set(crate::stats::peak_rss_mb());
                        }
                        if let Some(r) = ex.rounds {
                            run.tally.rounds.push(r);
                        }
                        if traced {
                            run.spans.extend(tracer.drain());
                            run.parse_us.extend(ex.parse_us);
                            run.encode_us.extend(ex.encode_us);
                            run.reqs.push(ReqTrace {
                                rids: ex.rids,
                                batch: job.members.len() > 1,
                                start_us: ex.start_us,
                                end_us: ex.end_us,
                                latency_us: ex.latency_us,
                            });
                        }
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::stats::process_cpu_s() - cpu0;
    let steal1 = crate::stats::cpu_steal_ticks();
    let mut phase = Phase {
        elapsed_s,
        cpu_s,
        steal_share: crate::stats::share(
            (steal1.0 - steal0.0) as f64,
            (steal1.1 - steal0.1) as f64,
        ),
        // Before the clients' logs are merged, which allocates.
        peak_rss_mb: rss_at_checkpoint
            .get()
            .copied()
            .unwrap_or_else(crate::stats::peak_rss_mb),
        rss_read_at: completed.load(Ordering::Relaxed).min(rss_at),
        stats_before: Some(stats_before),
        stats_after: Some(sched.stats()),
        ..Phase::default()
    };
    for run in runs {
        phase.tally.merge(run.tally);
        phase.reqs.extend(run.reqs);
        phase.spans.extend(run.spans);
        phase.parse_us.extend(run.parse_us);
        phase.encode_us.extend(run.encode_us);
    }
    if traced {
        // Spans finished after a client's last drain (e.g. a session
        // span closed after its answer was written).
        phase.spans.extend(tracer.drain());
    }
    phase.dropped_spans = tracer.dropped() - dropped_before;
    phase
}

/// hot-tcp, after its traced phase: send each pool line over the first
/// session, then answer the same line in-process, `SERVE_SAMPLE_REPS`
/// times, one pair at a time. The round trip minus the in-process answer
/// is what the serve layer and loopback add (`serve.rtt_overhead_us`);
/// the in-process answer also gives the protocol parse and encode times.
/// Kept out of the measured phase so traced throughput carries only the
/// span drains. Spans are drained after every exchange and counted into
/// `phase.dropped_spans`; the first failed exchange is returned.
pub fn sample_serve_overhead(
    rig: &Rig,
    source: &mut Source,
    conn: &mut Conn,
    phase: &mut Phase,
) -> Result<(), String> {
    let SourceKind::Hot { pool, .. } = &source.kind else {
        return Ok(());
    };
    let sched = &*rig.sched;
    let tracer = sched.tracer();
    let dropped_before = tracer.dropped();
    for _ in 0..SERVE_SAMPLE_REPS {
        for job in pool.iter() {
            let tcp = conn.exchange(sched, job, false);
            drop(tracer.drain());
            let direct = inproc_exchange(sched, job, true);
            drop(tracer.drain());
            if let Some(e) = tcp.error.as_ref().or(direct.error.as_ref()) {
                return Err(format!("serve-overhead sample failed: {e}"));
            }
            let answered = |ex: &Exchange| {
                ex.results
                    .iter()
                    .all(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
            };
            if !(answered(&tcp) && answered(&direct)) {
                return Err(format!("serve-overhead sample not ok: {}", job.line()));
            }
            phase
                .rtt_overhead_us
                .push(tcp.latency_us - direct.latency_us);
            phase.parse_us.extend(direct.parse_us);
            phase.encode_us.extend(direct.encode_us);
        }
    }
    phase.dropped_spans += tracer.dropped() - dropped_before;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(seconds: u32, per_second: usize, slow_second: u32) -> Phase {
        let mut tally = Tally::default();
        for sec in 0..seconds {
            for i in 0..per_second {
                let l = if sec == slow_second { 1e6 } else { i as f64 };
                let sec = sec as u16;
                tally.attempted += 1;
                tally.record(l, sec);
            }
        }
        Phase {
            tally,
            elapsed_s: seconds as f64,
            ..Phase::default()
        }
    }

    #[test]
    fn one_slow_window_does_not_move_the_tail() {
        let p = phase(5, 1000, 2);
        assert_eq!(p.latency_quantile(0.99), 989.0);
        assert_eq!(p.latency_quantile(0.5), 499.0);
        assert_eq!(p.throughput_rps(), 1000.0);
    }

    #[test]
    fn short_phases_use_one_window() {
        // 900 samples: one window, the slow second lands in the tail.
        let p = phase(3, 300, 1);
        assert_eq!(p.latency_quantile(0.99), 1e6);
        assert_eq!(p.throughput_rps(), 300.0);
    }

    #[test]
    fn stalled_seconds_count_against_throughput() {
        // 5 s of completions in a 6 s phase: the idle second counts.
        let mut p = phase(5, 1000, 2);
        p.elapsed_s = 6.0;
        assert_eq!(p.throughput_rps(), 5000.0 / 6.0);
    }
}
