//! Open-loop network load generator: N concurrent TCP clients with
//! Poisson arrivals against a running `wattd serve`, and a validated
//! `BENCH_network.json` artifact.
//!
//! Where `src/serving_bench.rs` (the `wattmul-repro` umbrella crate)
//! measures the scheduler in-process, this harness measures the whole
//! network path: JSON encode, socket write, session read loop, streamed
//! batch framing, and response decode. Each client draws its own
//! open-loop arrival schedule up front (exponential interarrivals that
//! never wait on completions, so server queueing shows up in the client's
//! tail latency) and pipelines: a send thread writes request lines at
//! their due times while the client thread reads responses as they come,
//! matching them back to send timestamps by request `"id"`. A streamed
//! `batch` counts as complete at its `"last": true` line.
//!
//! Every number in the artifact comes from a `wm-obs` [`Registry`] the
//! clients record into, plus one `stats` round-trip whose response is
//! embedded verbatim under `"server"` — the benchmark keeps no books of
//! its own. Run it via `examples/wattd_load.rs`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wm_fleet::json::{obj, Json};
use wm_obs::Registry;

/// Keys every `BENCH_network.json` artifact must carry at top level.
/// [`validate`] enforces them; CI checks the emitted file against it.
pub const REQUIRED_KEYS: &[&str] = &[
    "bench",
    "smoke",
    "clients",
    "requests",
    "ok",
    "errors",
    "wall_s",
    "throughput_rps",
    "p50_us",
    "p95_us",
    "p99_us",
    "cache_hits",
    "response_lines",
    "server",
];

/// Load shape: how many clients, how many requests, how fast.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Address of an already-listening `wattd serve`, e.g.
    /// `"127.0.0.1:4815"`.
    pub addr: String,
    /// Concurrent TCP client connections.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// Per-client open-loop arrival rate in requests per second.
    pub arrival_rate_rps: f64,
    /// Seed for the deterministic request mix and arrival draws.
    pub seed: u64,
    /// Marks the artifact as a smoke run (small numbers, CI-sized).
    pub smoke: bool,
}

impl LoadConfig {
    /// CI-sized run: seconds of wall clock.
    pub fn smoke(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            clients: 3,
            requests_per_client: 12,
            arrival_rate_rps: 200.0,
            seed: 0x5eed_cafe,
            smoke: true,
        }
    }

    /// The full run reported in BENCH artifacts.
    pub fn full(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            clients: 6,
            requests_per_client: 40,
            arrival_rate_rps: 150.0,
            seed: 0x5eed_cafe,
            smoke: false,
        }
    }
}

/// SplitMix64 — the deterministic draw behind arrivals and the request
/// mix of both open-loop harnesses (this one and the in-process
/// `serving_bench`). The field is the generator state; seed it directly.
pub struct Rng(pub u64);

impl Rng {
    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One of `items`, uniformly.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next_u64() % items.len() as u64) as usize]
    }

    /// An exponential interarrival gap, seconds, for Poisson arrivals at
    /// `rate_rps` per second.
    pub fn arrival_gap_s(&mut self, rate_rps: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate_rps
    }
}

/// The body of one protocol request (everything but `"id"`), as the
/// field list `wm_fleet::protocol` parses.
fn run_body(rng: &mut Rng, seed: u64) -> Vec<(&'static str, Json)> {
    let dtype = rng.pick(&["fp32", "fp16-t"]);
    let axis = rng.pick(&[32u64, 48, 64, 80, 96]);
    let mut fields = vec![("dtype", Json::Str(dtype.to_string()))];
    match rng.next_u64() % 4 {
        // Square GEMM prefill (legacy spelling).
        0 => fields.push(("dim", Json::Num(axis as f64))),
        // Ragged GEMM.
        1 => {
            fields.push(("n", Json::Num(axis as f64)));
            fields.push(("m", Json::Num(rng.pick(&[32u64, 64]) as f64)));
            fields.push(("k", Json::Num(rng.pick(&[48u64, 96]) as f64)));
        }
        // GEMV decode row: n×1×k.
        2 => {
            fields.push(("kernel", Json::Str("gemv".to_string())));
            fields.push(("n", Json::Num(axis as f64)));
            fields.push(("k", Json::Num(rng.pick(&[48u64, 96]) as f64)));
        }
        // Grouped GEMM prefill, priced and cached as a unit.
        _ => {
            let members: Vec<Json> = (0..2 + (rng.next_u64() % 2))
                .map(|_| {
                    obj(vec![
                        ("n", Json::Num(rng.pick(&[32u64, 64]) as f64)),
                        ("m", Json::Num(rng.pick(&[32u64, 48]) as f64)),
                        ("k", Json::Num(rng.pick(&[48u64, 64]) as f64)),
                    ])
                })
                .collect();
            fields.push(("group", Json::Arr(members)));
        }
    }
    match rng.next_u64() % 3 {
        0 => fields.push(("pattern", Json::Str("zeros".to_string()))),
        1 => fields.push(("pattern", Json::Str("gaussian".to_string()))),
        _ => {
            fields.push(("pattern", Json::Str("sparse".to_string())));
            fields.push(("sparsity", Json::Num(0.9)));
        }
    }
    fields.push(("seeds", Json::Num(1.0)));
    fields.push(("base_seed", Json::Num(seed as f64)));
    fields.push(("lattice", Json::Num(4.0)));
    fields
}

/// One request line from the mix. Roughly: 55% single runs (square,
/// ragged, GEMV decode, grouped prefill), 20% streamed 3-member batches,
/// 25% repeats of an earlier body under a fresh id (memo-cache food).
fn request_line(
    rng: &mut Rng,
    id: u64,
    seed: u64,
    pool: &mut Vec<Vec<(&'static str, Json)>>,
) -> String {
    let draw = rng.unit();
    let body = if draw < 0.25 && !pool.is_empty() {
        pool[(rng.next_u64() % pool.len() as u64) as usize].clone()
    } else if draw < 0.45 {
        // A streamed batch of three members.
        let members: Vec<Json> = (0..3)
            .map(|i| obj(run_body(rng, seed.wrapping_add(i))))
            .collect();
        let line = obj(vec![
            ("op", Json::Str("batch".to_string())),
            ("id", Json::Num(id as f64)),
            ("requests", Json::Arr(members)),
        ]);
        return line.to_string();
    } else {
        let body = run_body(rng, seed);
        if pool.len() < 8 {
            pool.push(body.clone());
        }
        body
    };
    let mut fields = vec![("id", Json::Num(id as f64))];
    fields.extend(body);
    obj(fields).to_string()
}

/// Per-client outcome counters (folded into the shared registry).
#[derive(Debug, Default)]
struct ClientTally {
    ok: u64,
    errors: u64,
    cache_hits: u64,
    lines: u64,
}

/// Drive one pipelined client: a send thread writes request lines at
/// their pre-drawn due times; this thread reads response lines, matches
/// them to send timestamps by `"id"`, and records latency into `reg`.
fn run_client(cfg: &LoadConfig, client_idx: u64, reg: &Registry) -> std::io::Result<ClientTally> {
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let write_half = stream.try_clone()?;

    let mut rng = Rng(cfg.seed ^ client_idx.wrapping_mul(0x9E37_79B9));
    let mut pool: Vec<Vec<(&'static str, Json)>> = Vec::new();
    let mut at = 0.0f64;
    let plan: Vec<(f64, u64, String)> = (0..cfg.requests_per_client as u64)
        .map(|i| {
            at += rng.arrival_gap_s(cfg.arrival_rate_rps);
            let seed = (client_idx << 32) | (i + 1);
            (at, i, request_line(&mut rng, i, seed, &mut pool))
        })
        .collect();
    let total = plan.len();

    let sent: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let sent_by_writer = Arc::clone(&sent);
    let start = Instant::now();
    let sender = std::thread::spawn(move || -> std::io::Result<()> {
        let mut w = BufWriter::new(write_half);
        for (due_s, id, line) in plan {
            let due = Duration::from_secs_f64(due_s);
            let now = start.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent_by_writer
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(id, Instant::now());
            writeln!(w, "{line}")?;
            w.flush()?;
        }
        Ok(())
    });

    let latency = reg.histogram("network_request_latency_us", &[]);
    let mut tally = ClientTally::default();
    let mut completed = 0usize;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while completed < total {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break; // server went away
        }
        let Ok(resp) = Json::parse(line.trim()) else {
            tally.errors += 1;
            completed += 1;
            continue;
        };
        tally.lines += 1;
        if resp.get("cache_hit") == Some(&Json::Bool(true)) {
            tally.cache_hits += 1;
        }
        if let Some(results) = resp.get("results").and_then(Json::as_arr) {
            for r in results {
                if r.get("cache_hit") == Some(&Json::Bool(true)) {
                    tally.cache_hits += 1;
                }
            }
        }
        // A streamed batch completes at its "last": true line; anything
        // without a "last" field is a single-line response.
        let done = resp.get("last").and_then(Json::as_bool).unwrap_or(true);
        if !done {
            continue;
        }
        completed += 1;
        if resp.get("ok") == Some(&Json::Bool(true)) {
            tally.ok += 1;
        } else {
            tally.errors += 1;
        }
        if let Some(id) = resp.get("id").and_then(Json::as_u64) {
            let sent_at = sent
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&id);
            if let Some(t) = sent_at {
                latency.observe(t.elapsed().as_micros() as f64);
            }
        }
    }
    // audit:allow(panic-paths): joining our own sender thread; a panic there is already a bench bug
    let send_result = sender.join().expect("sender thread never panics");
    send_result?;
    if completed < total {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("server answered {completed}/{total} requests"),
        ));
    }
    Ok(tally)
}

/// One extra round-trip on a fresh connection: the server's own `stats`
/// response (scheduler counters plus the serve layer's session view),
/// embedded verbatim in the artifact.
fn fetch_server_stats(addr: &str) -> std::io::Result<Json> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut w = BufWriter::new(stream.try_clone()?);
    writeln!(w, "{}", obj(vec![("op", Json::Str("stats".to_string()))]))?;
    w.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Json::parse(line.trim())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e}")))
}

/// The load run's artifact.
pub struct LoadReport {
    /// The `BENCH_network.json` document.
    pub artifact: Json,
}

/// Run the configured load against `cfg.addr` and assemble the
/// artifact. The server must already be listening (spawn one with
/// [`crate::Server`] or point at a running `wattd serve`).
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    assert!(
        cfg.clients > 0 && cfg.requests_per_client > 0,
        "load needs at least one client and one request"
    );
    let reg = Arc::new(Registry::new());
    let start = Instant::now();
    let mut workers = Vec::new();
    for c in 0..cfg.clients as u64 {
        let cfg = cfg.clone();
        let reg = Arc::clone(&reg);
        workers.push(std::thread::spawn(move || run_client(&cfg, c, &reg)));
    }
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut cache_hits = 0u64;
    let mut lines = 0u64;
    for w in workers {
        // audit:allow(panic-paths): joining our own client thread; a panic there is already a bench bug
        let tally = w.join().expect("client threads never panic")?;
        ok += tally.ok;
        errors += tally.errors;
        cache_hits += tally.cache_hits;
        lines += tally.lines;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let server = fetch_server_stats(&cfg.addr)?;

    let latency = reg.histogram("network_request_latency_us", &[]).snapshot();
    let q = |q: f64| {
        if latency.observations() == 0 {
            0.0
        } else {
            latency.quantile(q)
        }
    };
    let requests = (cfg.clients * cfg.requests_per_client) as u64;
    let artifact = obj(vec![
        ("bench", Json::Str("network".to_string())),
        ("smoke", Json::Bool(cfg.smoke)),
        ("clients", Json::Num(cfg.clients as f64)),
        ("requests", Json::Num(requests as f64)),
        ("ok", Json::Num(ok as f64)),
        ("errors", Json::Num(errors as f64)),
        ("wall_s", Json::Num(wall_s)),
        ("throughput_rps", Json::Num(requests as f64 / wall_s)),
        ("p50_us", Json::Num(q(0.5))),
        ("p95_us", Json::Num(q(0.95))),
        ("p99_us", Json::Num(q(0.99))),
        ("cache_hits", Json::Num(cache_hits as f64)),
        ("response_lines", Json::Num(lines as f64)),
        ("server", server),
    ]);
    Ok(LoadReport { artifact })
}

/// The numeric value of `key`, or an error naming it.
pub fn require_num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric {key:?}"))
}

/// The checks every open-loop artifact shares: each of `required_keys`
/// present, `"bench"` equal to `bench`, a boolean `"smoke"`, positive
/// `requests`, `wall_s` and `throughput_rps` that agree with each other,
/// and monotone `p50_us <= p95_us <= p99_us` with a positive p95.
/// Returns `requests` for the harness-specific checks that follow.
pub fn validate_open_loop(v: &Json, bench: &str, required_keys: &[&str]) -> Result<f64, String> {
    for &key in required_keys {
        if v.get(key).is_none() {
            return Err(format!("missing required key {key:?}"));
        }
    }
    if v.get("bench").and_then(Json::as_str) != Some(bench) {
        return Err(format!("\"bench\" must be {bench:?}"));
    }
    if v.get("smoke").and_then(Json::as_bool).is_none() {
        return Err("\"smoke\" must be a boolean".to_string());
    }
    let requests = require_num(v, "requests")?;
    let wall_s = require_num(v, "wall_s")?;
    let throughput = require_num(v, "throughput_rps")?;
    if requests <= 0.0 || wall_s <= 0.0 || throughput <= 0.0 {
        return Err(format!(
            "requests ({requests}), wall_s ({wall_s}) and throughput_rps ({throughput}) must be positive"
        ));
    }
    if (throughput - requests / wall_s).abs() > 1e-6 * throughput.max(1.0) {
        return Err(format!(
            "throughput_rps {throughput} inconsistent with requests/wall_s {}",
            requests / wall_s
        ));
    }
    let (p50, p95, p99) = (
        require_num(v, "p50_us")?,
        require_num(v, "p95_us")?,
        require_num(v, "p99_us")?,
    );
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!(
            "quantiles not monotone: p50 {p50}, p95 {p95}, p99 {p99}"
        ));
    }
    if p95 <= 0.0 {
        return Err(format!("p95_us must be positive, got {p95}"));
    }
    Ok(requests)
}

/// Validate a `BENCH_network.json` document: the shared open-loop checks
/// ([`validate_open_loop`]), outcomes accounted (`ok + errors ==
/// requests`), streamed responses visible (`response_lines >=
/// requests`), and a well-formed embedded `server` stats object. CI runs
/// this against the freshly emitted artifact.
pub fn validate(v: &Json) -> Result<(), String> {
    let requests = validate_open_loop(v, "network", REQUIRED_KEYS)?;
    let (ok, errors) = (require_num(v, "ok")?, require_num(v, "errors")?);
    if (ok + errors - requests).abs() > 0.5 {
        return Err(format!(
            "ok ({ok}) + errors ({errors}) must account for every request ({requests})"
        ));
    }
    if require_num(v, "response_lines")? < requests {
        return Err("response_lines must cover at least one line per request".to_string());
    }
    let Some(server) = v.get("server") else {
        // audit:allow(panic-paths): require_num validated the key just above; validator-internal invariant
        unreachable!("required key checked above");
    };
    if server.get("ok") != Some(&Json::Bool(true)) {
        return Err("embedded \"server\" stats must carry \"ok\": true".to_string());
    }
    if server.get("completed").and_then(Json::as_f64).is_none() {
        return Err("embedded \"server\" stats must carry a numeric \"completed\"".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_artifact() -> Json {
        obj(vec![
            ("bench", Json::Str("network".into())),
            ("smoke", Json::Bool(true)),
            ("clients", Json::Num(2.0)),
            ("requests", Json::Num(10.0)),
            ("ok", Json::Num(9.0)),
            ("errors", Json::Num(1.0)),
            ("wall_s", Json::Num(2.0)),
            ("throughput_rps", Json::Num(5.0)),
            ("p50_us", Json::Num(10.0)),
            ("p95_us", Json::Num(20.0)),
            ("p99_us", Json::Num(30.0)),
            ("cache_hits", Json::Num(3.0)),
            ("response_lines", Json::Num(14.0)),
            (
                "server",
                obj(vec![
                    ("ok", Json::Bool(true)),
                    ("completed", Json::Num(10.0)),
                ]),
            ),
        ])
    }

    #[test]
    fn validate_accepts_reference_and_rejects_broken_artifacts() {
        let ok = reference_artifact();
        validate(&ok).expect("reference artifact is valid");

        let broken = |key: &str, value: Json| {
            let Json::Obj(fields) = ok.clone() else {
                unreachable!()
            };
            let patched: Vec<(String, Json)> = fields
                .into_iter()
                .map(|(k, v)| if k == key { (k, value.clone()) } else { (k, v) })
                .collect();
            Json::Obj(patched)
        };
        assert!(validate(&broken("throughput_rps", Json::Num(0.0))).is_err());
        assert!(
            validate(&broken("p95_us", Json::Num(5.0))).is_err(),
            "p50 > p95"
        );
        assert!(
            validate(&broken("errors", Json::Num(5.0))).is_err(),
            "ok + errors must equal requests"
        );
        assert!(
            validate(&broken("response_lines", Json::Num(4.0))).is_err(),
            "streamed batches mean at least one line per request"
        );
        assert!(
            validate(&broken("server", Json::Obj(vec![]))).is_err(),
            "server stats must be well-formed"
        );
        assert!(validate(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn request_mix_is_deterministic_and_parseable() {
        let mut a = Rng(7);
        let mut b = Rng(7);
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for i in 0..40u64 {
            let la = request_line(&mut a, i, i, &mut pa);
            let lb = request_line(&mut b, i, i, &mut pb);
            assert_eq!(la, lb, "same seed, same mix");
            Json::parse(&la).expect("every generated line is valid JSON");
        }
    }
}
