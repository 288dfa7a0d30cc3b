//! Structure-aware fuzzing of the `wattd` protocol surface: lines built
//! from a JSON token alphabet plus the protocol's own op names and keys,
//! fed through `Json::parse` + `answer` and through the line-oriented
//! `serve` loop on a 1-device fleet. Whatever a client sends, the daemon
//! must not panic, must answer every request line with exactly one
//! object carrying a boolean `"ok"`, and must stamp strictly increasing
//! request ids. Every numeric value is tiny, so a line that does parse
//! into a runnable request costs milliseconds.

use proptest::prelude::*;
use wm_fleet::json::Json;
use wm_fleet::{answer, serve, Fleet, Scheduler};
use wm_gpu::spec::a100_pcie;

/// Every request key with values for it: well-typed ones (tiny numbers,
/// real op/dtype/pattern names) next to out-of-range and wrong-typed
/// ones, so most generated objects get past type checks into the
/// validation and execution paths.
const FIELDS: &[(&str, &[&str])] = &[
    (
        "op",
        &[
            r#""run""#,
            r#""batch""#,
            r#""predict""#,
            r#""model_stats""#,
            r#""stats""#,
            r#""metrics""#,
            r#""trace""#,
            r#""fleet""#,
            r#""ping""#,
            r#""frobnicate""#,
            "4",
        ],
    ),
    ("id", &["1", r#""a""#, "null", "{}", "[1,[2]]"]),
    (
        "dtype",
        &[
            r#""fp32""#,
            r#""FP16""#,
            r#""fp16-t""#,
            r#""int8""#,
            r#""bf16""#,
            r#""nope""#,
            "1",
        ],
    ),
    ("dim", &["0", "1", "4", "8", "16", "-1", "0.5", r#""8""#]),
    ("n", &["0", "1", "4", "8", "16", "-1", r#""8""#]),
    ("m", &["0", "1", "4", "8", "null"]),
    ("k", &["0", "1", "4", "8", "16", "2.5"]),
    ("kernel", &[r#""gemm""#, r#""gemv""#, r#""tpu""#, "true"]),
    (
        "pattern",
        &[
            r#""gaussian""#,
            r#""sparse""#,
            r#""zeros""#,
            r#""sorted_rows""#,
            r#""zero_lsbs""#,
            r#""value_set""#,
            r#""bit_flips""#,
            r#""constant_random""#,
            r#""nope""#,
        ],
    ),
    ("sparsity", &["0", "0.5", "1", "1.5", "-0.1"]),
    ("fraction", &["0", "0.5", "1", "2"]),
    ("probability", &["0", "0.25", "-0.1"]),
    ("count", &["0", "1", "3", "3.5", "100"]),
    ("set_size", &["0", "1", "8", "1e9"]),
    ("param", &["0.5", "2", r#""x""#]),
    ("mean", &["0", "4", "-1", "1000"]),
    ("std", &["1", "0", "-5", "0.5"]),
    ("seeds", &["0", "1", "2", "3", "101", r#""2""#]),
    ("base_seed", &["0", "1", "7", "-1"]),
    ("iterations", &["0", "1", "16"]),
    ("b_transposed", &["true", "false", "1"]),
    ("lattice", &["0", "1", "2", "4", "true"]),
    ("deadline_us", &["1", "1000", "1e9", "0", "-5"]),
    ("gpu", &[r#""a100""#, r#""auto""#, r#""tpu""#, "3"]),
    (
        "group",
        &[
            "[]",
            r#"[{"n":8,"m":4,"k":8},{"dim":4}]"#,
            r#"[{"n":8,"m":4,"k":8},"x"]"#,
            r#"[{"n":0}]"#,
            "{}",
        ],
    ),
    (
        "requests",
        &[
            "[]",
            r#"[{"dtype":"fp32","dim":8,"lattice":2},{"op":"ping"},3]"#,
            r#"[{"dtype":"int8","dim":4,"pattern":"zeros","seeds":1},{"dtype":"int8","dim":4,"pattern":"zeros","seeds":1}]"#,
            r#"[{"dtype":"fp16-t","n":8,"k":4,"kernel":"gemv","gpu":"a100"}]"#,
            r#""all""#,
        ],
    ),
    ("stream", &["true", "false", r#""yes""#]),
    ("format", &[r#""json""#, r#""prometheus""#, r#""xml""#]),
    ("request_id", &["1", "2", r#""x""#]),
    ("limit", &["0", "1", "5", "-1"]),
    ("drain", &["true", "false"]),
];

/// Opening fields that make an object a runnable request, a batch, or a
/// prediction before the random fields are appended (a duplicate key
/// reads its first occurrence).
const BASES: &[&str] = &[
    "",
    r#""dtype": "fp32", "dim": 8"#,
    r#""dtype": "int8", "n": 16, "m": 4, "k": 8"#,
    r#""op": "predict", "dtype": "fp16-t", "dim": 4"#,
    r#""op": "batch", "requests": [{"dtype":"fp32","dim":4},{"dtype":"int8","dim":8}]"#,
];

/// Raw tokens for lines that are mostly not JSON at all.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    r#""op""#,
    r#""batch""#,
    r#""requests""#,
    r#""dtype""#,
    r#""fp32""#,
    r#""dim""#,
    "8",
    "-0",
    "1e3",
    "0.",
    "tru",
    "nul",
    r#""\u0000""#,
    r#""\ud800""#,
    r#""unterminated"#,
    "\\",
    "\t",
];

fn field() -> impl Strategy<Value = String> {
    (0..FIELDS.len()).prop_flat_map(|i| {
        let (key, values) = FIELDS[i];
        prop::sample::select(values.to_vec()).prop_map(move |v| format!("\"{key}\": {v}"))
    })
}

fn object() -> impl Strategy<Value = String> {
    (
        prop::sample::select(BASES.to_vec()),
        prop::collection::vec(field(), 0..6),
    )
        .prop_map(|(base, fields)| {
            let fields: Vec<&str> = std::iter::once(base)
                .filter(|b| !b.is_empty())
                .chain(fields.iter().map(String::as_str))
                .collect();
            format!("{{{}}}", fields.join(", "))
        })
}

/// An object with one byte-level edit: truncated, a token spliced in, or
/// one byte dropped (every alphabet entry is ASCII, so any index is a
/// char boundary).
fn mutated_object() -> impl Strategy<Value = String> {
    (
        object(),
        0usize..64,
        prop::sample::select(TOKENS.to_vec()),
        0u8..3,
    )
        .prop_map(|(line, at, token, edit)| {
            let at = at.min(line.len());
            match edit {
                0 => line[..at].to_string(),
                1 => format!("{}{token}{}", &line[..at], &line[at..]),
                _ if at < line.len() => format!("{}{}", &line[..at], &line[at + 1..]),
                _ => line,
            }
        })
}

fn token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..16)
        .prop_map(|tokens| tokens.join(" "))
}

fn line() -> impl Strategy<Value = String> {
    prop_oneof![
        object(),
        mutated_object(),
        token_soup(),
        prop::sample::select(vec![String::new(), "   ".to_string()]),
    ]
}

fn one_device() -> Scheduler {
    Scheduler::with_workers(Fleet::builder().device(a100_pcie()).build(), 1)
}

/// The response's request id, if it is an object with a boolean `"ok"`.
fn well_formed(resp: &Json) -> Option<u64> {
    resp.get("ok").and_then(Json::as_bool)?;
    resp.get("request_id").and_then(Json::as_u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn answer_never_panics_and_answers_every_parsed_line_once(
        lines in prop::collection::vec(line(), 1..6)
    ) {
        let sched = one_device();
        let mut last_id = 0;
        for line in &lines {
            let Ok(v) = Json::parse(line) else { continue };
            let resp = answer(&v, &sched);
            let id = well_formed(&resp);
            prop_assert!(id.is_some(), "malformed answer to {line:?}: {resp}");
            let id = id.unwrap_or(0);
            prop_assert!(id > last_id, "request id {id} after {last_id} for {line:?}");
            last_id = id;
        }
    }

    #[test]
    fn serve_writes_one_line_per_unstreamed_request_line(
        lines in prop::collection::vec(line(), 1..6)
    ) {
        let sched = one_device();
        let mut last_id = 0;
        for line in &lines {
            let mut out = Vec::new();
            let served = serve(line.as_bytes(), &mut out, &sched);
            prop_assert!(served.is_ok(), "serve failed on {line:?}: {served:?}");
            let text = String::from_utf8(out).unwrap_or_default();
            let written: Vec<&str> = text.lines().collect();
            let streamed = Json::parse(line)
                .map(|v| v.get("stream") == Some(&Json::Bool(true)))
                .unwrap_or(false);
            if line.trim().is_empty() {
                prop_assert!(written.is_empty(), "blank line answered: {text}");
                continue;
            }
            if streamed {
                prop_assert!(!written.is_empty(), "streamed line unanswered: {line:?}");
            } else {
                prop_assert_eq!(written.len(), 1, "{:?} answered with {}", line, text);
            }
            // Every line a request produces, streamed rounds included,
            // carries that request's id.
            let ids: Vec<Option<u64>> = written
                .iter()
                .map(|out| Json::parse(out).ok().as_ref().and_then(well_formed))
                .collect();
            let id = ids[0].unwrap_or(0);
            prop_assert!(
                ids.iter().all(|&i| i == Some(id)),
                "malformed or mixed ids in {text}"
            );
            prop_assert!(id > last_id, "request id {id} after {last_id} for {line:?}");
            last_id = id;
        }
    }
}
