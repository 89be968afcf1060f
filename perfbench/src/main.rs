//! The repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nyt-churn|yago-front-door|nyt-distributed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from `--seed`; the program only sees the generated
//! corpora and queries. Every answer is checked against the benchmark's
//! own brute-force oracle. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` the run measures an untraced
//! phase and then traced phases, and the last line carries the per-layer
//! metrics, the traced and untraced end-to-end values and their
//! difference (the tracing overhead). The line before it is the full
//! report: environment, every end-to-end metric with its sample count,
//! and the per-layer metrics. See `README.md` for the workloads and the
//! layer → end-to-end mapping.

mod churn;
mod common;
mod distributed;
mod front_door;
mod oracle;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Layers, Phase, CLIENTS};
use stats::median;

/// Where runs keep their files, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

/// Last-level cache size of the host the workloads were sized on (not
/// read at run time: the benchmark reads nothing outside its checkout).
const SIZED_FOR_L3_BYTES: u64 = 105 << 20;

/// End-to-end metrics every workload reports, bounded in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("heap_bytes_per_ranking", "bytes"),
];

/// End-to-end metrics of the traced/untraced comparison (reported where
/// the workload has the operation; unbounded).
const COMPARED: [(&str, &str); 9] = [
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("topk_p50_ms", "ms"),
    ("topk_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics of the traced run, named after the modules they
/// measure (units by suffix, see [`unit_of`]).
const LAYER_METRICS: &[&str] = &[
    "executor.exec_us_p50",
    "executor.exec_us_p99",
    "executor.postings_per_query",
    "executor.candidates_per_query",
    "executor.distance_calls_per_query",
    "rankings.validation_abort_frac",
    "engine.query_us_p50",
    "engine.query_us_p99",
    "engine.self_us_p50",
    "engine.delta_len_mean",
    "planner.pick_frac.fv",
    "planner.pick_frac.fv_drop",
    "planner.pick_frac.listmerge",
    "planner.pick_frac.adaptsearch",
    "planner.pick_frac.coarse",
    "planner.pick_frac.coarse_drop",
    "planner.pick_frac.blocked_prune",
    "planner.pick_frac.blocked_prune_drop",
    "planner.predicted_over_actual_p50",
    "metricspace.topk_us_p50",
    "metricspace.topk_us_p99",
    "metricspace.tree_nodes_per_topk",
    "metricspace.distance_calls_per_topk",
    "snapshot.pin_us_p50",
    "snapshot.pin_us_p99",
    "snapshot.write_us_p50",
    "snapshot.write_us_p99",
    "snapshot.compactions",
    "snapshot.write_stall_ms_max",
    "snapshot.publish_lag_ops_max",
    "snapshot.abandoned_generations",
    "snapshot.recover_s",
    "wal.bytes_per_write",
    "wal.replay_ops_per_s",
    "persist.load_s",
    "persist.snapshot_bytes_per_ranking",
    "persist.stored_bytes_per_ranking",
    "serve.round_trip_us_p50",
    "serve.round_trip_us_p99",
    "serve.self_us_p50",
    "serve.shed",
    "serve.timeouts",
    "serve.generator_lag_ms_p99",
    "remote.threshold_us_p50",
    "remote.threshold_us_p99",
    "remote.topk_us_p50",
    "remote.topk_us_p99",
    "remote.router_wait_us_p50",
    "remote.fanout_per_query",
    "remote.topk_fanout_per_query",
    "remote.pruned_frac",
    "remote.hedges",
    "remote.worker_deaths",
    "remote.respawns",
    "remote.launch_s",
    "remote.self_us_p50",
    "shard.query_us_p50",
    "shard.query_us_p99",
    "epoch.pre_compaction.read_us_p50",
    "epoch.pre_compaction.reads",
    "epoch.post_compaction.read_us_p50",
    "epoch.post_compaction.reads",
    "epoch.rest.read_us_p50",
    "epoch.rest.reads",
    "epoch.post_compaction.pick_frac.fv",
    "epoch.post_compaction.pick_frac.fv_drop",
    "epoch.post_compaction.pick_frac.listmerge",
    "epoch.post_compaction.pick_frac.adaptsearch",
    "epoch.post_compaction.pick_frac.coarse",
    "epoch.post_compaction.pick_frac.coarse_drop",
    "epoch.post_compaction.pick_frac.blocked_prune",
    "epoch.post_compaction.pick_frac.blocked_prune_drop",
    "epoch.rest.pick_frac.fv",
    "epoch.rest.pick_frac.fv_drop",
    "epoch.rest.pick_frac.listmerge",
    "epoch.rest.pick_frac.adaptsearch",
    "epoch.rest.pick_frac.coarse",
    "epoch.rest.pick_frac.coarse_drop",
    "epoch.rest.pick_frac.blocked_prune",
    "epoch.rest.pick_frac.blocked_prune_drop",
    "trace.spans",
];

/// Unit of a per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    let last = name.rsplit('.').next().unwrap_or(name);
    if let Some((_, unit)) = COMPARED.iter().find(|(m, _)| *m == last) {
        return unit;
    }
    if name.contains("_us_") {
        "us"
    } else if name.ends_with("_ms_max") || name.contains("_ms_") {
        "ms"
    } else if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains("bytes") {
        "bytes"
    } else if name.contains("frac") || name.contains("over") {
        "ratio"
    } else {
        "count"
    }
}

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_registry() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&n| (n.to_string(), unit_of(n)))
        .collect();
    for group in ["untraced", "traced", "overhead"] {
        for (m, unit) in COMPARED {
            v.push((format!("{group}.{m}"), unit));
        }
    }
    v
}

/// What a workload hands back.
pub struct Outcome {
    /// Set-up repetitions, seconds.
    pub setup_s: Vec<f64>,
    pub heap_bytes_per_ranking: f64,
    pub stored_bytes_per_ranking: Option<f64>,
    /// The end-to-end phase (tracing off).
    pub untraced: Phase,
    /// The traced phase (`--trace 1` only).
    pub traced: Option<Phase>,
    /// Workload-specific per-layer metrics (`--trace 1` only).
    pub layers: Layers,
    pub env: Vec<(&'static str, String)>,
}

/// An end-to-end value with its unit and sample count.
struct Value {
    value: f64,
    unit: &'static str,
    samples: u64,
}

/// The end-to-end metrics a phase supports (operations it never ran
/// are absent).
fn end_to_end(phase: &Phase) -> BTreeMap<&'static str, Value> {
    let mut m = BTreeMap::new();
    let mut put = |name, unit, value: Option<f64>, samples| {
        if let Some(value) = value {
            m.insert(
                name,
                Value {
                    value,
                    unit,
                    samples,
                },
            );
        }
    };
    for (prefix, s) in [
        ("read", &phase.read),
        ("topk", &phase.topk),
        ("write", &phase.write),
    ] {
        let (p50, p99): (&'static str, &'static str) = match prefix {
            "read" => ("read_p50_ms", "read_p99_ms"),
            "topk" => ("topk_p50_ms", "topk_p99_ms"),
            _ => ("write_p50_ms", "write_p99_ms"),
        };
        put(p50, "ms", s.p50(), s.attempted());
        if prefix == "read" {
            put("read_p90_ms", "ms", s.p90(), s.attempted());
        }
        put(p99, "ms", s.p99(), s.attempted());
    }
    let attempted = phase.attempted();
    put(
        "throughput_ops_s",
        "1/s",
        Some(phase.throughput()),
        attempted,
    );
    put(
        "failed_frac",
        "ratio",
        Some(common::ratio(phase.failed(), attempted)),
        attempted,
    );
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => trace = Some(num(&value)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A digest of the sources the benchmark builds, standing in for the
/// commit id (the checkout it runs in carries no git metadata).
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "perfbench/src", "vendor"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn main() -> ExitCode {
    // A shard worker spawned by the distributed workload runs this
    // binary with its snapshot and socket in the environment.
    match ranksim_core::serve_from_env() {
        Ok(true) => return ExitCode::SUCCESS,
        Ok(false) => {}
        Err(e) => {
            eprintln!("shard worker: {e}");
            return ExitCode::FAILURE;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints the report; `Ok(false)` when an answer
/// was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let out_dir = root.join(OUT_DIR);
    let work = out_dir.join(format!("run-{}", std::process::id()));
    let tmp = out_dir.join("tmp");
    for d in [&work, &tmp] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    // Worker sockets go under the checkout; a relative path keeps them
    // short enough for a Unix socket address.
    std::env::set_var("TMPDIR", Path::new(OUT_DIR).join("tmp"));

    // Removes the run's files however the workload ends (a panic
    // included); reports and spans stay in `out_dir`.
    struct RemoveOnDrop<'a>(&'a Path);
    impl Drop for RemoveOnDrop<'_> {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.0);
        }
    }
    let guard = RemoveOnDrop(&work);

    let result = match args.workload.as_str() {
        "nyt-churn" => churn::run(args.seed, args.seconds, args.trace, &work),
        "yago-front-door" => front_door::run(args.seed, args.seconds, args.trace),
        "nyt-distributed" => distributed::run(args.seed, args.seconds, args.trace, &work),
        w => Err(format!(
            "unknown workload {w}; expected nyt-churn, yago-front-door or nyt-distributed"
        )),
    };
    drop(guard);
    let outcome = result?;
    report(args, &root, &out_dir, outcome)
}

fn report(args: &Args, root: &Path, out_dir: &Path, o: Outcome) -> Result<bool, String> {
    let wrong = o.untraced.wrong + o.traced.as_ref().map_or(0, |p| p.wrong);
    let correct = wrong == 0;
    let mut e2e = end_to_end(&o.untraced);
    e2e.insert(
        "setup_s",
        Value {
            value: median(&o.setup_s),
            unit: "s",
            samples: o.setup_s.len() as u64,
        },
    );
    e2e.insert(
        "heap_bytes_per_ranking",
        Value {
            value: o.heap_bytes_per_ranking,
            unit: "bytes",
            samples: 1,
        },
    );
    if let Some(v) = o.stored_bytes_per_ranking {
        e2e.insert(
            "stored_bytes_per_ranking",
            Value {
                value: v,
                unit: "bytes",
                samples: 1,
            },
        );
    }

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut phases = o.untraced.attempted();
    let mut failed = o.untraced.failed();
    if let Some(traced) = &o.traced {
        phases += traced.attempted();
        failed += traced.failed();
        let t = end_to_end(traced);
        for (m, _) in COMPARED {
            let u = e2e.get(m).map(|v| v.value);
            let tv = t.get(m).map(|v| v.value);
            layers.insert(format!("untraced.{m}"), u.unwrap_or(0.0));
            layers.insert(format!("traced.{m}"), tv.unwrap_or(0.0));
            layers.insert(
                format!("overhead.{m}"),
                match (u, tv) {
                    (Some(u), Some(t)) => t - u,
                    _ => 0.0,
                },
            );
        }
        layers.insert("trace.spans".into(), traced.spans.len() as f64);
        for (k, v) in &o.layers {
            layers.insert(k.clone(), *v);
        }
        if let Some(v) = o.stored_bytes_per_ranking {
            layers.insert("persist.stored_bytes_per_ranking".into(), v);
        }
        let spans_path = out_dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        trace::write_tsv(&spans_path, &traced.spans)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    }
    let registry = per_layer_registry();
    for (name, _) in &registry {
        layers.entry(name.clone()).or_insert(0.0);
    }
    if let Some(extra) = layers
        .keys()
        .find(|k| !registry.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "per-layer metric {extra} is missing from the registry"
        ));
    }

    // The full report.
    let mut env: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("client_threads", CLIENTS.to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("kernel", ranksim_rankings::Kernel::default().to_string()),
        ("posting_order", "Id".into()),
        ("algorithm", "Auto".into()),
        ("source_digest", source_digest(root)),
        ("sized_for_l3_bytes", SIZED_FOR_L3_BYTES.to_string()),
    ];
    env.extend(o.env.iter().cloned());
    let mut full = String::from("{\"report\":{\"env\":{");
    for (i, (k, v)) in env.iter().enumerate() {
        let _ = write!(
            full,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_str(v)
        );
    }
    full.push_str("},\"end_to_end\":{");
    for (i, (k, v)) in e2e.iter().enumerate() {
        let _ = write!(
            full,
            "{}{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(k),
            num(v.value),
            json_str(v.unit),
            v.samples
        );
    }
    full.push_str("},\"per_layer\":{");
    if o.traced.is_some() {
        for (i, (name, unit)) in registry.iter().enumerate() {
            let _ = write!(
                full,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(name),
                num(layers[name]),
                json_str(unit)
            );
        }
    }
    full.push_str("}}}");
    println!("{full}");
    let report_path = out_dir.join(format!(
        "report-{}-{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    std::fs::write(&report_path, format!("{full}\n"))
        .map_err(|e| format!("{}: {e}", report_path.display()))?;

    // The result line.
    let mut metrics = String::new();
    let mut put = |name: &str, value: f64, unit: &str| -> Result<(), String> {
        if !value.is_finite() {
            return Err(format!(
                "{name} is unbounded: more than the percentile's share of operations failed"
            ));
        }
        let _ = write!(
            metrics,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if metrics.is_empty() { "" } else { "," },
            json_str(name),
            num(value),
            json_str(unit)
        );
        Ok(())
    };
    if args.trace {
        for (name, unit) in &registry {
            put(name, layers[name], unit)?;
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = e2e.get(name).ok_or_else(|| {
                format!("{name} could not be measured (too few samples for its percentile)")
            })?;
            put(name, v.value, unit)?;
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        phases.max(1)
    );
    if !correct {
        eprintln!("perfbench: {wrong} answers disagreed with the oracle");
    }
    Ok(correct)
}

/// A JSON number (non-finite values never reach the result line).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics the binary emits are exactly the ones the benchmark
    /// definition declares, with the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("end of section")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_registry()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn failures_raise_failed_frac_and_sit_above_every_success() {
        let mut p = Phase::default();
        for v in 1..=989 {
            p.read.push(v as f64);
        }
        for _ in 0..11 {
            p.read.fail();
        }
        p.elapsed_s = 1.0;
        let m = end_to_end(&p);
        assert_eq!(m["failed_frac"].value, 11.0 / 1000.0);
        assert_eq!(m["read_p99_ms"].value, f64::INFINITY);
        assert_eq!(m["read_p99_ms"].samples, 1000);
        assert_eq!(m["throughput_ops_s"].value, 989.0);
        assert!(!m.contains_key("topk_p50_ms"));
    }

    #[test]
    fn units_follow_names() {
        assert_eq!(unit_of("executor.exec_us_p50"), "us");
        assert_eq!(unit_of("snapshot.write_stall_ms_max"), "ms");
        assert_eq!(unit_of("serve.generator_lag_ms_p99"), "ms");
        assert_eq!(unit_of("persist.load_s"), "s");
        assert_eq!(unit_of("wal.replay_ops_per_s"), "1/s");
        assert_eq!(unit_of("wal.bytes_per_write"), "bytes");
        assert_eq!(unit_of("remote.pruned_frac"), "ratio");
        assert_eq!(unit_of("overhead.read_p99_ms"), "ms");
        assert_eq!(unit_of("traced.failed_frac"), "ratio");
        assert_eq!(unit_of("serve.shed"), "count");
    }
}
