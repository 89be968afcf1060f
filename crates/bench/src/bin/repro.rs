//! `repro` — regenerates every table and figure of the EDBT 2015
//! evaluation as text reports.
//!
//! ```sh
//! cargo run -p ranksim-bench --release --bin repro -- all
//! cargo run -p ranksim-bench --release --bin repro -- fig8
//! RANKSIM_NYT_N=100000 cargo run -p ranksim-bench --release --bin repro -- fig7
//! # paper scale (NYT 1M rankings) through the sharded engine:
//! cargo run -p ranksim-bench --release --bin repro -- --scale paper shard
//! # cost-model planner vs the per-configuration oracle, restricted set:
//! cargo run -p ranksim-bench --release --bin repro -- --algorithms fv,listmerge,coarse planner
//! # A/B the position-compare kernels (results are bit-identical):
//! cargo run -p ranksim-bench --release --bin repro -- --kernel scalar fig8
//! # the hot-path kernel guard (CI: RANKSIM_HOTPATH_SPEEDUP_MIN=1.3):
//! cargo run -p ranksim-bench --release --bin repro -- hotpath
//! ```
//!
//! `--scale small|default|paper` picks the corpus-size baseline;
//! `--algorithms a,b,c` feeds the planner's candidate set (paper names or
//! lax spellings: `fv`, `F&V+Drop`, `blocked_prune`, …); `--kernel
//! scalar|simd` selects the distance kernel the experiment engines run
//! (default `simd`); `RANKSIM_*` environment variables still override
//! individual knobs.

use ranksim_bench::*;
use ranksim_core::engine::Algorithm;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The shard-worker body runs before any config parsing or banner:
    // a worker process is a service spawned by `repro distributed`'s
    // router (or any external RemoteShardedEngine), not an experiment.
    if args.first().map(String::as_str) == Some("shard-worker") {
        match ranksim_core::serve_from_env() {
            Ok(true) => return,
            Ok(false) => {
                eprintln!(
                    "shard-worker is spawned by the distributed router and needs \
                     RANKSIM_REMOTE_SNAPSHOT / RANKSIM_REMOTE_SOCKET set"
                );
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("shard-worker failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut base = take_flag(&mut args, "--scale", "small | default | paper", |name| {
        ExpConfig::named_scale(name)
            .ok_or_else(|| format!("unknown scale '{name}'; expected small | default | paper"))
    })
    .unwrap_or_else(ExpConfig::default_scale);
    if let Some(kernel) = take_flag(&mut args, "--kernel", "scalar | simd", parse_kernel_flag) {
        base.kernel = kernel;
    }
    let algorithms = take_flag(
        &mut args,
        "--algorithms",
        "a comma-separated list, e.g. fv,listmerge,coarse",
        parse_algorithms_flag,
    );
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    if algorithms.is_some() && what != "planner" {
        eprintln!("--algorithms feeds the planner's candidate set and only applies to the 'planner' experiment (got '{what}')");
        std::process::exit(2);
    }
    let cfg = base.with_env_overrides();
    eprintln!(
        "# config: nyt_n={} yago_n={} queries={} kernel={} (override via RANKSIM_NYT_N / RANKSIM_YAGO_N / RANKSIM_QUERIES / RANKSIM_KERNEL)",
        cfg.nyt_n, cfg.yago_n, cfg.queries, cfg.kernel
    );
    let t0 = std::time::Instant::now();
    match what {
        "verify" => run_verify(&cfg),
        "fig3" => run_fig3(&cfg),
        "fig5" => run_fig56(&cfg, true),
        "fig6" => run_fig56(&cfg, false),
        "fig7" => run_fig7(&cfg),
        "table5" => run_table5(&cfg),
        "fig8" => run_fig89(&cfg, Family::Nyt),
        "fig9" => run_fig89(&cfg, Family::Yago),
        "fig10" => run_fig10(&cfg),
        "table6" => run_table6(&cfg),
        "ablation" => run_ablation(&cfg),
        "shard" => run_shard(&cfg, t0),
        "planner" => run_planner(&cfg, algorithms),
        "churn" => run_churn_cmd(&cfg, t0),
        "serve" => run_serve_cmd(&cfg, t0),
        "recovery" => run_recovery_cmd(&cfg),
        "persist" => run_persist_cmd(&cfg, t0),
        "distributed" => run_distributed_cmd(&cfg, t0),
        "hotpath" => run_hotpath_cmd(&cfg),
        "all" => {
            run_verify(&cfg);
            run_fig3(&cfg);
            run_fig56(&cfg, true);
            run_fig56(&cfg, false);
            run_fig7(&cfg);
            run_table5(&cfg);
            run_fig89(&cfg, Family::Nyt);
            run_fig89(&cfg, Family::Yago);
            run_fig10(&cfg);
            run_table6(&cfg);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; expected one of: verify fig3 fig5 fig6 fig7 table5 fig8 fig9 fig10 table6 ablation shard planner churn serve recovery persist distributed hotpath all"
            );
            std::process::exit(2);
        }
    }
    eprintln!("# total wall time: {:.1?}", t0.elapsed());
}

/// Removes `flag value` from `args` and parses the value; a missing or
/// unparsable value exits with code 2.
fn take_flag<T>(
    args: &mut Vec<String>,
    flag: &str,
    expected: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(pos + 1) else {
        eprintln!("{flag} needs a value: {expected}");
        std::process::exit(2);
    };
    let parsed = parse(value).unwrap_or_else(|e| {
        eprintln!("{flag}: {e}");
        std::process::exit(2);
    });
    args.drain(pos..=pos + 1);
    Some(parsed)
}

/// The sharded paper-scale experiment: streams the NYT-family corpus
/// into S per-shard engines, runs a work-stealing batch, prints the
/// per-shard memory/balance report and writes `BENCH_shard.json`
/// (path override: `RANKSIM_SHARD_JSON`). Optional self-enforced
/// budgets make it a CI guard: `RANKSIM_SHARD_MEM_BUDGET_MB` fails the
/// run when the total index footprint exceeds the budget, and
/// `RANKSIM_SHARD_TIME_BUDGET_S` bounds the end-to-end wall clock.
fn run_shard(cfg: &ExpConfig, t0: std::time::Instant) {
    let rc = ShardRunConfig::from_env();
    println!(
        "== sharded engine: NYT-family n={}, S={}, {} threads, {} at θ={} ==",
        cfg.nyt_n,
        rc.shards,
        if rc.threads == 0 {
            "all".to_string()
        } else {
            rc.threads.to_string()
        },
        rc.algorithm,
        rc.theta
    );
    let report = run_sharded(cfg, Family::Nyt, rc);
    println!(
        "generate+route: {:.2}s   build: {:.2}s   batch ({} queries): {:.2}s ({:.1} ms/1000q)",
        report.generate_s,
        report.build_s,
        report.queries,
        report.query_s,
        report.ms_per_1000q()
    );
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "shard", "rankings", "heap bytes", "heap MB"
    );
    for (s, (&size, &bytes)) in report
        .shard_sizes
        .iter()
        .zip(&report.shard_heap_bytes)
        .enumerate()
    {
        println!(
            "{s:>6} {size:>12} {bytes:>14} {:>12.1}",
            bytes as f64 / (1024.0 * 1024.0)
        );
    }
    let total_mb = report.total_heap_bytes() as f64 / (1024.0 * 1024.0);
    println!(
        "total: {total_mb:.1} MB across {} shards; worker shares: {:?}; {} results",
        report.shard_sizes.len(),
        report.worker_queries,
        report.results
    );

    write_report("shard", "RANKSIM_SHARD_JSON", &report.to_json());
    guard(
        "RANKSIM_SHARD_MEM_BUDGET_MB",
        total_mb,
        Bound::Ceiling,
        |m, l| format!("memory budget ok: {m:.1} MB <= {l:.1} MB"),
    );
    time_guard("RANKSIM_SHARD_TIME_BUDGET_S", t0);
}

/// The end-to-end wall-clock budget every systems experiment offers.
fn time_guard(var: &str, t0: std::time::Instant) {
    guard(var, t0.elapsed().as_secs_f64(), Bound::Ceiling, |m, l| {
        format!("time budget ok: {m:.1}s <= {l:.1}s")
    });
}

/// The live-corpus churn experiment: a 90/10 read/write mix against the
/// mutable engine, reporting read latency and memory before the mix,
/// during it, on the tombstone-laden engine, and after `Engine::compact`
/// — written to `BENCH_churn.json` (path override: `RANKSIM_CHURN_JSON`).
/// `RANKSIM_CHURN_TIME_BUDGET_S` turns the run into a CI guard bounding
/// the end-to-end wall clock.
fn run_churn_cmd(cfg: &ExpConfig, t0: std::time::Instant) {
    let rc = ChurnRunConfig::from_env(cfg);
    println!(
        "== live-corpus churn: NYT-family n={}, {} ops at {}% writes, {} at θ={} ==",
        cfg.nyt_n,
        rc.ops,
        (rc.write_fraction * 100.0).round(),
        rc.algorithm,
        rc.theta
    );
    let report = run_churn(cfg, rc);
    println!(
        "build: {:.2}s   mixed phase: {} reads / {} inserts / {} removes",
        report.build_s, report.reads, report.inserts, report.removes
    );
    println!("{:>22} {:>16} {:>12}", "phase", "read ms/1000q", "heap MB");
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    println!(
        "{:>22} {:>16.1} {:>12.1}",
        "pristine",
        report.baseline_ms_per_1000q,
        mb(report.heap_before_bytes)
    );
    println!(
        "{:>22} {:>16.1} {:>12}",
        "during churn", report.churn_read_ms_per_1000q, "-"
    );
    println!(
        "{:>22} {:>16.1} {:>12.1}",
        "post-churn (tombstoned)",
        report.post_churn_ms_per_1000q,
        mb(report.heap_after_churn_bytes)
    );
    println!(
        "{:>22} {:>16.1} {:>12.1}",
        "post-compaction",
        report.post_compact_ms_per_1000q,
        mb(report.heap_after_compact_bytes)
    );
    println!(
        "writes: {:.1} µs/op; compaction: {:.2}s folded {} delta rankings + {} tombstones; live: {}",
        report.churn_write_us_per_op,
        report.compact_s,
        report.delta_len,
        report.tombstones,
        report.live_len
    );

    write_report("churn", "RANKSIM_CHURN_JSON", &report.to_json());
    time_guard("RANKSIM_CHURN_TIME_BUDGET_S", t0);
}

/// The concurrent serving experiment: closed-loop clients drive a
/// 90/10 read/write mix against the RCU [`ranksim_core::SnapshotEngine`]
/// through the admission-controlled batching dispatcher, with a full
/// compaction forced mid-run — written to `BENCH_serve.json` (path
/// override: `RANKSIM_SERVE_JSON`). Self-enforced CI budgets:
/// `RANKSIM_SERVE_P99_BUDGET_MS` fails the run when the p99 read
/// latency (overall or during the forced compaction) exceeds the
/// budget, and `RANKSIM_SERVE_TIME_BUDGET_S` bounds the wall clock.
fn run_serve_cmd(cfg: &ExpConfig, t0: std::time::Instant) {
    let rc = serve::ServeRunConfig::from_env();
    println!(
        "== snapshot serving: NYT-family n={}, {} clients / {} batch threads, {:.0}% writes, {} at θ={} for {:.0}s ==",
        cfg.nyt_n,
        rc.clients,
        rc.batch_threads,
        rc.write_fraction * 100.0,
        rc.algorithm,
        rc.theta,
        rc.duration_s
    );
    let report = serve::run_serve(cfg, rc);
    println!(
        "throughput: {:.0} reads/s + {:.0} writes/s ({} reads, {} writes, {} shed, {} remove misses)",
        report.read_qps, report.write_qps, report.reads, report.writes, report.shed, report.remove_misses
    );
    println!(
        "{:>24} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "latency (µs)", "count", "p50", "p99", "p999", "max"
    );
    let row = |name: &str, l: &serve::LatencyUs| {
        println!(
            "{:>24} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            name, l.count, l.p50, l.p99, l.p999, l.max
        );
    };
    row("read", &report.read_latency);
    row("read (compacting)", &report.read_latency_during_compaction);
    row("write", &report.write_latency);
    println!(
        "forced compaction: {:.2}s to full publication; {} generations abandoned to stragglers; {} batch failures; live: {}",
        report.compact_s, report.abandoned_generations, report.batch_failures, report.final_live_len
    );

    write_report("serve", "RANKSIM_SERVE_JSON", &report.to_json());
    let worst_p99_ms = report
        .read_latency
        .p99
        .max(report.read_latency_during_compaction.p99)
        / 1000.0;
    guard(
        "RANKSIM_SERVE_P99_BUDGET_MS",
        worst_p99_ms,
        Bound::Ceiling,
        |m, l| format!("p99 budget ok: {m:.2} ms <= {l:.2} ms (incl. during compaction)"),
    );
    time_guard("RANKSIM_SERVE_TIME_BUDGET_S", t0);
}

/// The durability experiment: the identical write sequence through the
/// WAL-backed [`ranksim_core::SnapshotEngine`] under every sync policy
/// (µs per acknowledged write), then cold
/// [`ranksim_core::SnapshotEngine::recover`] timed against logs of
/// increasing length — written to `BENCH_recovery.json` (path override:
/// `RANKSIM_RECOVERY_JSON`). `RANKSIM_RECOVERY_TIME_BUDGET_S` turns the
/// run into a CI guard that fails when the *slowest single recovery*
/// exceeds the budget.
fn run_recovery_cmd(cfg: &ExpConfig) {
    let rc = recovery::RecoveryRunConfig::from_env(cfg);
    println!(
        "== durability: NYT-family n={}, {} writes; group commit = {} ops / {} ms ==",
        cfg.nyt_n, rc.ops, rc.group_max_ops, rc.group_max_delay_ms
    );
    let report = recovery::run_recovery(cfg, rc);
    println!(
        "{:>18} {:>14} {:>14}",
        "sync policy", "µs/write", "WAL bytes"
    );
    for c in &report.policy_costs {
        println!("{:>18} {:>14.2} {:>14}", c.arm, c.us_per_op, c.wal_bytes);
    }
    println!(
        "{:>12} {:>14} {:>12} {:>14}",
        "log records", "log bytes", "recover s", "records/s"
    );
    for p in &report.points {
        println!(
            "{:>12} {:>14} {:>12.4} {:>14.0}",
            p.ops, p.wal_bytes, p.recover_s, p.ops_per_s
        );
    }

    write_report("recovery", "RANKSIM_RECOVERY_JSON", &report.to_json());
    guard(
        "RANKSIM_RECOVERY_TIME_BUDGET_S",
        report.worst_recover_s(),
        Bound::Ceiling,
        |m, l| format!("recovery time budget ok: {m:.2}s <= {l:.2}s"),
    );
}

/// The distributed-serving experiment: snapshot-spawned worker
/// processes behind the exact fan-out/merge router, measuring pruned
/// fan-out, protocol overhead vs the in-process engine, and
/// kill-a-worker recovery — written to `BENCH_distributed.json`, with
/// a self-enforced `RANKSIM_DIST_TIME_BUDGET_S` wall-clock budget.
fn run_distributed_cmd(cfg: &ExpConfig, t0: std::time::Instant) {
    let rc = distributed::DistRunConfig::from_env();
    println!(
        "== distributed serving: NYT-family n={}, S={} worker processes, {} at θ={} ==",
        cfg.nyt_n, rc.shards, rc.algorithm, rc.theta
    );
    let exe = std::env::current_exe().expect("own binary path");
    let worker = ranksim_core::WorkerSpec::new(exe).arg("shard-worker");
    let report = distributed::run_distributed(cfg, rc, worker);
    println!(
        "build: {:.2}s   save: {:.2}s   launch {} workers: {:.2}s",
        report.build_s, report.save_s, report.workers, report.launch_s
    );
    println!(
        "throughput ({} queries): in-process {:.0} q/s, distributed {:.0} q/s ({:.0}% of in-process)",
        report.queries,
        report.inproc_qps,
        report.dist_qps,
        report.relative_throughput() * 100.0
    );
    println!(
        "fan-out: broadcast {} requests, sent {}, pruned {} ({:.1}% reduction)",
        report.broadcast_fanout(),
        report.stats.fanout_sent,
        report.stats.fanout_pruned,
        report.fanout_reduction() * 100.0
    );
    if report.config.kill_worker {
        println!(
            "failover: SIGKILLed worker detected + respawned + reanswered in {:.1} ms",
            report.kill_recovery_ms
        );
    }

    write_report("distributed", "RANKSIM_DIST_JSON", &report.to_json());
    time_guard("RANKSIM_DIST_TIME_BUDGET_S", t0);
}

/// The persistence experiment: full index build timed against re-opening
/// the same engine from its `RSSN` snapshot (checksum-verified and
/// trusting), with every answer self-checked bit-identical — written to
/// `BENCH_persist.json` (path override: `RANKSIM_PERSIST_JSON`).
/// `RANKSIM_PERSIST_TIME_BUDGET_S` turns the run into a CI guard
/// bounding the end-to-end wall clock; at `n ≥ 200k` the run itself
/// asserts the verified open is ≥10× faster than the rebuild.
fn run_persist_cmd(cfg: &ExpConfig, t0: std::time::Instant) {
    let rc = persist::PersistRunConfig::from_env(cfg);
    println!(
        "== persistence: NYT-family n={}, equivalence over {} queries ==",
        cfg.nyt_n, rc.check_queries
    );
    let report = persist::run_persist(cfg, rc);
    let mb = report.snapshot_bytes as f64 / (1024.0 * 1024.0);
    println!(
        "build: {:.2}s   save: {:.2}s ({mb:.1} MB, {:.0} MB/s)",
        report.build_s, report.save_s, report.save_mb_per_s
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10}",
        "open mode", "open s", "MB/s", "speedup"
    );
    for (name, c) in [("verify", &report.verify), ("trust", &report.trust)] {
        println!(
            "{:>14} {:>10.3} {:>10.0} {:>9.1}x",
            name, c.open_s, c.mb_per_s, c.speedup
        );
    }
    println!(
        "answers: {} (query, θ, algorithm) cells bit-identical across both opens",
        report.checked_cells
    );

    write_report("persist", "RANKSIM_PERSIST_JSON", &report.to_json());
    time_guard("RANKSIM_PERSIST_TIME_BUDGET_S", t0);
}

/// The planner sweep: `Algorithm::Auto` (cost model + online
/// recalibration) against every fixed candidate and the per-cell oracle
/// across (corpus size × θ), printing per-algorithm win rates and the
/// planner's regret, and writing `BENCH_planner.json` (path override:
/// `RANKSIM_PLANNER_JSON`). `RANKSIM_PLANNER_REGRET_BUDGET` (a fraction,
/// e.g. `0.15`) turns the run into a CI guard that fails when the
/// sweep-wide regret vs oracle-best exceeds the budget.
fn run_planner(cfg: &ExpConfig, algorithms: Option<Vec<Algorithm>>) {
    let rc = PlannerRunConfig::from_env(cfg, algorithms);
    println!(
        "== planner sweep: NYT-family, k=10, {} candidates, sizes {:?}, θ {:?} ==",
        rc.candidates.len(),
        rc.sizes,
        rc.thetas
    );
    let report = run_planner_sweep(cfg, &rc);
    println!(
        "{:>8} {:>6} {:>12} {:>20} {:>12} {:>8}  picks",
        "n", "θ", "auto ms", "oracle", "oracle ms", "regret"
    );
    for r in &report.rows {
        let picks: Vec<String> = r
            .picks
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(a, n)| format!("{a}:{n}"))
            .collect();
        println!(
            "{:>8} {:>6.2} {:>12.2} {:>20} {:>12.2} {:>7.1}%  {}",
            r.n,
            r.theta,
            r.auto_ms,
            r.oracle.name(),
            r.oracle_ms,
            r.regret() * 100.0,
            picks.join(" ")
        );
    }
    let overall = report.overall_regret();
    println!("win rates:");
    for (alg, w) in report.win_rate() {
        println!("  {:<20} {:>6.1}%", alg.name(), w * 100.0);
    }
    println!("overall regret vs oracle-best: {:.1}%", overall * 100.0);

    write_report("planner", "RANKSIM_PLANNER_JSON", &report.to_json());
    guard(
        "RANKSIM_PLANNER_REGRET_BUDGET",
        overall,
        Bound::Ceiling,
        |m, l| format!("regret budget ok: {:.1}% <= {:.1}%", m * 100.0, l * 100.0),
    );
}

/// The hot-path kernel guard: the scalar and SIMD kernels on F&V and
/// ListMerge, each verified against the brute-force scan before
/// interleaved timed rounds (`RANKSIM_HOTPATH_ROUNDS`, default 5) —
/// written to `BENCH_hotpath.json` (path override:
/// `RANKSIM_HOTPATH_JSON`). `RANKSIM_HOTPATH_SPEEDUP_MIN` fails the run
/// unless the better SIMD/scalar speedup reaches the floor.
fn run_hotpath_cmd(cfg: &ExpConfig) {
    let rounds = env_or("RANKSIM_HOTPATH_ROUNDS", 5usize).max(1);
    println!(
        "== hot path: NYT-like n={}, k=10, θ=0.2, {} queries, {rounds} interleaved rounds ==",
        cfg.nyt_n, cfg.queries
    );
    let report = hotpath::run_hotpath(cfg, rounds);
    println!(
        "verified: {} (kernel, algorithm, query) answers match linear_scan",
        report.verified
    );
    println!(
        "{:<10} {:>14} {:>14} {:>8} {:>8}",
        "ms/1000q", "scalar", "simd", "speedup", "abort"
    );
    for r in &report.rows {
        println!(
            "{:<10} {:>14.2} {:>14.2} {:>7.2}x {:>7.1}%",
            r.name,
            r.scalar_ms,
            r.simd_ms,
            r.simd_speedup(),
            100.0 * r.abort_rate
        );
    }
    write_report("hotpath", "RANKSIM_HOTPATH_JSON", &report.to_json());
    guard(
        "RANKSIM_HOTPATH_SPEEDUP_MIN",
        report.best_speedup(),
        Bound::Floor,
        |m, l| format!("speedup floor satisfied: {m:.3}x >= {l:.3}x"),
    );
}

fn run_verify(cfg: &ExpConfig) {
    println!("== verify: all algorithms agree before anything is timed ==");
    let thetas = [0.0, 0.1, 0.2, 0.3];
    for family in [Family::Nyt, Family::Yago] {
        let mut small = *cfg;
        small.nyt_n = small.nyt_n.min(5000);
        small.yago_n = small.yago_n.min(5000);
        let setup = ComparisonSetup::build(&small, family, 10, &thetas);
        let checked = verify(&setup, &thetas);
        println!(
            "{:<5}: {checked} (query, θ) pairs consistent across all 8 algorithms",
            family.name()
        );
    }
    println!();
}

fn run_fig3(cfg: &ExpConfig) {
    println!("== Figure 3: modeled cost for varying θC (k=10, θ=0.2) ==");
    for family in [Family::Nyt, Family::Yago] {
        let bench = Bench::load(cfg, family, 10);
        let (rows, opt) = fig3(&bench, 0.2);
        println!("-- {} rankings, k=10, θ=0.2 --", family.name());
        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            "θC", "filter", "validate", "overall(+)"
        );
        for r in rows {
            println!(
                "{:>6.2} {:>14.2} {:>14.2} {:>14.2}",
                r.theta_c,
                r.filter_ms,
                r.validate_ms,
                r.filter_ms + r.validate_ms
            );
        }
        println!("model-optimal θC = {opt:.2}\n");
    }
}

fn run_fig56(cfg: &ExpConfig, fig5: bool) {
    let (title, structures): (&str, Vec<Structure>) = if fig5 {
        (
            "Figure 5: M-tree vs BK-tree (NYT)",
            vec![Structure::BkTree, Structure::MTree, Structure::VpTree],
        )
    } else {
        (
            "Figure 6: BK-tree vs inverted index / F&V (NYT)",
            vec![Structure::BkTree, Structure::Fv],
        )
    };
    println!("== {title} ==");
    println!("-- (a) θ=0.1, varying k — seconds per 1000 queries --");
    let ks = [5usize, 10, 15, 20, 25];
    let by_k = sweep_k(cfg, Family::Nyt, &structures, &ks, 0.1);
    print!("{:>10}", "k");
    for (s, _) in &by_k {
        print!(" {:>12}", s.name());
    }
    println!();
    for (i, &k) in ks.iter().enumerate() {
        print!("{k:>10}");
        for (_, pts) in &by_k {
            print!(" {:>12.3}", pts[i].seconds);
        }
        println!();
    }
    println!("-- (b) k=10, varying θ — seconds per 1000 queries --");
    let thetas = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3];
    let by_t = sweep_theta(cfg, Family::Nyt, &structures, 10, &thetas);
    print!("{:>10}", "θ");
    for (s, _) in &by_t {
        print!(" {:>12}", s.name());
    }
    println!();
    for (i, &t) in thetas.iter().enumerate() {
        print!("{t:>10.2}");
        for (_, pts) in &by_t {
            print!(" {:>12.3}", pts[i].seconds);
        }
        println!();
    }
    println!();
}

const THETA_C_GRID: [f64; 13] = [
    0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8,
];

fn run_fig7(cfg: &ExpConfig) {
    println!("== Figure 7: measured filter/validation time vs θC (k=10, θ=0.2) ==");
    for family in [Family::Nyt, Family::Yago] {
        let bench = Bench::load(cfg, family, 10);
        let rows = fig7_sweep(&bench, 0.2, &THETA_C_GRID);
        let (_, model_opt) = fig3(&bench, 0.2);
        println!("-- {} — ms per 1000 queries --", family.name());
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12}",
            "θC", "filter", "validation", "overall", "partitions"
        );
        for r in &rows {
            println!(
                "{:>6.2} {:>12.2} {:>12.2} {:>12.2} {:>12}",
                r.theta_c,
                r.filter_ms,
                r.validate_ms,
                r.filter_ms + r.validate_ms,
                r.partitions
            );
        }
        let nearest = rows
            .iter()
            .min_by(|a, b| {
                (a.theta_c - model_opt)
                    .abs()
                    .total_cmp(&(b.theta_c - model_opt).abs())
            })
            .unwrap();
        println!(
            "model-chosen θC = {model_opt:.2} -> measured {:.2} ms (marker ▫ in the paper's plot)\n",
            nearest.filter_ms + nearest.validate_ms
        );
    }
}

fn run_table5(cfg: &ExpConfig) {
    println!("== Table 5: measured-best vs model-chosen θC (k=10) — ms per 1000 queries ==");
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "data", "θ", "best θC", "model θC", "best ms", "model ms", "gap ms"
    );
    for family in [Family::Nyt, Family::Yago] {
        let bench = Bench::load(cfg, family, 10);
        for row in table5(&bench, &[0.1, 0.2, 0.3], &THETA_C_GRID) {
            println!(
                "{:>6} {:>6.1} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>8.2}",
                family.name(),
                row.theta,
                row.best_theta_c,
                row.model_theta_c,
                row.best_ms,
                row.model_ms,
                row.gap_ms()
            );
        }
    }
    println!();
}

fn run_fig89(cfg: &ExpConfig, family: Family) {
    let fig = if family == Family::Nyt { 8 } else { 9 };
    println!(
        "== Figure {fig}: algorithm comparison ({}) — ms per 1000 queries ==",
        family.name()
    );
    let thetas = [0.0, 0.1, 0.2, 0.3];
    for k in [10usize, 20] {
        let setup = ComparisonSetup::build(cfg, family, k, &thetas);
        println!("-- k={k}; Coarse θC=0.5, Coarse+Drop θC=0.06 --");
        print!("{:<20}", "algorithm");
        for t in thetas {
            print!(" {:>10}", format!("θ={t}"));
        }
        println!();
        for tech in Technique::ALL {
            print!("{:<20}", tech.name());
            for &t in &thetas {
                let cell = setup.measure(tech, t);
                print!(" {:>10.1}", cell.time_ms);
            }
            println!();
        }
    }
    println!();
}

fn run_fig10(cfg: &ExpConfig) {
    println!("== Figure 10: distance function calls (thousands, whole workload scaled to 1000 queries) ==");
    let thetas = [0.0, 0.1, 0.2, 0.3];
    let dfc_techs = [
        Technique::Engine(ranksim_core::engine::Algorithm::Fv),
        Technique::Engine(ranksim_core::engine::Algorithm::FvDrop),
        Technique::Engine(ranksim_core::engine::Algorithm::BlockedPruneDrop),
        Technique::Engine(ranksim_core::engine::Algorithm::Coarse),
        Technique::Engine(ranksim_core::engine::Algorithm::CoarseDrop),
        Technique::MinimalFv,
    ];
    for family in [Family::Nyt, Family::Yago] {
        for k in [10usize, 20] {
            let setup = ComparisonSetup::build(cfg, family, k, &thetas);
            let scale = 1000.0 / cfg.queries as f64;
            println!("-- {}, k={k} --", family.name());
            print!("{:<20}", "algorithm");
            for t in thetas {
                print!(" {:>10}", format!("θ={t}"));
            }
            println!();
            for tech in dfc_techs {
                print!("{:<20}", tech.name());
                for &t in &thetas {
                    let cell = setup.measure(tech, t);
                    print!(" {:>10.1}", cell.dfc as f64 * scale / 1000.0);
                }
                println!();
            }
        }
    }
    println!();
}

fn run_table6(cfg: &ExpConfig) {
    println!("== Table 6: index size and construction time (k=10) ==");
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>12}",
        "index", "NYT MB", "Yago MB", "NYT sec", "Yago sec"
    );
    let nyt = Bench::load(cfg, Family::Nyt, 10);
    let yago = Bench::load(cfg, Family::Yago, 10);
    let rows_nyt = table6(&nyt);
    let rows_yago = table6(&yago);
    for (a, b) in rows_nyt.iter().zip(&rows_yago) {
        println!(
            "{:<28} {:>10.1} {:>10.1} {:>12.2} {:>12.2}",
            a.index, a.size_mb, b.size_mb, a.construction_s, b.construction_s
        );
    }
    println!();
}

fn run_ablation(cfg: &ExpConfig) {
    println!("== Ablations: design choices behind the paper's heuristics (k=10, θ=0.2) ==");
    for family in [Family::Nyt, Family::Yago] {
        let bench = Bench::load(cfg, family, 10);
        println!("-- {} — Lemma 2 list-selection policy --", family.name());
        println!("{:<36} {:>12} {:>12}", "arm", "ms/1000q", "DFC");
        for row in ablation_drop_policy(&bench, 0.2) {
            println!("{:<36} {:>12.1} {:>12}", row.arm, row.time_ms, row.dfc);
        }
        println!(
            "-- {} — coarse-index partitioning scheme (θC=0.3) --",
            family.name()
        );
        println!(
            "{:<64} {:>12} {:>12} {:>12}",
            "arm", "ms/1000q", "DFC", "build ms"
        );
        for row in ablation_partitioner(&bench, 0.2, 0.3) {
            println!(
                "{:<64} {:>12.1} {:>12} {:>12.1}",
                row.arm,
                row.time_ms,
                row.dfc,
                row.build_ms.unwrap_or(f64::NAN)
            );
        }
    }
    println!();
}
