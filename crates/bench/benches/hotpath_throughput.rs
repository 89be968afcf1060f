//! `hotpath_throughput` — measures the CSR-postings + reusable-scratch
//! hot path against the pre-refactor baseline and emits
//! `BENCH_hotpath.json`.
//!
//! The baseline re-implements, verbatim, the original query hot path this
//! repository shipped before the CSR refactor: per-item `FxHashMap<ItemId,
//! Vec<_>>` postings, a hashmap-backed `PositionMap` rebuilt per query,
//! and a fresh `FxHashSet` candidate set / cursor vectors per query. The
//! CSR arm runs the same workload through `Engine::query_into` with one
//! reused `QueryScratch` and result buffer. Both arms are verified to
//! return identical result sets before anything is timed.
//!
//! On top of the legacy-vs-CSR comparison, a **kernel grid** times the
//! same workload through two engine configurations per algorithm:
//!
//! | arm | distance kernel |
//! |---|---|
//! | `scalar` | [`Kernel::Scalar`] — the oracle |
//! | `simd` | [`Kernel::Simd`] |
//!
//! Both arms are verified result-set-identical before timing, and the
//! SIMD arm's validation abort rate lands in the artifact. When
//! `RANKSIM_HOTPATH_SPEEDUP_MIN` is set, the run fails (exit 1) unless
//! the SIMD arm beats the scalar oracle by that factor on F&V or
//! ListMerge — the CI smoke step pins it.
//!
//! Workload: NYT-like corpus (default n = 50 000, k = 10, θ = 0.2) —
//! override with `RANKSIM_NYT_N` / `RANKSIM_QUERIES`; the CI smoke step
//! runs the `ExpConfig::small()` scale through those variables. Reported
//! numbers are the mean of `RANKSIM_HOTPATH_ROUNDS` (default 5)
//! alternating rounds, in ms per 1000 queries.
//!
//! Output: `BENCH_hotpath.json` at the workspace root (override via
//! `RANKSIM_HOTPATH_OUT`), recording both the baseline and the CSR number
//! per algorithm so the perf trajectory accumulates in-repo.

use std::time::Instant;

use ranksim_bench::{Bench, ExpConfig, Family};
use ranksim_core::engine::{Algorithm, Engine, EngineBuilder};
use ranksim_invindex::Posting;
use ranksim_rankings::hash::{fx_map_with_capacity, fx_set_with_capacity, FxHashMap};
use ranksim_rankings::{
    one_side_total, raw_threshold, ExecStats, ItemId, Kernel, PositionMap, QueryStats, RankingId,
    RankingStore,
};

/// The pre-refactor `PlainInvertedIndex`: one heap-allocated `Vec` per
/// distinct item behind a hash map.
struct LegacyPlainIndex {
    lists: FxHashMap<ItemId, Vec<RankingId>>,
}

impl LegacyPlainIndex {
    fn build(store: &RankingStore) -> Self {
        let mut lists: FxHashMap<ItemId, Vec<RankingId>> = fx_map_with_capacity(1024);
        for id in store.ids() {
            for &item in store.items(id) {
                lists.entry(item).or_default().push(id);
            }
        }
        LegacyPlainIndex { lists }
    }

    /// The original F&V: fresh hash-set candidate union, hashmap-backed
    /// `PositionMap` validation, fresh output vector — all per query.
    fn filter_validate(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
    ) -> Vec<RankingId> {
        let mut candidates = fx_set_with_capacity::<RankingId>(64);
        for &item in query {
            if let Some(list) = self.lists.get(&item) {
                candidates.extend(list.iter().copied());
            }
        }
        let qmap = PositionMap::new(query);
        let mut out = Vec::new();
        for id in candidates {
            if qmap.distance_to(store.items(id)) <= theta_raw {
                out.push(id);
            }
        }
        out
    }
}

/// The pre-refactor `AugmentedInvertedIndex` plus the original ListMerge.
struct LegacyAugmentedIndex {
    lists: FxHashMap<ItemId, Vec<Posting>>,
}

impl LegacyAugmentedIndex {
    fn build(store: &RankingStore) -> Self {
        let mut lists: FxHashMap<ItemId, Vec<Posting>> = fx_map_with_capacity(1024);
        for id in store.ids() {
            for (rank, &item) in store.items(id).iter().enumerate() {
                lists.entry(item).or_default().push(Posting {
                    id,
                    rank: rank as u32,
                });
            }
        }
        LegacyAugmentedIndex { lists }
    }

    fn list_merge(&self, store: &RankingStore, query: &[ItemId], theta_raw: u32) -> Vec<RankingId> {
        let k = store.k() as u32;
        let t_k = one_side_total(store.k());
        let lists: Vec<&[Posting]> = query
            .iter()
            .map(|item| self.lists.get(item).map(|v| v.as_slice()).unwrap_or(&[]))
            .collect();
        let mut cursors = vec![0usize; lists.len()];
        let mut out = Vec::new();
        loop {
            let mut min_id: Option<RankingId> = None;
            for (li, &c) in cursors.iter().enumerate() {
                if let Some(p) = lists[li].get(c) {
                    if min_id.map(|m| p.id < m).unwrap_or(true) {
                        min_id = Some(p.id);
                    }
                }
            }
            let Some(id) = min_id else { break };
            let mut exact = 0u32;
            let mut q_side = 0u32;
            let mut tau_side = 0u32;
            for (li, cursor) in cursors.iter_mut().enumerate() {
                if let Some(p) = lists[li].get(*cursor) {
                    if p.id == id {
                        let q_rank = li as u32;
                        exact += p.rank.abs_diff(q_rank);
                        q_side += k - q_rank;
                        tau_side += k - p.rank;
                        *cursor += 1;
                    }
                }
            }
            let dist = exact + (t_k - q_side) + (t_k - tau_side);
            if dist <= theta_raw {
                out.push(id);
            }
        }
        out
    }
}

/// ms per 1000 queries for one full pass of `f` over the workload.
fn time_pass(queries: &[Vec<ItemId>], scale_to_1000: f64, mut f: impl FnMut(&[ItemId])) -> f64 {
    let start = Instant::now();
    for q in queries {
        f(q);
    }
    start.elapsed().as_secs_f64() * 1e3 * scale_to_1000
}

struct Comparison {
    name: &'static str,
    baseline_ms: f64,
    csr_ms: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.csr_ms
    }
}

/// One algorithm's row of the kernel grid: mean ms per 1000 queries for
/// the scalar oracle and the SIMD kernel, plus the SIMD arm's
/// early-termination counters.
struct KernelRow {
    name: &'static str,
    scalar_ms: f64,
    simd_ms: f64,
    exec: ExecStats,
}

impl KernelRow {
    fn simd_speedup(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }

    /// Fraction of validations the SIMD kernel aborted early.
    fn abort_rate(&self) -> f64 {
        let calls = self.exec.distance_calls;
        if calls == 0 {
            return 0.0;
        }
        self.exec.validations_pruned as f64 / calls as f64
    }
}

/// Measures one kernel-grid arm in isolation: a verification pass per
/// algorithm against the precomputed oracle result sets (doubling as
/// warmup and as the [`ExecStats`] source), then `rounds` consecutive
/// timed passes per algorithm. Keeping each arm's passes back-to-back —
/// instead of round-robining the arms — stops the engines from evicting
/// each other's postings between timed passes.
fn measure_arm(
    engine: &Engine,
    queries: &[Vec<ItemId>],
    oracles: &[[Vec<RankingId>; 2]],
    theta_raw: u32,
    scale_to_1000: f64,
    rounds: usize,
    label: &str,
) -> [(f64, ExecStats); 2] {
    let mut scratch = engine.scratch();
    let mut stats = QueryStats::new();
    let mut out = Vec::new();
    let mut cells = [(0.0, ExecStats::default()), (0.0, ExecStats::default())];
    for (ai, alg) in [Algorithm::Fv, Algorithm::ListMerge]
        .into_iter()
        .enumerate()
    {
        for (q, oracle) in queries.iter().zip(oracles) {
            let trace =
                engine.query_into_traced(alg, q, theta_raw, &mut scratch, &mut stats, &mut out);
            cells[ai].1.merge(&trace.exec);
            out.sort_unstable();
            assert_eq!(&out, &oracle[ai], "{alg} {label} arm disagrees with legacy");
        }
        for _ in 0..rounds {
            cells[ai].0 += time_pass(queries, scale_to_1000, |q| {
                engine.query_into(alg, q, theta_raw, &mut scratch, &mut stats, &mut out);
                std::hint::black_box(out.len());
            });
        }
        cells[ai].0 /= rounds as f64;
    }
    cells
}

fn main() {
    let cfg = ExpConfig::from_env();
    let theta = 0.2f64;
    let k = 10usize;
    let rounds: usize = std::env::var("RANKSIM_HOTPATH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    eprintln!(
        "# hotpath_throughput: NYT-like n={} k={k} θ={theta}, {} queries, {rounds} rounds",
        cfg.nyt_n, cfg.queries
    );
    let bench = Bench::load(&cfg, Family::Nyt, k);
    let store = bench.store();
    let raw = raw_threshold(theta, k);

    let legacy_plain = LegacyPlainIndex::build(store);
    let legacy_augmented = LegacyAugmentedIndex::build(store);
    let engine = EngineBuilder::new(store.clone())
        .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
        .build();
    let mut scratch = engine.scratch();
    let mut out: Vec<RankingId> = Vec::new();
    let mut stats = QueryStats::new();

    // Oracle result sets from the legacy arms, computed once: every
    // engine arm — CSR default and each kernel-grid configuration — is
    // checked against these before it is timed.
    let oracles: Vec<[Vec<RankingId>; 2]> = bench
        .queries
        .iter()
        .map(|q| {
            let mut fv = legacy_plain.filter_validate(store, q, raw);
            fv.sort_unstable();
            [fv, legacy_augmented.list_merge(store, q, raw)]
        })
        .collect();

    // Correctness gate: the CSR arm must agree before anything is timed.
    for (q, oracle) in bench.queries.iter().zip(&oracles) {
        for (alg, expect) in [Algorithm::Fv, Algorithm::ListMerge]
            .into_iter()
            .zip(oracle)
        {
            engine.query_into(alg, q, raw, &mut scratch, &mut stats, &mut out);
            out.sort_unstable();
            assert_eq!(&out, expect, "{alg} CSR arm disagrees with legacy");
        }
    }

    // Alternate the arms per round so drift hits both equally; report the
    // mean over rounds.
    let mut fv = Comparison {
        name: "fv",
        baseline_ms: 0.0,
        csr_ms: 0.0,
    };
    let mut lm = Comparison {
        name: "listmerge",
        baseline_ms: 0.0,
        csr_ms: 0.0,
    };
    for _ in 0..rounds {
        fv.baseline_ms += time_pass(&bench.queries, bench.scale_to_1000, |q| {
            std::hint::black_box(legacy_plain.filter_validate(store, q, raw).len());
        });
        fv.csr_ms += time_pass(&bench.queries, bench.scale_to_1000, |q| {
            engine.query_into(Algorithm::Fv, q, raw, &mut scratch, &mut stats, &mut out);
            std::hint::black_box(out.len());
        });
        lm.baseline_ms += time_pass(&bench.queries, bench.scale_to_1000, |q| {
            std::hint::black_box(legacy_augmented.list_merge(store, q, raw).len());
        });
        lm.csr_ms += time_pass(&bench.queries, bench.scale_to_1000, |q| {
            engine.query_into(
                Algorithm::ListMerge,
                q,
                raw,
                &mut scratch,
                &mut stats,
                &mut out,
            );
            std::hint::black_box(out.len());
        });
    }
    for c in [&mut fv, &mut lm] {
        c.baseline_ms /= rounds as f64;
        c.csr_ms /= rounds as f64;
    }

    // Kernel grid: scalar oracle and SIMD kernel — each arm measured in
    // isolation (its engine is built, its passes run back-to-back, then
    // it is dropped). `engine` (the CSR arm above) doubles as the `simd`
    // arm: the SIMD kernel is the engine default.
    let scalar_cells = {
        let engine_scalar = EngineBuilder::new(store.clone())
            .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
            .kernel(Kernel::Scalar)
            .build();
        measure_arm(
            &engine_scalar,
            &bench.queries,
            &oracles,
            raw,
            bench.scale_to_1000,
            rounds,
            "scalar",
        )
    };
    let simd_cells = measure_arm(
        &engine,
        &bench.queries,
        &oracles,
        raw,
        bench.scale_to_1000,
        rounds,
        "simd",
    );
    let kernel_rows = [
        KernelRow {
            name: "fv",
            scalar_ms: scalar_cells[0].0,
            simd_ms: simd_cells[0].0,
            exec: simd_cells[0].1,
        },
        KernelRow {
            name: "listmerge",
            scalar_ms: scalar_cells[1].0,
            simd_ms: simd_cells[1].0,
            exec: simd_cells[1].1,
        },
    ];

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"hotpath_throughput\",\n");
    json.push_str(&format!(
        "  \"workload\": {{\"family\": \"nyt-like\", \"n\": {}, \"k\": {k}, \"theta\": {theta}, \"queries\": {}, \"rounds\": {rounds}}},\n",
        cfg.nyt_n, cfg.queries
    ));
    json.push_str("  \"units\": \"ms per 1000 queries\",\n");
    json.push_str("  \"baseline\": \"pre-CSR hashmap postings + per-query allocations\",\n");
    for c in [&fv, &lm] {
        json.push_str(&format!(
            "  \"{}\": {{\"baseline_ms_per_1000q\": {:.3}, \"csr_ms_per_1000q\": {:.3}, \"mean_speedup\": {:.3}}},\n",
            c.name,
            c.baseline_ms,
            c.csr_ms,
            c.speedup(),
        ));
    }
    json.push_str("  \"kernels\": {\n");
    for (i, row) in kernel_rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"scalar_ms_per_1000q\": {:.3}, \"simd_ms_per_1000q\": {:.3}, \"simd_speedup_vs_scalar\": {:.3}, \"early_termination\": {{\"validation_abort_rate\": {:.4}}}}}{}\n",
            row.name,
            row.scalar_ms,
            row.simd_ms,
            row.simd_speedup(),
            row.abort_rate(),
            if i == 0 { "," } else { "" }
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    let out_path = std::env::var("RANKSIM_HOTPATH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json").to_string()
    });
    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");

    println!("{json}");
    println!(
        "F&V:       {:8.2} -> {:8.2} ms/1000q  ({:.2}x)",
        fv.baseline_ms,
        fv.csr_ms,
        fv.speedup()
    );
    println!(
        "ListMerge: {:8.2} -> {:8.2} ms/1000q  ({:.2}x)",
        lm.baseline_ms,
        lm.csr_ms,
        lm.speedup()
    );
    for row in &kernel_rows {
        println!(
            "{:<10} scalar {:8.2}  simd {:8.2} ({:.2}x)  abort {:.1}%",
            row.name,
            row.scalar_ms,
            row.simd_ms,
            row.simd_speedup(),
            100.0 * row.abort_rate(),
        );
    }
    eprintln!("# wrote {out_path}");

    // Self-enforced regression floor: the SIMD arm must beat the scalar
    // oracle by the configured factor on at least one algorithm (CI pins
    // `RANKSIM_HOTPATH_SPEEDUP_MIN`).
    if let Some(min) = std::env::var("RANKSIM_HOTPATH_SPEEDUP_MIN")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        let best = kernel_rows
            .iter()
            .map(KernelRow::simd_speedup)
            .fold(f64::NEG_INFINITY, f64::max);
        if best < min {
            eprintln!(
                "FAIL: best SIMD speedup over the scalar oracle {best:.3}x is below \
                 the RANKSIM_HOTPATH_SPEEDUP_MIN floor {min:.3}x"
            );
            std::process::exit(1);
        }
        eprintln!("# speedup floor satisfied: {best:.3}x >= {min:.3}x");
    }
}
