//! The hot-path kernel guard (`repro hotpath`): F&V and ListMerge on the
//! NYT-like workload (k = 10, θ = 0.2) through two engines that differ
//! only in their distance kernel, [`Kernel::Scalar`] (the oracle) and
//! [`Kernel::Simd`].
//!
//! Every (arm, algorithm) pair is first checked result-set-identical
//! against the brute-force [`linear_scan`] on every query; that pass
//! doubles as warm-up and yields the SIMD arm's validation abort rate.
//! The timed passes are interleaved: each round times both arms back to
//! back, alternating which goes first, so host drift hits both arms
//! alike. Each arm reports its median pass, in ms per 1000 queries.
//! `RANKSIM_HOTPATH_SPEEDUP_MIN` fails the run unless the better of the
//! two SIMD/scalar speedups reaches it.

use ranksim_core::engine::{Algorithm, Engine, EngineBuilder};
use ranksim_metricspace::{linear_scan, query_pairs};
use ranksim_rankings::{raw_threshold, Kernel, QueryStats};

use crate::{json_obj, ms, time_queries, Bench, ExpConfig, Family, Json};

const THETA: f64 = 0.2;
const K: usize = 10;
const ALGORITHMS: [(Algorithm, &str); 2] =
    [(Algorithm::Fv, "fv"), (Algorithm::ListMerge, "listmerge")];

/// One algorithm's row: median ms per 1000 queries per kernel, and the
/// SIMD arm's early-termination rate.
#[derive(Debug, Clone)]
pub struct HotpathRow {
    /// Report key (`fv`, `listmerge`).
    pub name: &'static str,
    /// Scalar-kernel median pass.
    pub scalar_ms: f64,
    /// SIMD-kernel median pass.
    pub simd_ms: f64,
    /// Fraction of the SIMD arm's validations aborted early.
    pub abort_rate: f64,
}

impl HotpathRow {
    /// Scalar time over SIMD time.
    pub fn simd_speedup(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }
}

/// Everything one `repro hotpath` run measured (`BENCH_hotpath.json`).
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Corpus size.
    pub n: usize,
    /// Measured queries.
    pub queries: usize,
    /// Timed rounds per arm.
    pub rounds: usize,
    /// (arm, algorithm, query) answers checked against [`linear_scan`].
    pub verified: usize,
    /// One row per algorithm.
    pub rows: Vec<HotpathRow>,
}

impl HotpathReport {
    /// The guarded number: the better SIMD speedup of the two algorithms.
    pub fn best_speedup(&self) -> f64 {
        self.rows
            .iter()
            .map(HotpathRow::simd_speedup)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The report as JSON.
    pub fn to_json(&self) -> Json {
        let kernels = self.rows.iter().map(|r| {
            let row = json_obj! {
                "scalar_ms_per_1000q": Json::fixed(r.scalar_ms, 3),
                "simd_ms_per_1000q": Json::fixed(r.simd_ms, 3),
                "simd_speedup_vs_scalar": Json::fixed(r.simd_speedup(), 3),
                "early_termination": json_obj! {
                    "validation_abort_rate": Json::fixed(r.abort_rate, 4),
                },
            };
            (r.name, row)
        });
        json_obj! {
            "bench": "hotpath_throughput",
            "workload": json_obj! {
                "family": "nyt-like", "n": self.n, "k": K, "theta": THETA,
                "queries": self.queries, "rounds": self.rounds,
            },
            "units": "ms per 1000 queries",
            "kernels": Json::map(kernels),
        }
    }
}

/// Runs the verified, interleaved kernel comparison over `rounds` timed
/// rounds.
///
/// # Panics
/// When any arm disagrees with the brute-force scan.
pub fn run_hotpath(cfg: &ExpConfig, rounds: usize) -> HotpathReport {
    let bench = Bench::load(cfg, Family::Nyt, K);
    let store = bench.store();
    let raw = raw_threshold(THETA, K);
    let mut stats = QueryStats::new();
    // `linear_scan` returns ascending ids; engine answers are sorted to match.
    let oracle: Vec<_> = bench
        .queries
        .iter()
        .map(|q| linear_scan(store, &query_pairs(q), raw, &mut stats))
        .collect();
    let arms = [Kernel::Scalar, Kernel::Simd].map(|kernel| {
        EngineBuilder::new(store.clone())
            .algorithms(&ALGORITHMS.map(|(a, _)| a))
            .kernel(kernel)
            .build()
    });
    let mut scratch = arms.each_ref().map(Engine::scratch);
    let mut out = Vec::new();

    let mut verified = 0;
    let mut abort_rate = [0.0; 2];
    for (ai, (alg, _)) in ALGORITHMS.into_iter().enumerate() {
        for (arm, (engine, scratch)) in arms.iter().zip(&mut scratch).enumerate() {
            let mut stats = QueryStats::new();
            for (q, expect) in bench.queries.iter().zip(&oracle) {
                engine.query_into(alg, q, raw, scratch, &mut stats, &mut out);
                out.sort_unstable();
                assert_eq!(
                    &out,
                    expect,
                    "{alg} on the {} kernel disagrees with linear_scan",
                    engine.kernel()
                );
                verified += 1;
            }
            if arm == 1 {
                abort_rate[ai] =
                    stats.validations_pruned as f64 / stats.distance_calls.max(1) as f64;
            }
        }
    }

    // passes[algorithm][arm]: ms per 1000 queries of each timed pass.
    let mut passes: [[Vec<f64>; 2]; 2] = Default::default();
    for round in 0..rounds {
        for (ai, (alg, _)) in ALGORITHMS.into_iter().enumerate() {
            for arm in [round % 2, 1 - round % 2] {
                let (engine, scratch) = (&arms[arm], &mut scratch[arm]);
                let (d, _, _) = time_queries(&bench.queries, |q, s| {
                    engine.query_into(alg, q, raw, scratch, s, &mut out);
                    out.len()
                });
                passes[ai][arm].push(ms(d) * bench.scale_to_1000);
            }
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_unstable_by(f64::total_cmp);
        v[(v.len() - 1) / 2]
    };
    let rows = ALGORITHMS
        .into_iter()
        .zip(passes)
        .zip(abort_rate)
        .map(|(((_, name), [scalar, simd]), abort_rate)| HotpathRow {
            name,
            scalar_ms: median(scalar),
            simd_ms: median(simd),
            abort_rate,
        })
        .collect();
    HotpathReport {
        n: store.len(),
        queries: bench.queries.len(),
        rounds,
        verified,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_hotpath_run_verifies_both_arms_and_renders_its_report() {
        let cfg = ExpConfig {
            nyt_n: 1500,
            queries: 5,
            ..ExpConfig::small()
        };
        let report = run_hotpath(&cfg, 1);
        assert_eq!(
            report.verified,
            2 * 2 * 5,
            "every (arm, algorithm, query) checked"
        );
        assert_eq!(report.rows.len(), 2);
        assert!(report
            .rows
            .iter()
            .all(|r| r.scalar_ms > 0.0 && r.simd_ms > 0.0));
        assert!(report.best_speedup().is_finite());
        let json = report.to_json().render();
        for key in [
            "\"kernels\"",
            "\"fv\"",
            "\"listmerge\"",
            "\"simd_speedup_vs_scalar\"",
            "\"validation_abort_rate\"",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }
}
