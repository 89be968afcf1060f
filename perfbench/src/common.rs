//! Pieces every workload shares: query pools, phase results, the
//! executor/planner aggregate, and per-layer metric helpers.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranksim_core::engine::{Algorithm, QueryTrace};
use ranksim_datasets::{perturb_ranking, PerturbParams};
use ranksim_rankings::{ItemId, QueryStats, RankingId, RankingStore};

use crate::oracle::Corpus;
use crate::stats::Samples;
use crate::trace::Span;

/// Ranking size of every corpus.
pub const K: usize = 10;
/// Neighbours asked for by every top-k read.
pub const TOPK: usize = 10;
/// Client threads of every workload (the host's core count).
pub const CLIENTS: usize = 2;

/// How queries are derived from corpus rankings.
pub const PERTURB: PerturbParams = PerturbParams {
    max_swaps: 3,
    replace_prob: 0.5,
};

/// Planner pick names, indexed by `Algorithm::dense_index`.
pub const PICK_NAMES: [&str; Algorithm::COUNT] = [
    "fv",
    "fv_drop",
    "listmerge",
    "blocked_prune",
    "blocked_prune_drop",
    "coarse",
    "coarse_drop",
    "adaptsearch",
];

/// Per-layer metrics of one run: name → value (units live in the
/// registry in `main.rs`).
pub type Layers = BTreeMap<String, f64>;

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `n` seeded perturbations of random rankings of `store`.
pub fn query_pool(
    store: &RankingStore,
    domain: u32,
    n: usize,
    rng: &mut StdRng,
) -> Vec<Vec<ItemId>> {
    (0..n)
        .map(|_| {
            let base = RankingId(rng.random_range(0..store.len() as u32));
            let mut items = store.items(base).to_vec();
            perturb_ranking(&mut items, domain, PERTURB, rng);
            items
        })
        .collect()
}

/// The oracle's copy of a generated corpus.
pub fn corpus_of(store: &RankingStore) -> Corpus {
    let mut c = Corpus::new(store.k());
    for id in store.live_ids() {
        c.set(id, store.items(id));
    }
    c
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// What one measured phase of a workload saw, end to end.
#[derive(Default)]
pub struct Phase {
    /// Threshold reads, ms.
    pub read: Samples,
    /// Top-k reads, ms.
    pub topk: Samples,
    /// Acknowledged inserts and removes, ms.
    pub write: Samples,
    /// Measured wall time (pauses for answer checks excluded).
    pub elapsed_s: f64,
    /// Answers that disagreed with the oracle.
    pub wrong: u64,
    /// Spans (traced phases only).
    pub spans: Vec<Span>,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.read.attempted() + self.topk.attempted() + self.write.attempted()
    }

    pub fn failed(&self) -> u64 {
        self.read.failed() + self.topk.failed() + self.write.failed()
    }

    pub fn throughput(&self) -> f64 {
        let done = self.read.succeeded() + self.topk.succeeded() + self.write.succeeded();
        done as f64 / self.elapsed_s.max(1e-9)
    }

    pub fn absorb(&mut self, other: Phase) {
        self.read.extend(&other.read);
        self.topk.extend(&other.topk);
        self.write.extend(&other.write);
        self.wrong += other.wrong;
        self.spans.extend(other.spans);
    }
}

/// Executor and planner counters folded over many reads.
#[derive(Default, Clone)]
pub struct ExecAgg {
    exec_us: Samples,
    queries: u64,
    postings: u64,
    candidates: u64,
    distance_calls: u64,
    pruned: u64,
    picks: [u64; Algorithm::COUNT],
    predicted_over_actual: Samples,
}

impl ExecAgg {
    /// One engine read, from its public trace.
    pub fn add_trace(&mut self, t: &QueryTrace) {
        self.queries += 1;
        self.exec_us.push(t.actual_ns / 1e3);
        self.postings += t.exec.postings_scanned;
        self.candidates += t.exec.candidates;
        self.distance_calls += t.exec.distance_calls;
        self.pruned += t.exec.validations_pruned;
        if let Some(slot) = t.algorithm.dense_index() {
            self.picks[slot] += 1;
        }
        if t.planned && t.actual_ns > 0.0 {
            self.predicted_over_actual
                .push(t.predicted_ns / t.actual_ns);
        }
    }

    /// One read made of several engine executions (a sharded query),
    /// from counter deltas.
    pub fn add_deltas(
        &mut self,
        stats: &QueryStats,
        picks: &[u64; Algorithm::COUNT],
        predicted_ns: f64,
        actual_ns: f64,
    ) {
        self.queries += 1;
        self.exec_us.push(actual_ns / 1e3);
        self.postings += stats.entries_scanned;
        self.candidates += stats.candidates;
        self.distance_calls += stats.distance_calls;
        self.pruned += stats.validations_pruned;
        for (a, b) in self.picks.iter_mut().zip(picks) {
            *a += b;
        }
        if actual_ns > 0.0 {
            self.predicted_over_actual.push(predicted_ns / actual_ns);
        }
    }

    pub fn merge(&mut self, other: &ExecAgg) {
        self.exec_us.extend(&other.exec_us);
        self.queries += other.queries;
        self.postings += other.postings;
        self.candidates += other.candidates;
        self.distance_calls += other.distance_calls;
        self.pruned += other.pruned;
        for (a, b) in self.picks.iter_mut().zip(other.picks) {
            *a += b;
        }
        self.predicted_over_actual
            .extend(&other.predicted_over_actual);
    }

    /// The `executor.*`, `rankings.*` and `planner.*` metrics.
    pub fn put(&self, layers: &mut Layers) {
        put_us(layers, "executor.exec_us", &self.exec_us);
        let q = self.queries;
        layers.insert(
            "executor.postings_per_query".into(),
            ratio(self.postings, q),
        );
        layers.insert(
            "executor.candidates_per_query".into(),
            ratio(self.candidates, q),
        );
        layers.insert(
            "executor.distance_calls_per_query".into(),
            ratio(self.distance_calls, q),
        );
        layers.insert(
            "rankings.validation_abort_frac".into(),
            ratio(self.pruned, self.distance_calls),
        );
        let picks: u64 = self.picks.iter().sum();
        for (name, &count) in PICK_NAMES.iter().zip(&self.picks) {
            layers.insert(format!("planner.pick_frac.{name}"), ratio(count, picks));
        }
        layers.insert(
            "planner.predicted_over_actual_p50".into(),
            self.predicted_over_actual.p50().unwrap_or(0.0),
        );
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `<prefix>_p50` and `<prefix>_p99` of a sample set; a percentile the
/// sample count cannot support reads 0.
pub fn put_us(layers: &mut Layers, prefix: &str, samples: &Samples) {
    layers.insert(format!("{prefix}_p50"), samples.p50().unwrap_or(0.0));
    layers.insert(format!("{prefix}_p99"), samples.p99().unwrap_or(0.0));
}

/// Bytes of a file (0 when it cannot be read).
pub fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}
