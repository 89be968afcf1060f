//! Differential harness for exact top-k on the inverted index: every
//! engine shape must return the same `(distance, id)` sequence as the
//! brute-force [`knn_linear`] oracle over the live corpus.
//!
//! Each case derives a corpus and a random interleaving of insert,
//! remove and compact operations from its proptest seed and replays it
//! against a monolithic [`Engine`] and [`ShardedEngine`]s at
//! S ∈ {1, 2, 7}; at every checkpoint the monolith is also saved as an
//! `RSSN` snapshot and reopened. The corpus and the queries are built to
//! hit the search's edge cases:
//!
//! * rankings that share no item with the query all tie at the maximum
//!   distance `D = k(k+1)`, where the smallest ids must win;
//! * exact duplicates tie below `D`, and the nearest rankings of a query
//!   are tombstoned mid-case so the next-smallest ids take their places;
//! * inserted rankings live only in the delta overlay until a
//!   compaction, some of them holding items the corpus has never seen;
//! * one query family holds only never-seen items, so none of its items
//!   has a posting;
//! * `neighbours` ranges over 1, a middle value, the live size and more
//!   than the live size.

use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use ranksim::metricspace::{knn_linear, query_pairs};
use ranksim::prelude::*;

const K: usize = 6;
const DOMAIN: u32 = 40;
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
/// Items at or above this id never occur in the initial corpus.
const FRESH: u32 = 1_000_000;

/// Rankings over the shared domain (overlapping, with exact duplicates).
fn domain_ranking(rng: &mut StdRng) -> Vec<ItemId> {
    let mut items = Vec::with_capacity(K);
    while items.len() < K {
        let cand = ItemId(rng.random_range(0..DOMAIN));
        if !items.contains(&cand) {
            items.push(cand);
        }
    }
    items
}

/// A ranking of `K` consecutive items starting at `base` (disjoint from
/// every other such block and from the domain).
fn block(base: u32) -> Vec<ItemId> {
    (base..base + K as u32).map(ItemId).collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<ItemId>),
    Remove(usize),
    Compact,
}

fn derive_case(seed: u64) -> (Vec<Vec<ItemId>>, Vec<Op>) {
    let mut rng = proptest::rng_from_seed(seed);
    let mut corpus: Vec<Vec<ItemId>> = Vec::new();
    for i in 0..60u32 {
        match i % 5 {
            // Disjoint blocks: every one sits at exactly D from a query
            // over the domain.
            0 => corpus.push(block(10_000 + i * 16)),
            // Exact duplicates of the previous ranking: ties below D.
            1 if !corpus.is_empty() => corpus.push(corpus[corpus.len() - 1].clone()),
            _ => corpus.push(domain_ranking(&mut rng)),
        }
    }
    let mut ops = Vec::new();
    let mut fresh = FRESH;
    for _ in 0..rng.random_range(40..70usize) {
        let roll = rng.random_range(0..100u32);
        let op = if roll < 6 {
            Op::Compact
        } else if roll < 50 {
            // Insert: a duplicate, a ranking with a never-seen item, or
            // a fresh block (all never-seen items).
            let items = match rng.random_range(0..3u32) {
                0 => corpus[rng.random_range(0..corpus.len())].clone(),
                1 => {
                    let mut items = domain_ranking(&mut rng);
                    items[rng.random_range(0..K)] = ItemId(fresh);
                    fresh += 1;
                    items
                }
                _ => {
                    fresh += K as u32;
                    block(fresh - K as u32)
                }
            };
            Op::Insert(items)
        } else {
            Op::Remove(rng.random_range(0..usize::MAX))
        };
        ops.push(op);
    }
    (corpus, ops)
}

fn temp_path(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ranksim-topkeq-{tag:x}-{}.rssn",
        std::process::id()
    ))
}

struct Harness {
    engine: Engine,
    sharded: Vec<ShardedEngine>,
    path: PathBuf,
}

impl Harness {
    fn new(corpus: &[Vec<ItemId>], seed: u64) -> Harness {
        let mut store = RankingStore::new(K);
        for items in corpus {
            store.push_items_unchecked(items);
        }
        // A restricted build that needs no postings for its threshold
        // algorithm: `topk_tree(true)` must still index top-k reads.
        let engine = EngineBuilder::new(store.clone())
            .algorithms(&[Algorithm::Coarse])
            .topk_tree(true)
            .compaction_threshold(f64::INFINITY)
            .build();
        let sharded = SHARD_COUNTS
            .iter()
            .map(|&s| {
                let mut b = ShardedEngineBuilder::new(K, s, ShardStrategy::Hash)
                    .algorithms(&[Algorithm::Fv])
                    .calibrated_costs(CalibratedCosts::nominal(K));
                b.extend_from_store(&store);
                b.build()
            })
            .collect();
        Harness {
            engine,
            sharded,
            path: temp_path(seed),
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(items) => {
                let id = self.engine.insert_ranking(items);
                for sh in &mut self.sharded {
                    assert_eq!(sh.insert_ranking(items), id, "sharded ids agree");
                }
            }
            Op::Remove(pick) => {
                let live: Vec<RankingId> = self.engine.store().live_ids().collect();
                if live.len() > 1 {
                    self.remove(live[pick % live.len()]);
                }
            }
            Op::Compact => {
                self.engine.compact();
                for sh in &mut self.sharded {
                    sh.compact();
                }
            }
        }
    }

    fn remove(&mut self, id: RankingId) {
        assert!(self.engine.remove_ranking(id));
        for sh in &mut self.sharded {
            assert!(sh.remove_ranking(id));
        }
    }

    /// The queries of one checkpoint: a random domain ranking, a live
    /// ranking with its first item replaced by a never-seen one, the
    /// live ranking with the largest id (the newest insert, in the delta
    /// until a compaction), and a query of never-seen items only.
    fn queries(&self, rng: &mut StdRng) -> Vec<Vec<ItemId>> {
        let store = self.engine.store();
        let live: Vec<RankingId> = store.live_ids().collect();
        let pick = live[rng.random_range(0..live.len())];
        let mut perturbed = store.items(pick).to_vec();
        perturbed[0] = ItemId(u32::MAX - 1);
        let newest = store.items(*live.last().expect("live corpus")).to_vec();
        vec![
            domain_ranking(rng),
            perturbed,
            newest,
            block(u32::MAX - 2 * K as u32),
        ]
    }

    fn check(&mut self, rng: &mut StdRng) -> Result<(), TestCaseError> {
        let queries = self.queries(rng);
        save_engine(&self.path, &self.engine, SnapshotMeta::default()).expect("save");
        let (loaded, _) = load_engine(&self.path, LoadMode::Verify).expect("load");
        let live = self.engine.live_len();
        let mut stats = QueryStats::new();
        let mut scratch = self.engine.scratch();
        let mut lscratch = loaded.scratch();
        let mut buf = Vec::new();
        for q in &queries {
            let qp = query_pairs(q);
            for kn in [1, 4, live, live + 3] {
                let expect = knn_linear(self.engine.store(), &qp, kn, &mut stats);
                prop_assert_eq!(expect.len(), kn.min(live));
                let got = self.engine.query_topk(q, kn, &mut scratch, &mut stats);
                prop_assert_eq!(&got, &expect, "monolith k={} live={}", kn, live);
                self.engine
                    .query_topk_into(q, kn, &mut scratch, &mut stats, &mut buf);
                prop_assert_eq!(&buf, &expect, "monolith _into k={}", kn);
                let got = loaded.query_topk(q, kn, &mut lscratch, &mut stats);
                prop_assert_eq!(&got, &expect, "RSSN-loaded k={}", kn);
                for (si, sh) in self.sharded.iter().enumerate() {
                    let mut ss = sh.scratch();
                    let got = sh.query_topk(q, kn, &mut ss, &mut stats);
                    prop_assert_eq!(&got, &expect, "sharded S={} k={}", SHARD_COUNTS[si], kn);
                }
            }
        }
        Ok(())
    }

    /// Tombstones the current nearest neighbours of `q` (keeping at
    /// least one ranking live), so the next check must promote the
    /// next-nearest, smallest-id rankings in their place.
    fn remove_nearest(&mut self, q: &[ItemId]) {
        let mut scratch = self.engine.scratch();
        let mut stats = QueryStats::new();
        let nearest = self.engine.query_topk(q, 3, &mut scratch, &mut stats);
        for (_, id) in nearest {
            if self.engine.live_len() > 1 {
                self.remove(id);
            }
        }
    }
}

fn run_case(seed: u64) -> Result<(), TestCaseError> {
    let (corpus, ops) = derive_case(seed);
    let mut rng = proptest::rng_from_seed(seed ^ 0x70B);
    let mut h = Harness::new(&corpus, seed);
    let result = (|| {
        h.check(&mut rng)?;
        for (i, op) in ops.iter().enumerate() {
            h.apply(op);
            if (i + 1) % 15 == 0 {
                h.check(&mut rng)?;
                let q = h.queries(&mut rng).swap_remove(0);
                h.remove_nearest(&q);
                h.check(&mut rng)?;
            }
        }
        h.engine.compact();
        for sh in &mut h.sharded {
            sh.compact();
        }
        h.check(&mut rng)
    })();
    let _ = std::fs::remove_file(&h.path);
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After any interleaving of inserts, removals and compactions, the
    /// posting-driven top-k of every engine shape equals the linear scan.
    #[test]
    fn topk_matches_the_linear_oracle_through_mutation(seed in 0u64..u64::MAX) {
        run_case(seed)?;
    }
}

/// Ties at `D`: a query sharing no item with any ranking ranks the whole
/// live corpus at exactly `k(k+1)`, smallest ids first, and takes no
/// distance call on the indexed base.
#[test]
fn disjoint_rankings_tie_at_the_maximum_smallest_ids_first() {
    let mut store = RankingStore::new(K);
    for i in 0..30u32 {
        store.push_items_unchecked(&block(i * 10));
    }
    let mut engine = EngineBuilder::new(store)
        .algorithms(&[Algorithm::Fv])
        .compaction_threshold(f64::INFINITY)
        .build();
    engine.remove_ranking(RankingId(0));
    engine.remove_ranking(RankingId(2));
    let q = block(5_000);
    let d_max = (K * (K + 1)) as u32;
    let mut scratch = engine.scratch();
    let mut stats = QueryStats::new();
    let got = engine.query_topk(&q, 4, &mut scratch, &mut stats);
    let ids: Vec<u32> = got.iter().map(|&(_, id)| id.0).collect();
    assert_eq!(ids, vec![1, 3, 4, 5]);
    assert!(got.iter().all(|&(d, _)| d == d_max));
    assert_eq!(stats.distance_calls, 0, "no base ranking needs validating");
    let all = engine.query_topk(&q, 100, &mut scratch, &mut stats);
    assert_eq!(all.len(), 28);
    assert!(all.windows(2).all(|w| w[0] < w[1]));
}
