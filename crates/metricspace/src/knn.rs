//! Exact k-nearest-neighbour primitives shared by every top-k path.
//!
//! [`KnnHeap`] keeps the k lexicographically smallest `(distance, id)`
//! pairs, so ties at the k-th distance resolve to the smallest ranking
//! ids whatever the offer order. Every top-k search in this workspace —
//! the engine's posting-driven search, the linear oracle, the sharded and
//! remote merges — therefore returns the **same** result set, which is
//! what lets a sharded search merge per-shard top-k lists into a
//! bit-identical global answer (see `ranksim_core::shard`).

use std::collections::BinaryHeap;

use ranksim_rankings::{footrule_pairs, ItemId, QueryStats, RankingId, RankingStore};

/// A bounded max-heap of the current k best `(distance, id)` pairs.
#[derive(Debug)]
pub struct KnnHeap {
    k: usize,
    heap: BinaryHeap<(u32, RankingId)>,
}

impl KnnHeap {
    /// An empty heap for `k ≥ 1` neighbours.
    pub fn new(k: usize) -> Self {
        Self::with_buffer(k, Vec::new())
    }

    /// An empty heap for `k ≥ 1` neighbours over a caller-owned buffer
    /// (cleared first): once the buffer holds `k + 1` slots, neither this
    /// call nor any offer allocates, and [`KnnHeap::into_sorted`] hands
    /// the same buffer back.
    pub fn with_buffer(k: usize, mut buf: Vec<(u32, RankingId)>) -> Self {
        assert!(k >= 1, "k must be at least 1");
        buf.clear();
        buf.reserve(k + 1);
        KnnHeap {
            k,
            heap: BinaryHeap::from(buf),
        }
    }

    /// The current pruning radius: the k-th best distance, or `u32::MAX`
    /// while fewer than k candidates are known.
    #[inline]
    pub fn tau(&self) -> u32 {
        if self.heap.len() < self.k {
            u32::MAX
        } else {
            self.heap.peek().expect("non-empty").0
        }
    }

    /// Whether [`KnnHeap::offer`] would keep `(dist, id)`.
    #[inline]
    pub fn admits(&self, dist: u32, id: RankingId) -> bool {
        self.heap.len() < self.k || (dist, id) < *self.heap.peek().expect("non-empty")
    }

    /// Offers a candidate. The heap keeps the k lexicographically
    /// smallest `(distance, id)` pairs: a candidate tied at the k-th
    /// distance still displaces a larger id, so the result set is
    /// independent of offer order (and of how a corpus is sharded).
    #[inline]
    pub fn offer(&mut self, dist: u32, id: RankingId) {
        if self.admits(dist, id) {
            self.heap.push((dist, id));
            if self.heap.len() > self.k {
                self.heap.pop();
            }
        }
    }

    /// Extracts the neighbours sorted by ascending distance (ties by id).
    pub fn into_sorted(self) -> Vec<(u32, RankingId)> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// Brute-force KNN oracle over the live corpus (= all rankings on a
/// pristine store; tombstoned slots are skipped, freshly inserted ones
/// are naturally included).
pub fn knn_linear(
    store: &RankingStore,
    query_pairs: &[(ItemId, u32)],
    k_neighbours: usize,
    stats: &mut QueryStats,
) -> Vec<(u32, RankingId)> {
    let mut heap = KnnHeap::new(k_neighbours);
    for id in store.live_ids() {
        stats.count_distance();
        let d = footrule_pairs(query_pairs, store.sorted_pairs(id), store.k());
        heap.offer(d, id);
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_pairs;
    use crate::testutil::random_store;

    fn distances(v: &[(u32, RankingId)]) -> Vec<u32> {
        v.iter().map(|&(d, _)| d).collect()
    }

    #[test]
    fn heap_keeps_k_smallest() {
        let mut h = KnnHeap::new(3);
        for (d, i) in [(9u32, 0u32), (2, 1), (7, 2), (1, 3), (8, 4), (0, 5)] {
            h.offer(d, RankingId(i));
        }
        let got = h.into_sorted();
        assert_eq!(distances(&got), vec![0, 1, 2]);
    }

    #[test]
    fn knn_ties_resolve_to_smallest_ids_everywhere() {
        // A store with heavy distance ties: every ranking duplicated, so
        // the k-th distance is almost always shared by several ids. The
        // oracle must return the exact lexicographic top-k whatever the
        // offer order — the property the sharded merge relies on.
        let base = random_store(120, 6, 25, 11);
        let mut store = RankingStore::new(6);
        for id in base.ids() {
            store.push_items_unchecked(base.items(id));
            store.push_items_unchecked(base.items(id));
        }
        for qid in [0u32, 37, 121, 239] {
            let q = query_pairs(store.items(RankingId(qid)));
            for k in [1usize, 3, 9, 30] {
                let mut s = QueryStats::new();
                let expect = knn_linear(&store, &q, k, &mut s);
                // The linear oracle itself is the lexicographic optimum:
                // re-offering in reverse id order changes nothing.
                let mut h = KnnHeap::new(k);
                for id in store.ids().collect::<Vec<_>>().into_iter().rev() {
                    h.offer(
                        ranksim_rankings::footrule_pairs(&q, store.sorted_pairs(id), store.k()),
                        id,
                    );
                }
                assert_eq!(h.into_sorted(), expect, "offer order changed the top-k");
            }
        }
    }

    #[test]
    fn knn_ties_survive_tombstones_and_same_id_reinsertion() {
        // The latent tie-handling risk of a live corpus: when ids at the
        // k-th distance are deleted and later re-inserted *at the same
        // ranking id*, the lexicographic (distance, id) order must come
        // out exactly as on a freshly built corpus — smaller ids win ties
        // again, and tombstoned ids never occupy heap slots in between.
        let mut store = RankingStore::new(4);
        // Ten exact duplicates (ids 0..10) and ten distant rankings.
        for _ in 0..10 {
            store.push_items_unchecked(&[1, 2, 3, 4].map(ItemId));
        }
        for i in 0..10u32 {
            store.push_items_unchecked(
                &[100 + i * 4, 101 + i * 4, 102 + i * 4, 103 + i * 4].map(ItemId),
            );
        }
        let q = query_pairs(&[1, 2, 3, 4].map(ItemId));
        let ids = |v: &[(u32, RankingId)]| v.iter().map(|&(_, id)| id.0).collect::<Vec<_>>();
        let mut s = QueryStats::new();

        // All ten duplicates tie at distance 0; k = 4 keeps ids 0..4.
        assert_eq!(ids(&knn_linear(&store, &q, 4, &mut s)), vec![0, 1, 2, 3]);

        // Tombstone the current tie winners: the next-smallest tied ids
        // must take their heap slots.
        for v in [0u32, 1, 2] {
            assert!(store.remove(RankingId(v)));
        }
        assert_eq!(ids(&knn_linear(&store, &q, 4, &mut s)), vec![3, 4, 5, 6]);

        // Release and re-insert the same ranking ids with the same
        // content: the freshly rebuilt order must be bit-identical to the
        // never-mutated corpus — ids 0..4 win the tie again.
        store.release_removed_slots();
        for v in [0u32, 1, 2] {
            store.insert_items_at_unchecked(RankingId(v), &[1, 2, 3, 4].map(ItemId));
        }
        assert_eq!(ids(&knn_linear(&store, &q, 4, &mut s)), vec![0, 1, 2, 3]);
        // Offer order still cannot matter: reversed re-offering agrees.
        let mut h = KnnHeap::new(4);
        for id in store.live_ids().collect::<Vec<_>>().into_iter().rev() {
            h.offer(
                ranksim_rankings::footrule_pairs(&q, store.sorted_pairs(id), store.k()),
                id,
            );
        }
        assert_eq!(ids(&h.into_sorted()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn knn_with_k_exceeding_corpus_returns_everything() {
        let store = random_store(20, 5, 20, 3);
        let q = query_pairs(store.items(RankingId(0)));
        let mut s = QueryStats::new();
        let got = knn_linear(&store, &q, 50, &mut s);
        assert_eq!(got.len(), 20);
        assert_eq!(got[0].0, 0, "the query's own ranking is nearest");
    }

    #[test]
    fn knn_first_neighbour_of_member_is_itself() {
        let store = random_store(100, 5, 30, 5);
        for qid in 0..20u32 {
            let q = query_pairs(store.items(RankingId(qid)));
            let mut s = QueryStats::new();
            let got = knn_linear(&store, &q, 1, &mut s);
            assert_eq!(got[0].0, 0);
        }
    }
}
