//! The answer oracle: a brute-force Footrule scan written independently
//! of the program, over a corpus the benchmark tracks itself.
//!
//! Footrule over top-k lists follows Fagin et al.: an item missing from
//! a list takes the artificial rank `k`. Threshold answers are the live
//! ids within the raw threshold, ascending; top-k answers are the
//! lexicographically smallest `(distance, id)` pairs, ascending.

use ranksim_rankings::{ItemId, RankingId};

/// A corpus of size-`k` rankings addressed by id, with a live flag per
/// id; ids past the end and dead ids never match.
#[derive(Debug, Clone)]
pub struct Corpus {
    k: usize,
    items: Vec<u32>,
    live: Vec<bool>,
    /// Query rank per item (`k` = absent), sized by the largest item.
    rank_of: Vec<u8>,
}

impl Corpus {
    pub fn new(k: usize) -> Self {
        assert!(k > 0 && k < u8::MAX as usize, "k must fit the rank table");
        Corpus {
            k,
            items: Vec::new(),
            live: Vec::new(),
            rank_of: Vec::new(),
        }
    }

    /// Number of ids ever set (live or dead).
    pub fn id_space(&self) -> usize {
        self.live.len()
    }

    pub fn is_live(&self, id: RankingId) -> bool {
        self.live.get(id.index()).copied().unwrap_or(false)
    }

    pub fn items(&self, id: RankingId) -> &[u32] {
        &self.items[id.index() * self.k..(id.index() + 1) * self.k]
    }

    /// Makes `id` live with `items`, growing the id space as needed.
    pub fn set(&mut self, id: RankingId, items: &[ItemId]) {
        assert_eq!(items.len(), self.k);
        let i = id.index();
        if i >= self.live.len() {
            self.live.resize(i + 1, false);
            self.items.resize((i + 1) * self.k, 0);
        }
        for (slot, item) in self.items[i * self.k..(i + 1) * self.k]
            .iter_mut()
            .zip(items)
        {
            *slot = item.0;
        }
        let max = items.iter().map(|it| it.0 as usize).max().unwrap_or(0);
        if max >= self.rank_of.len() {
            self.rank_of.resize(max + 1, self.k as u8);
        }
        self.live[i] = true;
    }

    pub fn remove(&mut self, id: RankingId) -> bool {
        match self.live.get_mut(id.index()) {
            Some(live) if *live => {
                *live = false;
                true
            }
            _ => false,
        }
    }

    /// Footrule distance from `query` to every id (`u32::MAX` for dead
    /// ids).
    pub fn distances(&mut self, query: &[ItemId]) -> Vec<u32> {
        assert_eq!(query.len(), self.k);
        let k = self.k as u32;
        let max_q = query.iter().map(|q| q.0 as usize).max().unwrap_or(0);
        if max_q >= self.rank_of.len() {
            self.rank_of.resize(max_q + 1, self.k as u8);
        }
        for (r, q) in query.iter().enumerate() {
            self.rank_of[q.0 as usize] = r as u8;
        }
        // Every query item starts out as missing from the candidate
        // (contributing k − rank); matches replace that term.
        let all_missing = k * (k + 1) / 2;
        let mut out = Vec::with_capacity(self.live.len());
        for (id, row) in self.items.chunks_exact(self.k).enumerate() {
            if !self.live[id] {
                out.push(u32::MAX);
                continue;
            }
            let mut d = all_missing;
            for (i, &item) in row.iter().enumerate() {
                let i = i as u32;
                let rq = *self.rank_of.get(item as usize).unwrap_or(&(k as u8)) as u32;
                if rq < k {
                    d = d + rq.abs_diff(i) - (k - rq);
                } else {
                    d += k - i;
                }
            }
            out.push(d);
        }
        for q in query {
            self.rank_of[q.0 as usize] = self.k as u8;
        }
        out
    }
}

/// Live ids within `theta_raw`, ascending.
pub fn threshold(distances: &[u32], theta_raw: u32) -> Vec<RankingId> {
    distances
        .iter()
        .enumerate()
        .filter(|(_, &d)| d <= theta_raw)
        .map(|(id, _)| RankingId(id as u32))
        .collect()
}

/// The `m` lexicographically smallest `(distance, id)` pairs, ascending.
pub fn topk(distances: &[u32], m: usize) -> Vec<(u32, RankingId)> {
    let mut pairs: Vec<(u32, RankingId)> = distances
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != u32::MAX)
        .map(|(id, &d)| (d, RankingId(id as u32)))
        .collect();
    if pairs.len() > m {
        pairs.select_nth_unstable(m);
        pairs.truncate(m);
    }
    pairs.sort_unstable();
    pairs
}

/// Expected answers for a query pool, computed on up to `threads`
/// threads before any timing starts.
pub struct Expected {
    pub threshold: Vec<Vec<RankingId>>,
    pub topk: Vec<Vec<(u32, RankingId)>>,
}

pub fn expected(
    corpus: &Corpus,
    queries: &[Vec<ItemId>],
    theta_raw: u32,
    neighbours: usize,
    threads: usize,
) -> Expected {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    type Answers = (Vec<RankingId>, Vec<(u32, RankingId)>);
    let parts: Vec<Vec<Answers>> = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| {
                let mut c = corpus.clone();
                s.spawn(move || {
                    qs.iter()
                        .map(|q| {
                            let d = c.distances(q);
                            (threshold(&d, theta_raw), topk(&d, neighbours))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let (threshold, topk) = parts.into_iter().flatten().unzip();
    Expected { threshold, topk }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    /// k = 3, distances worked out by hand with the missing rank l = 3.
    fn tiny() -> Corpus {
        let mut c = Corpus::new(3);
        c.set(RankingId(0), &ids(&[1, 2, 3])); // the query itself
        c.set(RankingId(1), &ids(&[2, 1, 3])); // one swap: 1 + 1 = 2
        c.set(RankingId(2), &ids(&[1, 2, 9])); // 3 dropped at rank 2: (3-2) + (3-2) = 2
        c.set(RankingId(3), &ids(&[7, 8, 9])); // disjoint: 2 * (3 + 2 + 1) = 12
        c.set(RankingId(4), &ids(&[3, 2, 1])); // reversal: 2 + 0 + 2 = 4
        c
    }

    #[test]
    fn hand_checked_distances() {
        let mut c = tiny();
        assert_eq!(c.distances(&ids(&[1, 2, 3])), vec![0, 2, 2, 12, 4]);
        // A query with an item no ranking has: [9, 1, 2] vs [1, 2, 3]:
        // 1: |1-0| = 1, 2: |2-1| = 1, 9 missing from r: 3-0 = 3,
        // 3 missing from q: 3-2 = 1 -> 6.
        assert_eq!(c.distances(&ids(&[9, 1, 2]))[0], 6);
    }

    #[test]
    fn threshold_and_topk_follow_id_order_on_ties() {
        let mut c = tiny();
        let d = c.distances(&ids(&[1, 2, 3]));
        assert_eq!(
            threshold(&d, 2),
            vec![RankingId(0), RankingId(1), RankingId(2)]
        );
        assert_eq!(threshold(&d, 0), vec![RankingId(0)]);
        assert_eq!(
            topk(&d, 2),
            vec![(0, RankingId(0)), (2, RankingId(1))],
            "the tie at distance 2 resolves to the smaller id"
        );
        assert_eq!(topk(&d, 10).len(), 5);
    }

    #[test]
    fn removed_ids_never_match() {
        let mut c = tiny();
        assert!(c.remove(RankingId(1)));
        assert!(!c.remove(RankingId(1)));
        let d = c.distances(&ids(&[1, 2, 3]));
        assert_eq!(threshold(&d, 2), vec![RankingId(0), RankingId(2)]);
        assert_eq!(topk(&d, 2), vec![(0, RankingId(0)), (2, RankingId(2))]);
    }

    #[test]
    fn expected_splits_work_across_threads_in_order() {
        let c = tiny();
        let qs = vec![ids(&[1, 2, 3]), ids(&[7, 8, 9]), ids(&[3, 2, 1])];
        let e = expected(&c, &qs, 0, 1, 2);
        assert_eq!(e.threshold[0], vec![RankingId(0)]);
        assert_eq!(e.threshold[1], vec![RankingId(3)]);
        assert_eq!(e.topk[2], vec![(0, RankingId(4))]);
    }
}
