//! Differential harness for the engine-level distance kernels: an
//! engine built with the SIMD kernel must be **indistinguishable** from
//! the scalar oracle — across every algorithm of the paper's
//! evaluation, the `Auto` planner, exact top-k, and through the mutable
//! delta plane.
//!
//! Thresholds compare canonical (sorted) result sets; top-k answers
//! must be bit-identical `(distance, id)` sequences.

use proptest::prelude::*;
use ranksim::datasets::nyt_like;
use ranksim::prelude::*;

/// The non-oracle kernels.
const ARMS: [Kernel; 1] = [Kernel::Simd];

fn corpus(n: usize, k: usize, domain: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(
        proptest::sample::subsequence((0..domain).collect::<Vec<u32>>(), k).prop_shuffle(),
        n,
    )
}

fn store_of(rankings: &[Vec<u32>]) -> RankingStore {
    let k = rankings[0].len();
    let mut store = RankingStore::new(k);
    for r in rankings {
        store
            .push(&Ranking::new(r.iter().copied()).unwrap())
            .unwrap();
    }
    store
}

fn grid_engine(store: RankingStore, kernel: Kernel) -> Engine {
    EngineBuilder::new(store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .topk_tree(true)
        .kernel(kernel)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every algorithm plus `Auto` plus top-k: each kernel arm equals the
    /// scalar oracle on random corpora and mixed θ (the high end drives
    /// the kernel's suffix-bound abort).
    #[test]
    fn grid_arms_equal_the_scalar_unordered_oracle(
        rankings in corpus(70, 6, 22),
        query in proptest::sample::subsequence((0..22u32).collect::<Vec<u32>>(), 6).prop_shuffle(),
        theta in 0.0f64..0.5,
        neighbours in 1usize..20,
    ) {
        let store = store_of(&rankings);
        let raw = raw_threshold(theta, 6);
        let q: Vec<ItemId> = query.into_iter().map(ItemId).collect();
        let oracle = grid_engine(store.clone(), Kernel::Scalar);
        let mut oscratch = oracle.scratch();
        let mut ostats = QueryStats::new();
        let topk_expect = oracle.query_topk(&q, neighbours, &mut oscratch, &mut ostats);
        for kernel in ARMS {
            let arm = grid_engine(store.clone(), kernel);
            prop_assert_eq!(arm.kernel(), kernel);
            let mut scratch = arm.scratch();
            let mut stats = QueryStats::new();
            for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let mut expect = oracle.query_items(alg, &q, raw, &mut oscratch, &mut ostats);
                expect.sort_unstable();
                let mut got = arm.query_items(alg, &q, raw, &mut scratch, &mut stats);
                got.sort_unstable();
                prop_assert_eq!(
                    got, expect,
                    "{} {:?} θ={}", alg, kernel, theta
                );
            }
            let topk = arm.query_topk(&q, neighbours, &mut scratch, &mut stats);
            prop_assert_eq!(&topk, &topk_expect, "top-k {:?}", kernel);
        }
    }

    /// The kernel arms stay equivalent **through mutations**: inserts land
    /// in the delta overlay, removals in the tombstone plane — answers
    /// must keep matching the oracle engine mutated identically.
    #[test]
    fn grid_arms_stay_equivalent_through_mutations(
        rankings in corpus(50, 5, 16),
        inserts in corpus(6, 5, 16),
        query in proptest::sample::subsequence((0..16u32).collect::<Vec<u32>>(), 5).prop_shuffle(),
        theta in 0.0f64..0.4,
        victim in 0u32..50,
    ) {
        let store = store_of(&rankings);
        let raw = raw_threshold(theta, 5);
        let q: Vec<ItemId> = query.into_iter().map(ItemId).collect();
        let mutate = |engine: &mut Engine| {
            for ins in &inserts {
                let items: Vec<ItemId> = ins.iter().copied().map(ItemId).collect();
                engine.insert_ranking(&items);
            }
            engine.remove_ranking(RankingId(victim));
        };
        let mut oracle = grid_engine(store.clone(), Kernel::Scalar);
        mutate(&mut oracle);
        let mut oscratch = oracle.scratch();
        let mut ostats = QueryStats::new();
        for kernel in ARMS {
            let mut arm = grid_engine(store.clone(), kernel);
            mutate(&mut arm);
            let mut scratch = arm.scratch();
            let mut stats = QueryStats::new();
            for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let mut expect = oracle.query_items(alg, &q, raw, &mut oscratch, &mut ostats);
                expect.sort_unstable();
                let mut got = arm.query_items(alg, &q, raw, &mut scratch, &mut stats);
                got.sort_unstable();
                prop_assert_eq!(
                    got, expect,
                    "{} {:?} θ={} after mutations", alg, kernel, theta
                );
            }
        }
    }
}

/// Tight thresholds on a realistic corpus: the SIMD kernel's early
/// abort fires on most validations at θ = 0.05 (raw 5 at k = 10), and
/// results must still equal the scalar oracle's.
#[test]
fn tight_thresholds_simd_equals_scalar() {
    let ds = nyt_like(2000, 10, 91);
    let oracle = grid_engine(ds.store.clone(), Kernel::Scalar);
    let simd = grid_engine(ds.store.clone(), Kernel::Simd);
    let raw = raw_threshold(0.05, 10);
    let mut oscratch = oracle.scratch();
    let mut sscratch = simd.scratch();
    let mut ostats = QueryStats::new();
    let mut sstats = QueryStats::new();
    for probe in 0..40u32 {
        let q = ds.store.items(RankingId(probe * 7)).to_vec();
        for alg in Algorithm::ALL {
            let mut expect = oracle.query_items(alg, &q, raw, &mut oscratch, &mut ostats);
            expect.sort_unstable();
            let mut got = simd.query_items(alg, &q, raw, &mut sscratch, &mut sstats);
            got.sort_unstable();
            assert_eq!(got, expect, "{alg} at tight θ");
        }
    }
    assert!(
        sstats.validations_pruned > 0,
        "tight θ must exercise the SIMD kernel's early abort"
    );
    assert_eq!(
        ostats.validations_pruned, 0,
        "the scalar oracle never aborts a validation"
    );
}
