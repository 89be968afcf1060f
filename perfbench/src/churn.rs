//! `nyt-churn`: threshold and top-k reads beside inserts and removes on
//! a durable snapshot engine, with auto-compaction firing a fixed number
//! of times per run.
//!
//! Set-up time is `SnapshotEngine::recover_from_snapshot` over a
//! snapshot plus a fixed WAL tail, both written while preparing. The
//! load is a closed loop of [`CLIENTS`] threads running a fixed op count
//! in [`SEGMENTS`] segments; between segments the clients pause, the
//! engine is flushed, and a fixed sample of answers is checked against
//! the benchmark's own live-set model.

use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use ranksim_core::engine::{Algorithm, EngineBuilder, QueryTrace};
use ranksim_core::{load_engine, save_engine, LoadMode, SnapshotEngine, SnapshotMeta, SyncPolicy};
use ranksim_datasets::{nyt_like, perturb_ranking};
use ranksim_rankings::{raw_threshold, ItemId, QueryStats, RankingId};

use crate::common::*;
use crate::oracle::{self, Corpus};
use crate::stats::{median, Samples};
use crate::trace::{self, Tracer, ROOT};
use crate::Outcome;

/// Corpus size.
pub const N: usize = 100_000;
const THETA: f64 = 0.1;
/// Ops per requested second of run time: the op count is fixed for a
/// given `--seconds`, so every run does the same work and fires the
/// same number of compactions.
const OPS_PER_SECOND: usize = 1_600;
/// Writes in the WAL tail replayed by every recovery.
const TAIL_OPS: usize = 200;
/// Compaction threshold target: this many threshold crossings fit into
/// the tail's and the run's removes, so 3 compactions fire per run.
const COMPACTION_CROSSINGS: f64 = 3.5;
const SEGMENTS: usize = 5;
const CHECK_QUERIES: usize = 16;
const RECOVERIES: usize = 3;
const POOL: usize = 4096;
const WARMUP_READS: usize = 500;
/// Reads per thread after each compaction reported as its own epoch.
const EPOCH_WINDOW: usize = 64;
pub const POLICY: SyncPolicy = SyncPolicy::GroupCommit {
    max_ops: 32,
    max_delay: Duration::from_millis(5),
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    TopK,
    Insert,
    Remove,
}

/// Out of every 20 ops: 16 threshold reads, 2 top-k, 1 insert, 1 remove.
const MIX: [(Op, usize); 4] = [
    (Op::Read, 16),
    (Op::TopK, 2),
    (Op::Insert, 1),
    (Op::Remove, 1),
];

fn schedule(ops: usize, rng: &mut StdRng) -> Vec<Op> {
    let mut v = Vec::with_capacity(ops);
    for (op, per20) in MIX {
        v.extend(std::iter::repeat_n(op, ops * per20 / 20));
    }
    v.shuffle(rng);
    v
}

/// The benchmark's own record of every acknowledged write.
#[derive(Clone)]
struct Model {
    corpus: Corpus,
    live: Vec<RankingId>,
    /// `pos[id] = index in live + 1` (0 = not live).
    pos: Vec<u32>,
}

impl Model {
    fn new(corpus: Corpus) -> Self {
        let live: Vec<RankingId> = (0..corpus.id_space() as u32)
            .map(RankingId)
            .filter(|&id| corpus.is_live(id))
            .collect();
        let mut pos = vec![0u32; corpus.id_space()];
        for (i, id) in live.iter().enumerate() {
            pos[id.index()] = i as u32 + 1;
        }
        Model { corpus, live, pos }
    }

    fn random_live(&self, rng: &mut StdRng) -> RankingId {
        self.live[rng.random_range(0..self.live.len())]
    }

    /// Takes a random live id out of the model before it is removed
    /// from the engine, so no other client picks it too.
    fn take_random_live(&mut self, rng: &mut StdRng) -> RankingId {
        let id = self.random_live(rng);
        let i = self.pos[id.index()] as usize - 1;
        self.live.swap_remove(i);
        if i < self.live.len() {
            self.pos[self.live[i].index()] = i as u32 + 1;
        }
        self.pos[id.index()] = 0;
        self.corpus.remove(id);
        id
    }

    /// Records an acknowledged insert; `false` if the id was live.
    fn insert(&mut self, id: RankingId, items: &[ItemId]) -> bool {
        if self.corpus.is_live(id) {
            return false;
        }
        self.corpus.set(id, items);
        if id.index() >= self.pos.len() {
            self.pos.resize(id.index() + 1, 0);
        }
        self.live.push(id);
        self.pos[id.index()] = self.live.len() as u32;
        true
    }
}

/// One read of the traced phase, for the compaction-epoch split.
struct EpochRead {
    epoch: usize,
    seq: usize,
    us: f64,
    pick: Option<usize>,
}

/// What one client thread saw.
#[derive(Default)]
struct Client {
    phase: Phase,
    exec: ExecAgg,
    pin_us: Samples,
    engine_us: Samples,
    engine_self_us: Samples,
    topk_us: Samples,
    tree_nodes: u64,
    topk_distance_calls: u64,
    write_us: Samples,
    delta_len_sum: u64,
    reads_traced: u64,
    publish_lag_max: u64,
    compactions: usize,
    epoch_reads: Vec<EpochRead>,
}

struct Files {
    snapshot: PathBuf,
    wal: PathBuf,
    wal_pristine: PathBuf,
    end_state: PathBuf,
}

fn recover(files: &Files) -> Result<(SnapshotEngine, f64, u64), String> {
    let t = Instant::now();
    let (se, report) = SnapshotEngine::recover_from_snapshot(
        &files.snapshot,
        &files.wal,
        POLICY,
        LoadMode::Verify,
    )
    .map_err(|e| format!("recover_from_snapshot: {e}"))?;
    Ok((se, t.elapsed().as_secs_f64(), report.applied))
}

fn restore_wal(files: &Files) -> Result<(), String> {
    std::fs::copy(&files.wal_pristine, &files.wal)
        .map(|_| ())
        .map_err(|e| format!("restore WAL: {e}"))
}

/// Flushes and checks the live count plus a fixed sample of threshold
/// and top-k answers against the model; returns mismatches.
fn check(se: &SnapshotEngine, model: &mut Model, queries: &[Vec<ItemId>], raw: u32) -> u64 {
    if !se.flush() {
        eprintln!("nyt-churn: publisher died before the check");
        return 1;
    }
    let snap = se.snapshot();
    let mut wrong = 0;
    if snap.live_len() != model.live.len() {
        eprintln!(
            "nyt-churn: engine has {} live rankings, model {}",
            snap.live_len(),
            model.live.len()
        );
        wrong += 1;
    }
    let mut scratch = snap.scratch();
    let mut stats = QueryStats::new();
    let mut out = Vec::new();
    for q in queries {
        let d = model.corpus.distances(q);
        snap.query_into(Algorithm::Auto, q, raw, &mut scratch, &mut stats, &mut out);
        out.sort_unstable();
        if out != oracle::threshold(&d, raw) {
            eprintln!("nyt-churn: threshold answer differs from the model");
            wrong += 1;
        }
        if snap.query_topk(q, TOPK, &mut scratch, &mut stats) != oracle::topk(&d, TOPK) {
            eprintln!("nyt-churn: top-k answer differs from the model");
            wrong += 1;
        }
    }
    wrong
}

#[allow(clippy::too_many_arguments)]
fn client(
    se: &SnapshotEngine,
    model: &Mutex<Model>,
    pool: &[Vec<ItemId>],
    ops: &[Op],
    raw: u32,
    domain: u32,
    barrier: &Barrier,
    mut rng: StdRng,
    tracer: &mut Tracer,
    thread: u64,
) -> Client {
    let mut c = Client::default();
    let traced = tracer.enabled();
    let lock = || model.lock().expect("model lock poisoned");
    let mut scratch = se.snapshot().scratch();
    let mut stats = QueryStats::new();
    let mut out = Vec::new();
    let mut last_tombstones = usize::MAX;
    let (mut epoch, mut seq) = (0usize, 0usize);
    // Warm-up reads (unmeasured) while the main thread runs the first
    // check: scratch buffers grow and the planner explores.
    for _ in 0..WARMUP_READS {
        let q = &pool[rng.random_range(0..pool.len())];
        se.snapshot()
            .query_into(Algorithm::Auto, q, raw, &mut scratch, &mut stats, &mut out);
    }
    let seg_len = ops.len().div_ceil(SEGMENTS);
    for (n, segment) in ops.chunks(seg_len).enumerate() {
        barrier.wait();
        for (i, &op) in segment.iter().enumerate() {
            let request = (thread << 40) | (n * seg_len + i) as u64;
            match op {
                Op::Read => {
                    let q = &pool[rng.random_range(0..pool.len())];
                    let t0 = Instant::now();
                    let snap = se.snapshot();
                    let t1 = traced.then(Instant::now);
                    let tr: QueryTrace = snap.query_into_traced(
                        Algorithm::Auto,
                        q,
                        raw,
                        &mut scratch,
                        &mut stats,
                        &mut out,
                    );
                    let t2 = traced.then(Instant::now);
                    let tombstones = snap.base_tombstones();
                    let delta = snap.delta_len();
                    drop(snap);
                    let t3 = Instant::now();
                    c.phase.read.push(ms(t0, t3));
                    if tombstones < last_tombstones && last_tombstones != usize::MAX {
                        epoch += 1;
                        seq = 0;
                    }
                    last_tombstones = tombstones;
                    if let (Some(t1), Some(t2)) = (t1, t2) {
                        let root = tracer.record("read", t0, t3, ROOT, request);
                        tracer.record("snapshot.pin", t0, t1, root, request);
                        tracer.record("engine.query", t1, t2, root, request);
                        c.pin_us.push(ms(t0, t1) * 1e3);
                        let q_us = ms(t1, t2) * 1e3;
                        c.engine_us.push(q_us);
                        c.engine_self_us.push((q_us - tr.actual_ns / 1e3).max(0.0));
                        c.exec.add_trace(&tr);
                        c.delta_len_sum += delta as u64;
                        c.reads_traced += 1;
                        c.epoch_reads.push(EpochRead {
                            epoch,
                            seq,
                            us: ms(t0, t3) * 1e3,
                            pick: tr.algorithm.dense_index(),
                        });
                    }
                    seq += 1;
                }
                Op::TopK => {
                    let q = &pool[rng.random_range(0..pool.len())];
                    let mut st = QueryStats::new();
                    let t0 = Instant::now();
                    let snap = se.snapshot();
                    let t1 = traced.then(Instant::now);
                    let res = snap.query_topk(q, TOPK, &mut scratch, &mut st);
                    let t2 = traced.then(Instant::now);
                    drop(snap);
                    let t3 = Instant::now();
                    if res.len() == TOPK {
                        c.phase.topk.push(ms(t0, t3));
                    } else {
                        c.phase.wrong += 1;
                    }
                    if let (Some(t1), Some(t2)) = (t1, t2) {
                        let root = tracer.record("topk", t0, t3, ROOT, request);
                        tracer.record("snapshot.pin", t0, t1, root, request);
                        tracer.record("metricspace.topk", t1, t2, root, request);
                        c.pin_us.push(ms(t0, t1) * 1e3);
                        c.topk_us.push(ms(t1, t2) * 1e3);
                        c.tree_nodes += st.tree_nodes_visited;
                        c.topk_distance_calls += st.distance_calls;
                    }
                }
                Op::Insert => {
                    let mut items = {
                        let m = lock();
                        m.corpus
                            .items(m.random_live(&mut rng))
                            .iter()
                            .map(|&i| ItemId(i))
                            .collect::<Vec<_>>()
                    };
                    perturb_ranking(&mut items, domain, PERTURB, &mut rng);
                    let t0 = Instant::now();
                    let res = se.try_insert_ranking(&items);
                    let t1 = Instant::now();
                    match res {
                        Ok(id) => {
                            c.phase.write.push(ms(t0, t1));
                            if !lock().insert(id, &items) {
                                eprintln!("nyt-churn: insert returned live id {id:?}");
                                c.phase.wrong += 1;
                            }
                        }
                        Err(e) => {
                            eprintln!("nyt-churn: insert failed: {e}");
                            c.phase.write.fail();
                        }
                    }
                    c.after_write(se, tracer, t0, t1, request);
                }
                Op::Remove => {
                    let victim = lock().take_random_live(&mut rng);
                    let t0 = Instant::now();
                    let res = se.try_remove_ranking(victim);
                    let t1 = Instant::now();
                    match res {
                        Ok(true) => c.phase.write.push(ms(t0, t1)),
                        Ok(false) => {
                            eprintln!("nyt-churn: live id {victim:?} was not removable");
                            c.phase.wrong += 1;
                        }
                        Err(e) => {
                            eprintln!("nyt-churn: remove failed: {e}");
                            c.phase.write.fail();
                        }
                    }
                    c.after_write(se, tracer, t0, t1, request);
                }
            }
        }
        barrier.wait();
    }
    c.compactions = epoch;
    c
}

impl Client {
    fn after_write(
        &mut self,
        se: &SnapshotEngine,
        tracer: &mut Tracer,
        t0: Instant,
        t1: Instant,
        request: u64,
    ) {
        if !tracer.enabled() {
            return;
        }
        let root = tracer.record("write", t0, t1, ROOT, request);
        tracer.record("snapshot.write", t0, t1, root, request);
        self.write_us.push(ms(t0, t1) * 1e3);
        let lag = se.writer_pos().saturating_sub(se.published_pos());
        self.publish_lag_max = self.publish_lag_max.max(lag);
    }
}

/// One measured phase over a freshly recovered engine.
struct PhaseOut {
    phase: Phase,
    clients: Vec<Client>,
    check_wrong: u64,
    wal_bytes_written: u64,
    acked_writes: u64,
    abandoned: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    se: &SnapshotEngine,
    model: Model,
    pool: &[Vec<ItemId>],
    checks: &[Vec<ItemId>],
    ops: usize,
    raw: u32,
    domain: u32,
    seed: u64,
    traced: bool,
) -> PhaseOut {
    let model = Mutex::new(model);
    let barrier = Barrier::new(CLIENTS + 1);
    let wal_before = se.wal_bytes().unwrap_or(0);
    let epoch = Instant::now();
    let mut check_wrong = 0;
    let mut elapsed = 0.0;
    let results: Vec<(Client, Vec<trace::Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (model, barrier) = (&model, &barrier);
                let mut sched_rng = rng(seed, 100 + t as u64);
                let ops = schedule(ops / CLIENTS, &mut sched_rng);
                s.spawn(move || {
                    let mut tracer = Tracer::new(epoch, traced);
                    let c = client(
                        se,
                        model,
                        pool,
                        &ops,
                        raw,
                        domain,
                        barrier,
                        rng(seed, 200 + t as u64),
                        &mut tracer,
                        t as u64,
                    );
                    (c, tracer.into_spans())
                })
            })
            .collect();
        check_wrong += check(se, &mut model.lock().expect("model lock"), checks, raw);
        for _ in 0..SEGMENTS {
            let start = Instant::now();
            barrier.wait();
            barrier.wait();
            elapsed += start.elapsed().as_secs_f64();
            check_wrong += check(se, &mut model.lock().expect("model lock"), checks, raw);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        elapsed_s: elapsed,
        ..Phase::default()
    };
    let mut clients = Vec::new();
    let mut spans = Vec::new();
    for (mut c, s) in results {
        phase.absorb(std::mem::take(&mut c.phase));
        spans.push(s);
        clients.push(c);
    }
    phase.spans = trace::merge(spans);
    phase.wrong += check_wrong;
    PhaseOut {
        acked_writes: phase.write.succeeded(),
        phase,
        clients,
        check_wrong,
        wal_bytes_written: se.wal_bytes().unwrap_or(0).saturating_sub(wal_before),
        abandoned: se.abandoned_generations(),
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool, dir: &Path) -> Result<Outcome, String> {
    let ops = OPS_PER_SECOND * seconds as usize;
    let files = Files {
        snapshot: dir.join("churn.rssn"),
        wal: dir.join("churn.wal"),
        wal_pristine: dir.join("churn.wal.pristine"),
        end_state: dir.join("churn-end.rssn"),
    };
    let ds = nyt_like(N, K, seed);
    let domain = ds.params.domain;
    let raw = raw_threshold(THETA, K);
    let mut prng = rng(seed, 1);
    let pool = query_pool(&ds.store, domain, POOL, &mut prng);
    let checks: Vec<Vec<ItemId>> = pool[..CHECK_QUERIES].to_vec();
    let mut model = Model::new(corpus_of(&ds.store));

    // The compaction threshold is stored in the snapshot: base removes
    // in the tail plus the run cross it COMPACTION_CROSSINGS times.
    let removes = (TAIL_OPS / 2 + ops / 20) as f64;
    let fraction = removes / COMPACTION_CROSSINGS / N as f64;
    let engine = EngineBuilder::new(ds.store)
        .topk_tree(true)
        .compaction_threshold(fraction)
        .build();
    let heap_one_copy = engine.heap_bytes();
    save_engine(&files.snapshot, &engine, SnapshotMeta::default())
        .map_err(|e| format!("save snapshot: {e}"))?;
    {
        let se = SnapshotEngine::with_wal(engine, &files.wal, POLICY)
            .map_err(|e| format!("create WAL: {e}"))?;
        let mut wrng = rng(seed, 2);
        for i in 0..TAIL_OPS {
            if i % 2 == 0 {
                let mut items: Vec<ItemId> = model
                    .corpus
                    .items(model.random_live(&mut wrng))
                    .iter()
                    .map(|&i| ItemId(i))
                    .collect();
                perturb_ranking(&mut items, domain, PERTURB, &mut wrng);
                let id = se
                    .try_insert_ranking(&items)
                    .map_err(|e| format!("tail insert: {e}"))?;
                if !model.insert(id, &items) {
                    return Err(format!("tail insert returned live id {id:?}"));
                }
            } else {
                let victim = model.take_random_live(&mut wrng);
                if !se
                    .try_remove_ranking(victim)
                    .map_err(|e| format!("tail remove: {e}"))?
                {
                    return Err(format!("tail remove of live id {victim:?} refused"));
                }
            }
        }
        se.sync_wal().map_err(|e| format!("sync WAL: {e}"))?;
    }
    std::fs::copy(&files.wal, &files.wal_pristine).map_err(|e| format!("copy WAL: {e}"))?;

    // Set-up: recovery, repeated; the last recovered engine serves.
    let mut setup_s = Vec::new();
    let mut replay_ops_per_s = Vec::new();
    let mut se = None;
    for _ in 0..RECOVERIES {
        drop(se.take());
        restore_wal(&files)?;
        let (engine, secs, applied) = recover(&files)?;
        setup_s.push(secs);
        replay_ops_per_s.push(applied as f64 / secs);
        se = Some(engine);
    }
    let se = se.expect("at least one recovery");
    let untraced = run_phase(
        &se,
        model.clone(),
        &pool,
        &checks,
        ops,
        raw,
        domain,
        seed,
        false,
    );
    // End-of-run memory, measured on a checkpoint/reload round trip of
    // the published state: in memory, a replica's Vec capacity slack
    // depends on which generation happened to be forked last.
    let live = se.snapshot().live_len().max(1) as f64;
    let stored = (file_len(&files.snapshot) + se.wal_bytes().unwrap_or(0)) as f64 / live;
    se.checkpoint(&files.end_state)
        .map_err(|e| format!("checkpoint: {e}"))?;
    drop(se);
    let (reloaded, _) =
        load_engine(&files.end_state, LoadMode::Trust).map_err(|e| format!("reload: {e}"))?;
    let heap_bytes_per_ranking = reloaded.heap_bytes() as f64 / reloaded.live_len().max(1) as f64;
    drop(reloaded);

    let mut outcome = Outcome {
        setup_s,
        heap_bytes_per_ranking,
        stored_bytes_per_ranking: Some(stored),
        untraced: untraced.phase,
        traced: None,
        layers: Layers::new(),
        env: vec![
            ("corpus", format!("nyt-like n={N} k={K} zipf=0.87")),
            ("theta", THETA.to_string()),
            ("ops", ops.to_string()),
            (
                "mix",
                "80% threshold, 10% top-10, 5% insert, 5% remove".into(),
            ),
            ("wal_policy", POLICY.to_string()),
            ("wal_tail_ops", TAIL_OPS.to_string()),
            ("compaction_threshold", fraction.to_string()),
            ("worker_threads", "1 publisher".into()),
            ("engine_heap_bytes", heap_one_copy.to_string()),
            (
                "engine_copies",
                "3 (writer master, published head, standby)".into(),
            ),
            (
                "compactions_untraced",
                untraced
                    .clients
                    .iter()
                    .map(|c| c.compactions)
                    .max()
                    .unwrap_or(0)
                    .to_string(),
            ),
        ],
    };
    if !traced {
        return Ok(outcome);
    }

    // Traced phase over an identical starting state.
    let load_t = Instant::now();
    let loaded =
        load_engine(&files.snapshot, LoadMode::Verify).map_err(|e| format!("load: {e}"))?;
    let load_s = load_t.elapsed().as_secs_f64();
    drop(loaded);
    restore_wal(&files)?;
    let (se, _, _) = recover(&files)?;
    let out = run_phase(&se, model, &pool, &checks, ops, raw, domain, seed, true);
    drop(se);
    let l = &mut outcome.layers;
    let mut exec = ExecAgg::default();
    let (mut pin, mut eng, mut eng_self, mut topk_us, mut write_us) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let (mut nodes, mut tdc, mut delta_sum, mut reads, mut lag) = (0, 0, 0, 0, 0);
    let mut compactions = 0;
    for c in &out.clients {
        exec.merge(&c.exec);
        pin.extend(&c.pin_us);
        eng.extend(&c.engine_us);
        eng_self.extend(&c.engine_self_us);
        topk_us.extend(&c.topk_us);
        write_us.extend(&c.write_us);
        nodes += c.tree_nodes;
        tdc += c.topk_distance_calls;
        delta_sum += c.delta_len_sum;
        reads += c.reads_traced;
        lag = lag.max(c.publish_lag_max);
        compactions = compactions.max(c.compactions);
    }
    exec.put(l);
    put_us(l, "engine.query_us", &eng);
    l.insert("engine.self_us_p50".into(), eng_self.p50().unwrap_or(0.0));
    l.insert("engine.delta_len_mean".into(), ratio(delta_sum, reads));
    put_us(l, "metricspace.topk_us", &topk_us);
    let topks = out.phase.topk.succeeded();
    l.insert(
        "metricspace.tree_nodes_per_topk".into(),
        ratio(nodes, topks),
    );
    l.insert(
        "metricspace.distance_calls_per_topk".into(),
        ratio(tdc, topks),
    );
    put_us(l, "snapshot.pin_us", &pin);
    put_us(l, "snapshot.write_us", &write_us);
    l.insert("snapshot.compactions".into(), compactions as f64);
    l.insert("snapshot.write_stall_ms_max".into(), write_us.max() / 1e3);
    l.insert("snapshot.publish_lag_ops_max".into(), lag as f64);
    l.insert(
        "snapshot.abandoned_generations".into(),
        out.abandoned as f64,
    );
    l.insert("snapshot.recover_s".into(), median(&outcome.setup_s));
    l.insert(
        "wal.bytes_per_write".into(),
        ratio(out.wal_bytes_written, out.acked_writes),
    );
    l.insert("wal.replay_ops_per_s".into(), median(&replay_ops_per_s));
    l.insert("persist.load_s".into(), load_s);
    l.insert(
        "persist.snapshot_bytes_per_ranking".into(),
        file_len(&files.snapshot) as f64 / N as f64,
    );
    put_epochs(l, &out.clients);
    if out.check_wrong > 0 {
        eprintln!("nyt-churn: {} traced-phase checks failed", out.check_wrong);
    }
    outcome.traced = Some(out.phase);
    Ok(outcome)
}

/// The compaction-epoch split: each thread's first [`EPOCH_WINDOW`]
/// reads after each compaction (`post_compaction`) against all other
/// reads (`rest`), with planner picks for both, plus the last
/// [`EPOCH_WINDOW`] reads before each compaction (`pre_compaction`).
fn put_epochs(l: &mut Layers, clients: &[Client]) {
    let (mut pre, mut post, mut rest) = (Samples::new(), Samples::new(), Samples::new());
    let (mut post_picks, mut rest_picks) = ([0u64; Algorithm::COUNT], [0u64; Algorithm::COUNT]);
    for c in clients {
        let mut per_epoch = vec![0usize; c.compactions + 1];
        for r in &c.epoch_reads {
            per_epoch[r.epoch] += 1;
        }
        for r in &c.epoch_reads {
            let picks = if r.epoch > 0 && r.seq < EPOCH_WINDOW {
                post.push(r.us);
                &mut post_picks
            } else {
                rest.push(r.us);
                &mut rest_picks
            };
            if let Some(p) = r.pick {
                picks[p] += 1;
            }
            if r.epoch < c.compactions && r.seq + EPOCH_WINDOW >= per_epoch[r.epoch] {
                pre.push(r.us);
            }
        }
    }
    for (name, us) in [
        ("pre_compaction", &pre),
        ("post_compaction", &post),
        ("rest", &rest),
    ] {
        l.insert(format!("epoch.{name}.read_us_p50"), us.p50().unwrap_or(0.0));
        l.insert(format!("epoch.{name}.reads"), us.attempted() as f64);
    }
    for (name, picks) in [("post_compaction", &post_picks), ("rest", &rest_picks)] {
        let total: u64 = picks.iter().sum();
        for (pick, &n) in PICK_NAMES.iter().zip(picks) {
            l.insert(format!("epoch.{name}.pick_frac.{pick}"), ratio(n, total));
        }
    }
}
