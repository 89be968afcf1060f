//! `nyt-distributed`: threshold and top-k reads through the router of a
//! fleet of shard worker processes (`RemoteShardedEngine`).
//!
//! The corpus is sharded by medoid routing and saved as per-shard
//! snapshot files; set-up time is `RemoteShardedEngine::launch`, which
//! spawns one worker process per shard (this binary, entering through
//! `ranksim_core::serve_from_env`). The router takes `&mut self`, so the
//! closed-loop clients share it behind a lock and lock wait counts in
//! latency. The traced run adds an in-process `ShardedEngine` phase on
//! the same queries, loaded from the same snapshot directory: the base
//! the router's own cost is measured against.

use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rand::Rng;
use ranksim_core::engine::Algorithm;
use ranksim_core::shard::{ShardStrategy, ShardedEngine, ShardedEngineBuilder};
use ranksim_core::{
    load_sharded, save_sharded, LoadMode, PlanStats, RemoteOptions, RemoteShardedEngine, WorkerSpec,
};
use ranksim_datasets::nyt_like;
use ranksim_rankings::{raw_threshold, ItemId, QueryStats};

use crate::common::*;
use crate::oracle::{self, Expected};
use crate::stats::{median, Samples};
use crate::trace::{self, Span, Tracer, ROOT};
use crate::Outcome;

pub const N: usize = 100_000;
pub const SHARDS: usize = 4;
const THETA: f64 = 0.1;
/// Share of reads that are threshold reads (the rest are top-k).
const THRESHOLD_SHARE: f64 = 0.8;
const POOL: usize = 1024;
const LAUNCHES: usize = 3;
/// Reads per client before timing.
const WARMUP: usize = 200;

/// A first-come-first-served lock around the shared router. Under a
/// plain mutex the client that just released the router usually takes
/// it straight back, so how long a read waits would depend on scheduler
/// luck; with turns taken in arrival order every read waits for exactly
/// the operation in progress.
struct FifoLock<T> {
    /// (next ticket to hand out, ticket being served)
    turns: Mutex<(u64, u64)>,
    turn_cv: Condvar,
    inner: Mutex<T>,
}

struct FifoGuard<'a, T> {
    lock: &'a FifoLock<T>,
    inner: Option<MutexGuard<'a, T>>,
}

impl<T> FifoLock<T> {
    fn new(value: T) -> Self {
        FifoLock {
            turns: Mutex::new((0, 0)),
            turn_cv: Condvar::new(),
            inner: Mutex::new(value),
        }
    }

    fn lock(&self) -> FifoGuard<'_, T> {
        let mut turns = self.turns.lock().expect("turn lock poisoned");
        let ticket = turns.0;
        turns.0 += 1;
        while turns.1 != ticket {
            turns = self.turn_cv.wait(turns).expect("turn lock poisoned");
        }
        drop(turns);
        FifoGuard {
            lock: self,
            inner: Some(self.inner.lock().expect("router lock poisoned")),
        }
    }
}

impl<T> std::ops::Deref for FifoGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("held until drop")
    }
}

impl<T> std::ops::DerefMut for FifoGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("held until drop")
    }
}

impl<T> Drop for FifoGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        let mut turns = self.lock.turns.lock().unwrap_or_else(|e| e.into_inner());
        turns.1 += 1;
        drop(turns);
        self.lock.turn_cv.notify_all();
    }
}

/// What a client saw beyond the end-to-end samples.
#[derive(Default)]
struct Client {
    phase: Phase,
    wait_us: Samples,
    call_us: [Samples; 2],
    fanout: [(u64, u64, u64); 2],
    exec: ExecAgg,
    spans: Vec<Span>,
}

/// The closed loop both phases run on [`CLIENTS`] threads: unmeasured
/// warm-up reads, then `--seconds` of reads, each performed and recorded
/// into the thread's [`Client`] by `op(threshold?, query, ..)`.
fn closed_loop<F>(seconds: u64, seed: u64, traced: bool, pool_len: usize, op: F) -> Vec<Client>
where
    F: Fn(bool, usize, &mut Client, &mut Tracer, u64) + Sync,
{
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let op = &op;
                s.spawn(move || {
                    let mut rng = rng(seed, 400 + t as u64);
                    let mut c = Client::default();
                    let mut tracer = Tracer::new(epoch, false);
                    for i in 0..WARMUP {
                        let q = rng.random_range(0..pool_len);
                        op(
                            i % 5 != 0,
                            q,
                            &mut c,
                            &mut tracer,
                            ((t as u64) << 40) | i as u64,
                        );
                    }
                    let wrong_in_warmup = c.phase.wrong;
                    c = Client::default();
                    c.phase.wrong = wrong_in_warmup;
                    let mut tracer = Tracer::new(epoch, traced);
                    let start = Instant::now();
                    let end = start + Duration::from_secs(seconds);
                    let mut i = 0u64;
                    while Instant::now() < end {
                        let threshold = rng.random_bool(THRESHOLD_SHARE);
                        let q = rng.random_range(0..pool_len);
                        op(threshold, q, &mut c, &mut tracer, ((t as u64) << 40) | i);
                        i += 1;
                    }
                    c.phase.elapsed_s = start.elapsed().as_secs_f64();
                    c.spans = tracer.into_spans();
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn fold(clients: Vec<Client>) -> (Phase, Client) {
    let mut phase = Phase::default();
    let mut rest = Client::default();
    let mut spans = Vec::new();
    for mut c in clients {
        phase.elapsed_s = phase.elapsed_s.max(c.phase.elapsed_s);
        phase.absorb(std::mem::take(&mut c.phase));
        rest.wait_us.extend(&c.wait_us);
        for k in 0..2 {
            rest.call_us[k].extend(&c.call_us[k]);
            rest.fanout[k].0 += c.fanout[k].0;
            rest.fanout[k].1 += c.fanout[k].1;
            rest.fanout[k].2 += c.fanout[k].2;
        }
        rest.exec.merge(&c.exec);
        spans.push(std::mem::take(&mut c.spans));
    }
    phase.spans = trace::merge(spans);
    (phase, rest)
}

fn remote_phase(
    router: &FifoLock<RemoteShardedEngine>,
    pool: &[Vec<ItemId>],
    expected: &Expected,
    raw: u32,
    seconds: u64,
    seed: u64,
    traced: bool,
) -> (Phase, Client) {
    let op = |threshold: bool, q: usize, c: &mut Client, tr: &mut Tracer, request: u64| {
        let t0 = Instant::now();
        let mut r = router.lock();
        let t1 = Instant::now();
        let before = r.stats();
        let ok = if threshold {
            r.query_threshold(Algorithm::Auto, &pool[q], raw)
                .map(|ids| ids == expected.threshold[q])
        } else {
            r.query_topk(&pool[q], TOPK)
                .map(|nn| nn == expected.topk[q])
        };
        let after = r.stats();
        drop(r);
        let t2 = Instant::now();
        let samples = if threshold {
            &mut c.phase.read
        } else {
            &mut c.phase.topk
        };
        match ok {
            Ok(true) => samples.push(ms(t0, t2)),
            Ok(false) => c.phase.wrong += 1,
            Err(e) => {
                eprintln!("nyt-distributed: query failed: {e}");
                samples.fail();
            }
        }
        if tr.enabled() {
            let (root, call) = if threshold {
                ("read", "remote.threshold")
            } else {
                ("topk", "remote.topk")
            };
            let root = tr.record(root, t0, t2, ROOT, request);
            tr.record("remote.router_wait", t0, t1, root, request);
            tr.record(call, t1, t2, root, request);
            c.wait_us.push(ms(t0, t1) * 1e3);
            let k = (!threshold) as usize;
            c.call_us[k].push(ms(t1, t2) * 1e3);
            c.fanout[k].0 += 1;
            c.fanout[k].1 += after.fanout_sent - before.fanout_sent;
            c.fanout[k].2 += after.fanout_pruned - before.fanout_pruned;
        }
    };
    fold(closed_loop(seconds, seed, traced, pool.len(), op))
}

/// The same loop against the in-process sharded engine (traced only).
fn shard_phase(
    engine: &ShardedEngine,
    pool: &[Vec<ItemId>],
    expected: &Expected,
    raw: u32,
    seconds: u64,
    seed: u64,
) -> (Phase, Client) {
    let scratches: Vec<Mutex<_>> = (0..CLIENTS).map(|_| Mutex::new(engine.scratch())).collect();
    let op = |threshold: bool, q: usize, c: &mut Client, tr: &mut Tracer, request: u64| {
        let thread = (request >> 40) as usize;
        let mut scratch = scratches[thread].lock().expect("scratch lock poisoned");
        let mut stats = QueryStats::new();
        let mut plan = PlanStats::new();
        let mut out = Vec::new();
        let t0 = Instant::now();
        let ok = if threshold {
            engine.query_into_recorded(
                Algorithm::Auto,
                &pool[q],
                raw,
                &mut scratch,
                &mut stats,
                &mut plan,
                &mut out,
            );
            out == expected.threshold[q]
        } else {
            engine.query_topk(&pool[q], TOPK, &mut scratch, &mut stats) == expected.topk[q]
        };
        let t1 = Instant::now();
        let samples = if threshold {
            &mut c.phase.read
        } else {
            &mut c.phase.topk
        };
        if ok {
            samples.push(ms(t0, t1));
        } else {
            c.phase.wrong += 1;
        }
        if tr.enabled() {
            let (root, call) = if threshold {
                ("shard.read", "shard.query")
            } else {
                ("shard.topk_read", "shard.topk")
            };
            let root = tr.record(root, t0, t1, ROOT, request);
            tr.record(call, t0, t1, root, request);
            c.call_us[(!threshold) as usize].push(ms(t0, t1) * 1e3);
            if threshold {
                c.exec
                    .add_deltas(&stats, &plan.picks, plan.predicted_ns, plan.actual_ns);
            }
        }
    };
    fold(closed_loop(seconds, seed, true, pool.len(), op))
}

fn launch(dir: &Path, exe: &Path) -> Result<RemoteShardedEngine, String> {
    RemoteShardedEngine::launch(dir, WorkerSpec::new(exe), RemoteOptions::default())
        .map_err(|e| format!("launch: {e}"))
}

pub fn run(seed: u64, seconds: u64, traced: bool, work: &Path) -> Result<Outcome, String> {
    let dir = work.join("shards");
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let ds = nyt_like(N, K, seed);
    let raw = raw_threshold(THETA, K);
    let pool = query_pool(&ds.store, ds.params.domain, POOL, &mut rng(seed, 1));
    let expected = oracle::expected(&corpus_of(&ds.store), &pool, raw, TOPK, CLIENTS);
    {
        let mut b = ShardedEngineBuilder::new(K, SHARDS, ShardStrategy::Medoid).topk_trees(true);
        b.extend_from_store(&ds.store);
        let sharded = b.build();
        save_sharded(&dir, &sharded).map_err(|e| format!("save shards: {e}"))?;
    }
    drop(ds);

    let mut setup_s = Vec::new();
    let mut router = None;
    for _ in 0..LAUNCHES {
        drop(router.take());
        let t = Instant::now();
        router = Some(launch(&dir, &exe)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let router = FifoLock::new(router.expect("at least one launch"));
    let (untraced, _) = remote_phase(&router, &pool, &expected, raw, seconds, seed, false);

    // The fleet's memory: the workers hold exactly these shard engines.
    let load_t = Instant::now();
    let local = load_sharded(&dir, LoadMode::Verify).map_err(|e| format!("load shards: {e}"))?;
    let load_s = load_t.elapsed().as_secs_f64();
    let heap = local.heap_bytes();
    let mut outcome = Outcome {
        setup_s,
        heap_bytes_per_ranking: heap as f64 / local.live_len().max(1) as f64,
        stored_bytes_per_ranking: None,
        untraced,
        traced: None,
        layers: Layers::new(),
        env: vec![
            ("corpus", format!("nyt-like n={N} k={K} zipf=0.87")),
            ("theta", THETA.to_string()),
            ("shards", SHARDS.to_string()),
            ("shard_strategy", "Medoid".into()),
            ("mix", "80% threshold, 20% top-10".into()),
            ("worker_threads", format!("{SHARDS} worker processes")),
            ("engine_heap_bytes", heap.to_string()),
            ("shard_sizes", format!("{:?}", local.shard_sizes())),
        ],
    };
    if !traced {
        return Ok(outcome);
    }

    router.lock().take_stats();
    let (phase, c) = remote_phase(&router, &pool, &expected, raw, seconds, seed, true);
    let stats = router.lock().stats();
    let (shard, s) = shard_phase(&local, &pool, &expected, raw, seconds, seed);
    let l = &mut outcome.layers;
    s.exec.put(l);
    put_us(l, "remote.threshold_us", &c.call_us[0]);
    put_us(l, "remote.topk_us", &c.call_us[1]);
    l.insert(
        "remote.router_wait_us_p50".into(),
        c.wait_us.p50().unwrap_or(0.0),
    );
    l.insert(
        "remote.fanout_per_query".into(),
        ratio(c.fanout[0].1, c.fanout[0].0),
    );
    l.insert(
        "remote.topk_fanout_per_query".into(),
        ratio(c.fanout[1].1, c.fanout[1].0),
    );
    l.insert(
        "remote.pruned_frac".into(),
        ratio(c.fanout[0].2, c.fanout[0].1 + c.fanout[0].2),
    );
    l.insert("remote.hedges".into(), stats.hedges as f64);
    l.insert("remote.worker_deaths".into(), stats.worker_deaths as f64);
    l.insert("remote.respawns".into(), stats.respawns as f64);
    l.insert("remote.launch_s".into(), median(&outcome.setup_s));
    l.insert("persist.load_s".into(), load_s);
    let stored: u64 = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| file_len(&e.path()))
        .sum();
    l.insert(
        "persist.snapshot_bytes_per_ranking".into(),
        stored as f64 / N as f64,
    );
    put_us(l, "shard.query_us", &s.call_us[0]);
    l.insert(
        "remote.self_us_p50".into(),
        c.call_us[0].p50().unwrap_or(0.0) - s.call_us[0].p50().unwrap_or(0.0),
    );
    let mut phase = phase;
    phase.wrong += shard.wrong;
    let remote_spans = std::mem::take(&mut phase.spans);
    phase.spans = trace::merge(vec![remote_spans, shard.spans]);
    outcome.traced = Some(phase);
    Ok(outcome)
}
