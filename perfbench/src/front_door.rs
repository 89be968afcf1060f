//! `yago-front-door`: small threshold reads offered on a fixed schedule
//! to the serving front door (`ranksim_bench::serve::ServeCore`).
//!
//! One thread submits each read when it is due through `submit_read`
//! and hands the reply receiver to a second thread, which collects the
//! replies in order. Latency runs from when the read was due, so a stall
//! also charges the reads queued behind it. The traced run adds a second
//! traced phase in which the same schedule calls the engine directly
//! (`snapshot().query_into_traced`); the difference estimates the front
//! door's own cost.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use ranksim_bench::serve::{ReadReply, ServeCore, ServeRunConfig};
use ranksim_core::engine::{Algorithm, EngineBuilder};
use ranksim_core::SnapshotEngine;
use ranksim_datasets::yago_like;
use ranksim_rankings::{raw_threshold, ItemId, QueryStats, RankingId, RankingStore};

use crate::common::*;
use crate::oracle;
use crate::stats::Samples;
use crate::trace::{self, Tracer, ROOT};
use crate::Outcome;

/// Corpus size (the paper's Yago size).
pub const N: usize = 25_000;
const THETA: f64 = 0.05;
/// Offered reads per second: about 0.4 of the 14.8–16.4k reads/s the
/// front door sustained closed-loop with two clients on the 2-core host
/// the benchmark was sized on. At 7500/s (half) host stalls queued up
/// enough to move the median by a fifth between seeds.
pub const RATE: f64 = 6_000.0;
const POOL: usize = 2048;
const SETUPS: usize = 3;
/// Closed-loop reads before timing, so the planner finishes exploring.
const WARMUP: usize = 2_000;
const BATCH_THREADS: usize = 1;

fn config() -> ServeRunConfig {
    ServeRunConfig {
        clients: CLIENTS,
        batch_threads: BATCH_THREADS,
        duration_s: 0.0,
        write_fraction: 0.0,
        theta: THETA,
        algorithm: Algorithm::Auto,
        queue_capacity: 1024,
        batch_max: 64,
        read_budget_ms: 1000,
        idle_timeout_s: 60,
    }
}

/// A running front door: the serving core plus its dispatcher thread.
struct FrontDoor {
    core: Arc<ServeCore>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl FrontDoor {
    fn start(store: RankingStore) -> Self {
        let engine = EngineBuilder::new(store).build();
        let core = Arc::new(ServeCore::new(SnapshotEngine::new(engine), &config()));
        let dispatcher = {
            let core = core.clone();
            std::thread::spawn(move || core.dispatch_loop())
        };
        FrontDoor {
            core,
            dispatcher: Some(dispatcher),
        }
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        self.core.shutdown();
        if let Some(d) = self.dispatcher.take() {
            if d.join().is_err() {
                eprintln!("yago-front-door: dispatcher thread panicked");
            }
        }
    }
}

/// A read handed from the submitter to the collector.
struct Pending {
    index: u64,
    query: usize,
    due: Instant,
    submitted: Instant,
    reply: Option<mpsc::Receiver<ReadReply>>,
}

/// The due time of read `i` of the schedule.
fn due(start: Instant, i: usize) -> Instant {
    start + Duration::from_secs_f64(i as f64 / RATE)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

struct FrontDoorPhase {
    phase: Phase,
    round_trip_us: Samples,
    lag_ms: Samples,
}

/// The open-loop phase through the front door.
fn through_front_door(
    core: &ServeCore,
    pool: &[Vec<ItemId>],
    expected: &[Vec<RankingId>],
    raw: u32,
    reads: usize,
    seed: u64,
    traced: bool,
) -> FrontDoorPhase {
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now() + Duration::from_millis(5);
    let (lag_ms, (mut phase, round_trip_us, spans, last)) = std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let mut rng = rng(seed, 300);
            let mut lag = Samples::new();
            for i in 0..reads {
                let due = due(start, i);
                sleep_until(due);
                let query = rng.random_range(0..pool.len());
                let submitted = Instant::now();
                lag.push(ms(due, submitted));
                let reply = core.submit_read(pool[query].clone(), raw).ok();
                let p = Pending {
                    index: i as u64,
                    query,
                    due,
                    submitted,
                    reply,
                };
                if tx.send(p).is_err() {
                    break;
                }
            }
            lag
        });
        let collector = s.spawn(move || {
            let mut tracer = Tracer::new(start, traced);
            let mut phase = Phase::default();
            let mut round_trip = Samples::new();
            let mut last = start;
            for p in rx {
                let reply = p.reply.map(|r| r.recv());
                let done = Instant::now();
                last = done;
                match reply {
                    Some(Ok(ReadReply::Done(mut ids))) => {
                        ids.sort_unstable();
                        if ids != expected[p.query] {
                            phase.wrong += 1;
                        }
                        phase.read.push(ms(p.due, done));
                        round_trip.push(ms(p.submitted, done) * 1e3);
                        let root = tracer.record("read", p.due, done, ROOT, p.index);
                        tracer.record("serve.round_trip", p.submitted, done, root, p.index);
                    }
                    // Shed, timed out, or the service stopped.
                    _ => phase.read.fail(),
                }
            }
            (phase, round_trip, tracer.into_spans(), last)
        });
        let lag = submitter.join().expect("submitter panicked");
        (lag, collector.join().expect("collector panicked"))
    });
    phase.elapsed_s = last.saturating_duration_since(start).as_secs_f64();
    phase.spans = spans;
    FrontDoorPhase {
        phase,
        round_trip_us,
        lag_ms,
    }
}

/// The same schedule calling the engine directly (traced run only).
fn direct(
    core: &ServeCore,
    pool: &[Vec<ItemId>],
    expected: &[Vec<RankingId>],
    raw: u32,
    reads: usize,
    seed: u64,
) -> (Phase, ExecAgg, Samples, Samples, Samples, Samples) {
    let mut rng = rng(seed, 300);
    let start = Instant::now() + Duration::from_millis(5);
    let mut tracer = Tracer::new(start, true);
    let mut phase = Phase::default();
    let (mut exec, mut pin, mut query_us, mut self_us, mut path_us) = (
        ExecAgg::default(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let mut scratch = core.engine().snapshot().scratch();
    let mut stats = QueryStats::new();
    let mut out = Vec::new();
    let mut last = start;
    for i in 0..reads {
        let due = due(start, i);
        sleep_until(due);
        let q = rng.random_range(0..pool.len());
        let t0 = Instant::now();
        let snap = core.engine().snapshot();
        let t1 = Instant::now();
        let tr = snap.query_into_traced(
            Algorithm::Auto,
            &pool[q],
            raw,
            &mut scratch,
            &mut stats,
            &mut out,
        );
        let t2 = Instant::now();
        drop(snap);
        out.sort_unstable();
        let done = Instant::now();
        last = done;
        if out != expected[q] {
            phase.wrong += 1;
        }
        phase.read.push(ms(due, done));
        let root = tracer.record("direct.read", due, done, ROOT, i as u64);
        tracer.record("snapshot.pin", t0, t1, root, i as u64);
        tracer.record("engine.query", t1, t2, root, i as u64);
        pin.push(ms(t0, t1) * 1e3);
        let q_us = ms(t1, t2) * 1e3;
        query_us.push(q_us);
        self_us.push((q_us - tr.actual_ns / 1e3).max(0.0));
        path_us.push(ms(t0, t2) * 1e3);
        exec.add_trace(&tr);
    }
    phase.elapsed_s = last.saturating_duration_since(start).as_secs_f64();
    phase.spans = tracer.into_spans();
    (phase, exec, pin, query_us, self_us, path_us)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let ds = yago_like(N, K, seed);
    let raw = raw_threshold(THETA, K);
    let pool = query_pool(&ds.store, ds.params.domain, POOL, &mut rng(seed, 1));
    let expected = oracle::expected(&corpus_of(&ds.store), &pool, raw, TOPK, CLIENTS).threshold;
    let reads = (RATE * seconds as f64) as usize;

    let mut setup_s = Vec::new();
    let mut door = None;
    for _ in 0..SETUPS {
        drop(door.take());
        let store = ds.store.clone();
        let t = Instant::now();
        door = Some(FrontDoor::start(store));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let door = door.expect("at least one set-up");
    let core = &door.core;

    // Warm-up, closed loop, answers checked too.
    let mut wrong = 0;
    let mut warm_rng = rng(seed, 301);
    for _ in 0..WARMUP {
        let q = warm_rng.random_range(0..pool.len());
        match core.submit_read(pool[q].clone(), raw).map(|r| r.recv()) {
            Ok(Ok(ReadReply::Done(mut ids))) => {
                ids.sort_unstable();
                wrong += (ids != expected[q]) as u64;
            }
            _ => return Err("a warm-up read failed".into()),
        }
    }

    let mut untraced = through_front_door(core, &pool, &expected, raw, reads, seed, false);
    untraced.phase.wrong += wrong;
    let snap = core.engine().snapshot();
    let heap_bytes_per_ranking = snap.heap_bytes() as f64 / snap.live_len().max(1) as f64;
    let heap = snap.heap_bytes();
    drop(snap);
    let mut outcome = Outcome {
        setup_s,
        heap_bytes_per_ranking,
        stored_bytes_per_ranking: None,
        untraced: untraced.phase,
        traced: None,
        layers: Layers::new(),
        env: vec![
            ("corpus", format!("yago-like n={N} k={K} zipf=0.53")),
            ("theta", THETA.to_string()),
            ("offered_reads_per_s", RATE.to_string()),
            ("reads", reads.to_string()),
            ("load", "open loop: 1 submitter + 1 collector thread".into()),
            (
                "worker_threads",
                format!("1 dispatcher + {BATCH_THREADS} batch + 1 publisher"),
            ),
            ("engine_heap_bytes", heap.to_string()),
        ],
    };
    if !traced {
        return Ok(outcome);
    }

    let mut t = through_front_door(core, &pool, &expected, raw, reads, seed, true);
    let (d, exec, pin, query_us, self_us, path_us) =
        direct(core, &pool, &expected, raw, reads, seed);
    let l = &mut outcome.layers;
    exec.put(l);
    put_us(l, "engine.query_us", &query_us);
    l.insert("engine.self_us_p50".into(), self_us.p50().unwrap_or(0.0));
    put_us(l, "snapshot.pin_us", &pin);
    put_us(l, "serve.round_trip_us", &t.round_trip_us);
    l.insert(
        "serve.self_us_p50".into(),
        t.round_trip_us.p50().unwrap_or(0.0) - path_us.p50().unwrap_or(0.0),
    );
    l.insert(
        "serve.shed".into(),
        core.shed.load(std::sync::atomic::Ordering::Relaxed) as f64,
    );
    l.insert(
        "serve.timeouts".into(),
        core.timeouts.load(std::sync::atomic::Ordering::Relaxed) as f64,
    );
    l.insert(
        "serve.generator_lag_ms_p99".into(),
        t.lag_ms.p99().unwrap_or(0.0),
    );
    // Both traced phases' spans go out; the end-to-end comparison uses
    // the front-door phase.
    t.phase.wrong += d.wrong;
    let front_spans = std::mem::take(&mut t.phase.spans);
    t.phase.spans = trace::merge(vec![front_spans, d.spans]);
    outcome.traced = Some(t.phase);
    Ok(outcome)
}
