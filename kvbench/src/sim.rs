//! The simulation-engine workloads: `sim-par2-ycsb-a` drives the 2-shard
//! `ParallelSystemSim`, `sim-seq-zipf-shift` the sequential `SystemSim`
//! with the adaptive cache plane on.
//!
//! A run repeats cycles until its time is spent. A cycle builds a fresh
//! engine and preloads it (timed as set-up), then runs the whole staged
//! stream, closed loop (timed as the run). The stream is generated once,
//! before the first cycle, so every cycle runs identical inputs and must
//! produce bit-identical simulated results.

use std::time::{Duration, Instant};

use kv_direct::net::shard_of;
use kv_direct::parallel::{ParallelSimConfig, ParallelSystemSim};
use kv_direct::sim::{ArbiterStats, Histogram, SimTime};
use kv_direct::system::{SystemSim, SystemSimConfig};
use kv_direct::workloads::{Dist, YcsbSpec, YcsbWorkload, ZipfHotSpec, ZipfHotWorkload};
use kv_direct::{KvDirectConfig, KvRequest, OpLedger, Status};

use crate::layers::{self, ledger_metrics};
use crate::ops::{self, Kind, Model, Op};
use crate::report::{peak_rss_mb, set_latencies, Outcome, PCTS};
use crate::stats::{bucket_percentile, median};
use crate::trace::Tracer;
use crate::Args;

/// Operations per client packet.
const BATCH: usize = 40;
/// Bytes per value: with the 8-byte keys, 16 B KVs, stored inline.
const VALUE_LEN: usize = 8;
/// Cycles a run makes at least, so set-up has a median.
const MIN_CYCLES: usize = 3;

/// Which engine a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `ParallelSystemSim`, 2 shards, 2 workers.
    Par2,
    /// `SystemSim`.
    Seq,
}

/// A generated sim workload.
struct Workload {
    kind: EngineKind,
    store: KvDirectConfig,
    preload: Vec<(Vec<u8>, Vec<u8>)>,
    ops: Vec<Op>,
    reqs: Vec<KvRequest>,
    seed: u64,
    gen_ns_per_op: f64,
}

impl Workload {
    fn generate(kind: EngineKind, seed: u64) -> Self {
        let t0 = Instant::now();
        let (n_keys, trace, store) = match kind {
            EngineKind::Par2 => {
                // 200k keys × 16 B KV (8 B key, 8 B inline value): fits
                // NIC DRAM. YCSB-A: 50% updates, Zipf 0.99.
                let n_keys = 200_000;
                let mut w = YcsbWorkload::new(YcsbSpec {
                    n_keys,
                    kv_size: 16,
                    put_ratio: 0.5,
                    dist: Dist::long_tail(),
                    seed,
                });
                (
                    n_keys,
                    w.key_trace(PAR2_OPS),
                    KvDirectConfig::with_memory(64 << 20),
                )
            }
            EngineKind::Seq => {
                // 500k keys × 16 B KV, Zipf 1.2, 10% PUTs, the hot set
                // moving every quarter of the stream: exceeds NIC DRAM.
                let n_keys = 500_000;
                let mut w = ZipfHotWorkload::new(ZipfHotSpec {
                    n_keys,
                    theta: 1.2,
                    kv_size: 16,
                    put_ratio: 0.1,
                    shift_every: (SEQ_OPS / 4) as u64,
                    seed,
                });
                let mut store = KvDirectConfig::with_memory(SEQ_MEMORY);
                store.adaptive_cache = Some(kv_direct::mem::AdaptiveCacheConfig::data_path(seed));
                (n_keys, w.key_trace(SEQ_OPS), store)
            }
        };
        let ops = Model::preloaded(n_keys).versioned(&trace);
        let reqs = ops::requests(&ops, VALUE_LEN);
        let preload = ops::preload(n_keys, VALUE_LEN);
        let gen_ns_per_op = t0.elapsed().as_nanos() as f64 / ops.len() as f64;
        Workload {
            kind,
            store,
            preload,
            ops,
            reqs,
            seed,
            gen_ns_per_op,
        }
    }

    fn puts(&self) -> u64 {
        self.ops.iter().filter(|o| o.kind == Kind::Set).count() as u64
    }
}

/// Operations per cycle of `sim-par2-ycsb-a`.
const PAR2_OPS: usize = 1_000_000;
/// Operations per cycle of `sim-seq-zipf-shift`.
const SEQ_OPS: usize = 1_000_000;
/// Total store memory of `sim-seq-zipf-shift` (NIC DRAM is 1/16 of it).
const SEQ_MEMORY: u64 = 64 << 20;

/// A built, preloaded engine.
enum Engine {
    Par(Box<ParallelSystemSim>),
    Seq(Box<SystemSim>),
}

impl Engine {
    /// The cumulative op-cost ledger so far (preload included).
    fn ledger(&self) -> OpLedger {
        match self {
            Engine::Par(sim) => sim.merged_report().ledger,
            Engine::Seq(sim) => sim.ledger(),
        }
    }

    fn build(w: &Workload) -> Engine {
        match w.kind {
            EngineKind::Par2 => {
                let mut cfg = ParallelSimConfig::paper(w.store.clone(), BATCH, 2);
                cfg.workers = 2;
                cfg.seed = w.seed;
                let mut sim = ParallelSystemSim::new(cfg);
                for (k, v) in &w.preload {
                    sim.preload_put(k, v).expect("preload fits the store");
                }
                Engine::Par(Box::new(sim))
            }
            EngineKind::Seq => {
                let cfg = SystemSimConfig::paper(w.store.clone(), BATCH);
                let mut sim = SystemSim::with_seed(cfg, w.seed);
                for (k, v) in &w.preload {
                    sim.store_mut().put(k, v).expect("preload fits the store");
                }
                Engine::Seq(Box::new(sim))
            }
        }
    }
}

/// What one cycle measured.
#[derive(Debug, Clone)]
struct Cycle {
    setup_s: f64,
    run_s: f64,
    stage_s: f64,
    drive_s: f64,
    sim: SimResult,
}

/// The simulated results of a cycle; must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct SimResult {
    mops_bits: u64,
    /// The engine's own GET p50, GET p99, PUT p50 and PUT p99 (bucket
    /// lower bounds, ps).
    summary: [u64; 4],
    /// Interpolated GET and SET p50, p90, p99, µs (bits), where the
    /// engine exposes its histograms.
    lat_bits: Option<[u64; 6]>,
    ledger: OpLedger,
    arbiter: Option<ArbiterStats>,
}

/// Percentile in µs of a picosecond histogram, interpolated in-bucket.
fn hist_us(h: &Histogram, pct: f64) -> f64 {
    let buckets: Vec<(u64, u64)> = h.iter_nonzero().collect();
    bucket_percentile(&buckets, h.max(), pct).unwrap_or(0.0) / 1e6
}

/// GET p50, p90, p99 and SET p50, p90, p99 in µs.
fn latencies(get: &Histogram, put: &Histogram) -> [f64; 6] {
    let [a, b, c] = PCTS.map(|p| hist_us(get, p));
    let [d, e, f] = PCTS.map(|p| hist_us(put, p));
    [a, b, c, d, e, f]
}

fn run_cycle(w: &Workload, tracer: Option<&mut Tracer>, cycle: u64) -> Cycle {
    let t0 = Instant::now();
    let engine = Engine::build(w);
    let setup_s = t0.elapsed().as_secs_f64();
    // Ledger counters cover the run only, not the preload.
    let before = engine.ledger();
    let t1 = Instant::now();
    let (stage_s, drive_s, sim, t3);
    match engine {
        Engine::Par(mut sim_engine) => {
            sim_engine.stage(&w.reqs);
            let t2 = Instant::now();
            sim_engine.drive_staged();
            t3 = Instant::now();
            stage_s = (t2 - t1).as_secs_f64();
            drive_s = (t3 - t2).as_secs_f64();
            if let Some(tr) = tracer {
                let root = tr.record("parallel.run", cycle, None, t1, t3);
                tr.record("parallel.stage", cycle, Some(root), t1, t2);
                tr.record("parallel.drive", cycle, Some(root), t2, t3);
            }
            let r = sim_engine.merged_report();
            let (g, p) = (&r.get_latency, &r.put_latency);
            sim = SimResult {
                mops_bits: r.mops.to_bits(),
                summary: [g.p50, g.p99, p.p50, p.p99],
                lat_bits: None,
                ledger: r.ledger.since(&before),
                arbiter: Some(r.arbiter),
            };
        }
        Engine::Seq(mut sim_engine) => {
            let r = sim_engine.run(&w.reqs);
            t3 = Instant::now();
            stage_s = 0.0;
            drive_s = 0.0;
            if let Some(tr) = tracer {
                tr.record("system.run", cycle, None, t1, t3);
            }
            let (g, p) = sim_engine.histograms();
            let (gs, ps) = (&r.get_latency, &r.put_latency);
            sim = SimResult {
                mops_bits: r.mops.to_bits(),
                summary: [gs.p50, gs.p99, ps.p50, ps.p99],
                lat_bits: Some(latencies(g, p).map(f64::to_bits)),
                ledger: r.ledger.since(&before),
                arbiter: None,
            };
        }
    }
    Cycle {
        setup_s,
        run_s: (t3 - t1).as_secs_f64(),
        stage_s,
        drive_s,
        sim,
    }
}

/// Runs the stream once more with outcome recording on and checks every
/// response against the generator's model. Returns failed operations.
fn oracle(w: &Workload) -> u64 {
    let mut failed = 0u64;
    match Engine::build(w) {
        Engine::Par(mut sim) => {
            sim.set_record_outcomes(true);
            sim.run(&w.reqs);
            let shards = sim.shards();
            let mut next = vec![0usize; shards];
            for (op, r) in w.ops.iter().zip(&w.reqs) {
                let s = shard_of(&r.key, shards);
                let got = sim.shard_outcomes(s).get(next[s]);
                next[s] += 1;
                failed += u64::from(!outcome_ok(op, VALUE_LEN, got));
            }
        }
        Engine::Seq(mut sim) => {
            sim.set_record_outcomes(true);
            sim.run(&w.reqs);
            let outs = sim.outcomes();
            for (i, op) in w.ops.iter().enumerate() {
                failed += u64::from(!outcome_ok(op, VALUE_LEN, outs.get(i)));
            }
        }
    }
    failed
}

fn outcome_ok(op: &Op, value_len: usize, got: Option<&(Status, Vec<u8>)>) -> bool {
    got.is_some_and(|(status, data)| ops::response_ok(op, value_len, *status, data))
}

/// Runs a sim workload for `args.seconds`.
pub fn run(kind: EngineKind, args: &Args) -> Outcome {
    let w = Workload::generate(kind, args.seed);
    let mut out = Outcome::default();
    let n = w.ops.len() as f64;

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Cycle> = Vec::new();
    let mut traced: Vec<Cycle> = Vec::new();
    let mut tracer = Tracer::new();
    while plain.len() + traced.len() < MIN_CYCLES || start.elapsed() < budget {
        let i = (plain.len() + traced.len()) as u64;
        // The traced run alternates traced and untraced cycles, so the
        // tracing overhead is measured on the same inputs.
        if args.trace && i % 2 == 1 {
            traced.push(run_cycle(&w, Some(&mut tracer), i));
        } else {
            plain.push(run_cycle(&w, None, i));
        }
        if i == 0 {
            // One engine's lifetime: later cycles add only allocator
            // fragmentation from rebuilding the store.
            out.e2e.set("peak_rss_mb", peak_rss_mb());
        }
    }

    // Bit-identical simulated results across the cycles of one seed.
    let first = plain[0].sim.clone();
    for c in plain.iter().chain(&traced) {
        if c.sim != first {
            out.problems
                .push("simulated results differ between repeats of one seed".into());
            break;
        }
    }

    out.attempted = w.ops.len() as u64;
    out.failed = oracle(&w);

    let cycles: Vec<&Cycle> = plain.iter().chain(&traced).collect();
    let setup = median(&cycles.iter().map(|c| c.setup_s).collect::<Vec<_>>());
    let run_s = median(&plain.iter().map(|c| c.run_s).collect::<Vec<_>>());
    // The parallel engine reports bucketed percentiles only; its shards
    // run bit-identically as standalone pipelines while the host arbiter
    // injects no stall, so their histograms are rebuilt by replaying each
    // shard's stream alone.
    let replay = (kind == EngineKind::Par2).then(|| shard_replay(&w, &mut tracer));
    let lat = match &replay {
        Some(r) => {
            let rebuilt = [&r.get, &r.get, &r.put, &r.put]
                .iter()
                .zip([50.0, 99.0, 50.0, 99.0])
                .map(|(h, p)| h.percentile(p))
                .collect::<Vec<_>>();
            out.note(
                "par2.shard_replay_matches_engine",
                rebuilt == first.summary,
                "",
            );
            latencies(&r.get, &r.put)
        }
        None => first
            .lat_bits
            .expect("the sequential engine exposes its histograms")
            .map(f64::from_bits),
    };
    set_latencies(&mut out, lat);
    let e = &mut out.e2e;
    e.set("setup_s", setup);
    e.set("ops_per_s", n / run_s);
    e.set("sim_mops", f64::from_bits(first.mops_bits));
    out.note("cycles", cycles.len(), "");
    out.note("ops_per_cycle", w.ops.len(), "");
    out.note(
        "error_rate",
        out.failed as f64 / out.attempted as f64,
        "fraction",
    );
    out.note("workloads.gen_ns_per_op", w.gen_ns_per_op, "ns");
    out.note(
        "mem.dram_hit_rate",
        {
            let d = &first.ledger.dram;
            d.cache_hits as f64 / (d.cache_hits + d.cache_misses).max(1) as f64
        },
        "fraction",
    );

    if args.trace {
        layer_metrics(&w, &plain, &traced, replay.as_ref(), &mut tracer, &mut out);
        crate::write_trace(&tracer, args, &mut out);
    }
    out
}

fn layer_metrics(
    w: &Workload,
    plain: &[Cycle],
    traced: &[Cycle],
    replay: Option<&ShardReplay>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let n = w.ops.len() as f64;
    let timer_ns = layers::timer_cost_ns();
    out.note("trace.timer_ns_per_span", timer_ns, "ns");
    let sim = &plain[0].sim;
    let m = &mut out.layers;
    ledger_metrics(m, &sim.ledger, w.ops.len() as u64, w.puts());
    m.set("workloads.gen_ns_per_op", w.gen_ns_per_op);

    let med = |cs: &[Cycle], f: fn(&Cycle) -> f64| median(&cs.iter().map(f).collect::<Vec<_>>());
    let run_plain = med(plain, |c| c.run_s);
    let run_traced = med(traced, |c| c.run_s);
    m.set("trace.overhead", run_traced / run_plain - 1.0);

    // The replayed store work hangs under the last traced cycle's call
    // into the engine that executes it.
    let (shards, root, exec_parent) = match w.kind {
        EngineKind::Par2 => (
            2,
            tracer.last("parallel.run"),
            tracer.last("parallel.drive"),
        ),
        EngineKind::Seq => (1, tracer.last("system.run"), tracer.last("system.run")),
    };
    let parents = exec_parent.map(|p| vec![p; w.reqs.len()]);
    let store = layers::replay_store(
        &w.store,
        shards,
        &w.preload,
        &w.reqs,
        tracer,
        parents.as_deref(),
        timer_ns,
    );
    m.set("core.execute_ns_per_get", store.get_ns);
    m.set("core.execute_ns_per_put", store.put_ns);
    if store.failed != 0 {
        out.problems
            .push(format!("store replay: {} operations failed", store.failed));
    }
    let hash = layers::replay_hash(&w.store, shards, &w.preload, &w.reqs);
    m.set("hash.mem_accesses_per_get", hash.accesses_per_get);
    m.set("hash.mem_accesses_per_put", hash.accesses_per_put);
    m.set("hash.utilization", hash.utilization);

    match w.kind {
        EngineKind::Seq => {
            let run_ns = run_plain * 1e9 / n;
            m.set("system.run_ns_per_op", run_ns);
            m.set("system.timing_ns_per_op", run_ns - store.ns_per_op);
        }
        EngineKind::Par2 => {
            m.set(
                "parallel.stage_ns_per_op",
                med(plain, |c| c.stage_s) * 1e9 / n,
            );
            let drive = med(plain, |c| c.drive_s);
            m.set("parallel.drive_ns_per_op", drive * 1e9 / n);
            // Each shard's stream through a sequential SystemSim, one
            // after the other: the work the 2 workers share.
            let seq_s = replay.map_or(0.0, |r| r.seq_s);
            m.set("parallel.speedup", seq_s / drive);
            let run_ns = seq_s * 1e9 / n;
            m.set("system.run_ns_per_op", run_ns);
            m.set("system.timing_ns_per_op", run_ns - store.ns_per_op);
            let a = sim.arbiter.unwrap_or_default();
            m.set("arbiter.windows", a.windows as f64);
            m.set("arbiter.oversubscribed", a.oversubscribed as f64);
            m.set("arbiter.stall_ns", a.stall.as_ps() as f64 / 1e3);
        }
    }

    m.set(
        "trace.coverage",
        root.map_or(0.0, |r| tracer.coverage(&[r])),
    );
}

/// Each shard's stream run alone through a sequential `SystemSim`
/// seeded as the parallel engine seeds that shard.
struct ShardReplay {
    /// Wall seconds of the runs, summed over shards: the work the
    /// parallel engine's workers share.
    seq_s: f64,
    /// GET latencies of all shards, ps.
    get: Histogram,
    /// PUT latencies of all shards, ps.
    put: Histogram,
}

fn shard_replay(w: &Workload, tracer: &mut Tracer) -> ShardReplay {
    let shards = 2;
    let mut routed: Vec<Vec<KvRequest>> = vec![Vec::new(); shards];
    for r in &w.reqs {
        routed[shard_of(&r.key, shards)].push(r.clone());
    }
    let mut out = ShardReplay {
        seq_s: 0.0,
        get: Histogram::new(),
        put: Histogram::new(),
    };
    for (i, reqs) in routed.into_iter().enumerate() {
        let cfg = SystemSimConfig::paper(w.store.clone(), BATCH);
        // The parallel engine's per-shard seed salt.
        let salt = w.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut sim = SystemSim::with_seed(cfg, salt);
        for (k, v) in &w.preload {
            if shard_of(k, shards) == i {
                sim.store_mut().put(k, v).expect("preload fits the store");
            }
        }
        sim.load_owned(reqs);
        let t0 = Instant::now();
        while !sim.step(SimTime::MAX, SimTime::ZERO).done {}
        let t1 = Instant::now();
        tracer.record("system.shard_seq", i as u64, None, t0, t1);
        out.seq_s += (t1 - t0).as_secs_f64();
        let (g, p) = sim.histograms();
        out.get.merge(g);
        out.put.merge(p);
    }
    out
}
