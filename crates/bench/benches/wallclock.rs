//! Wall-clock throughput of the simulation engines themselves.
//!
//! Every other harness reports *simulated* Mops — the paper's metric.
//! This one measures how many simulated operations the engines push
//! through per second of real time, which is what bounds every
//! experiment's turnaround. It exists to hold the zero-copy hot-path
//! work (SWAR bucket probing, borrowed wire decode, scratch-buffer
//! reuse, response arenas) to its numbers:
//!
//! * ≥2× wall-clock throughput on the YCSB-B per-op micro loop against
//!   the recorded pre-rework baseline (`BEFORE_*` constants, measured on
//!   the unmodified tree with this same harness);
//! * zero heap allocations per steady-state GET;
//! * *unchanged* simulated throughput — the optimization must not move a
//!   single modeled cost, only real time.
//!
//! Results are written to `BENCH_wallclock.json` at the repo root. When a
//! committed copy already exists, the YCSB-B sequential number gates
//! regressions: >20% below the committed value is a `[shape FAIL]`,
//! which CI turns into a red build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kvd_bench::{
    banner, json_section, json_section_number, shape_check, with_json_section, Table,
    SCALED_MEMORY_BIG,
};
use kvd_core::parallel::{ParallelSimConfig, ParallelSystemSim};
use kvd_core::{KvDirectConfig, KvDirectStore, SystemSim, SystemSimConfig};
use kvd_net::KvRequest;
use kvd_server::{run_load, serve, LoadConfig, ServerConfig};
use kvd_workloads::{PresetWorkload, YcsbPreset};

struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static A: Counting = Counting;

const POP: u64 = 20_000;
const OPS_SEQ: usize = 200_000;
const OPS_MICRO: usize = 1_000_000;
const VALUE_LEN: usize = 8;

/// Pre-rework baseline, measured on the unmodified tree with this same
/// harness (mean of two runs; Mops of simulated ops per wall-clock
/// second, except `BEFORE_ALLOCS_PER_GET`).
const BEFORE_SEQ: [(YcsbPreset, f64); 3] = [
    (YcsbPreset::A, 0.601),
    (YcsbPreset::B, 0.778),
    (YcsbPreset::C, 0.761),
];
const BEFORE_PAR4: [(YcsbPreset, f64); 3] = [
    (YcsbPreset::A, 0.505),
    (YcsbPreset::B, 0.636),
    (YcsbPreset::C, 0.692),
];
const BEFORE_MICRO_B: f64 = 0.858;
const BEFORE_ALLOCS_PER_GET: f64 = 4.87;
/// Simulated Mops recorded alongside the baseline — the equivalence
/// oracle: the hot-path rework must leave these untouched.
///
/// Re-recorded when `NicDram` went 4-way set-associative for the
/// adaptive cache plane: the modeled conflict behavior (and so the
/// simulated Mops) legitimately moved by ~1%.
const BEFORE_SIM_SEQ: [f64; 3] = [82.3, 84.6, 84.9];
const BEFORE_SIM_PAR4: [f64; 3] = [276.4, 282.2, 282.7];

fn stream(preset: YcsbPreset, pop: u64, n: usize, seed: u64) -> Vec<KvRequest> {
    let mut w = PresetWorkload::new(preset, pop, VALUE_LEN, seed);
    w.batch(n)
}

/// (wall-clock Mops, simulated Mops) of the sequential timed engine.
fn seq_run(preset: YcsbPreset) -> (f64, f64) {
    let mut sim = SystemSim::new(SystemSimConfig::paper(
        KvDirectConfig::with_memory(SCALED_MEMORY_BIG),
        40,
    ));
    for id in 0..POP {
        sim.store_mut()
            .put(&id.to_le_bytes(), &[id as u8; VALUE_LEN])
            .expect("preload fits");
    }
    let reqs = stream(preset, POP, OPS_SEQ, 0xBA5E);
    let t = Instant::now();
    let report = sim.run(&reqs);
    let wall = t.elapsed().as_secs_f64();
    (report.ops as f64 / wall / 1e6, report.mops)
}

/// (wall-clock Mops, simulated Mops) of the 4-shard parallel engine.
fn par_run(preset: YcsbPreset, shards: usize) -> (f64, f64) {
    let pop = POP * shards as u64;
    let mut cfg =
        ParallelSimConfig::paper(KvDirectConfig::with_memory(SCALED_MEMORY_BIG), 40, shards);
    cfg.workers = 0;
    let mut sim = ParallelSystemSim::new(cfg);
    for id in 0..pop {
        sim.preload_put(&id.to_le_bytes(), &[id as u8; VALUE_LEN])
            .expect("preload fits");
    }
    let reqs = stream(preset, pop, OPS_SEQ, 0xBA5E);
    let t = Instant::now();
    let report = sim.run(&reqs);
    let wall = t.elapsed().as_secs_f64();
    (report.ops as f64 / wall / 1e6, report.mops)
}

/// Wall-clock Mops of the bare store per-op loop (no timing model): the
/// inner loop every timed engine runs per operation.
fn micro_b() -> f64 {
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(SCALED_MEMORY_BIG));
    for id in 0..POP {
        store
            .put(&id.to_le_bytes(), &[id as u8; VALUE_LEN])
            .expect("preload fits");
    }
    let reqs = stream(YcsbPreset::B, POP, OPS_MICRO, 0xB00);
    let mut resp = kvd_net::KvResponse {
        status: kvd_net::Status::Ok,
        value: Vec::new(),
    };
    let t = Instant::now();
    let mut acc = 0u64;
    for r in &reqs {
        store.execute_one_into(r.as_ref(), &mut resp);
        acc = acc.wrapping_add(resp.value.len() as u64);
    }
    std::hint::black_box(acc);
    OPS_MICRO as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Heap allocations per steady-state GET on the store's hot path.
fn allocs_per_get() -> f64 {
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(SCALED_MEMORY_BIG));
    for id in 0..POP {
        store
            .put(&id.to_le_bytes(), &[id as u8; VALUE_LEN])
            .expect("preload fits");
    }
    let reqs = stream(YcsbPreset::C, POP, 100_000, 0xA110C);
    let mut resp = kvd_net::KvResponse {
        status: kvd_net::Status::Ok,
        value: Vec::new(),
    };
    // Warm both pools with the exact measured sequence, twice, so the
    // measured pass replays a fixpoint.
    for _ in 0..2 {
        for r in &reqs {
            store.execute_one_into(r.as_ref(), &mut resp);
        }
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for r in &reqs {
        store.execute_one_into(r.as_ref(), &mut resp);
        std::hint::black_box(resp.value.len());
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / reqs.len() as f64
}

/// (answered req/s, goodput req/s) of the TCP memcache front-end: a
/// loopback `kvd-server` driven by the open-loop load client at an
/// offered rate well above loopback capacity, so answered RPS measures
/// the server, not the schedule. Requests cross a real TCP stack and run
/// to completion on their connection thread, through the pooled
/// `execute_batch_refs_into` path under each shard's lock.
fn server_rps() -> (f64, f64) {
    let shards = std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(2);
    let server = serve("127.0.0.1:0", ServerConfig::loopback(shards)).expect("bind bench server");
    let cfg = LoadConfig {
        addr: server.local_addr(),
        connections: 4,
        ops_per_conn: 15_000,
        rate: 1_000_000.0,
        preset: YcsbPreset::B,
        zipf: None,
        hot_shift: 0,
        population: POP,
        value_len: 64,
        deadline: Duration::from_millis(100),
        seed: 0x5E_55ED,
        preload: true,
        fallbacks: Vec::new(),
        reconnect: kvd_server::ReconnectPolicy::default(),
    };
    let report = run_load(&cfg).expect("bench load run");
    let ledger = server.stop();
    assert_eq!(report.errors, 0, "bench traffic must be error-free");
    assert!(
        ledger.server.requests >= report.offered,
        "every offered op must land in the server ledger"
    );
    (report.rps(), report.goodput_rps())
}

fn main() {
    banner(
        "wall-clock engine throughput (hot-path rework gate)",
        "zero-copy hot path: ≥2× wall-clock on YCSB-B, 0 allocs/GET, simulated costs unchanged",
    );

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wallclock.json");
    let committed = std::fs::read_to_string(json_path).ok();

    // Wall-clock on a shared box is noisy (scheduler, cold pages), the
    // lockstep engine especially so when cores are scarce: best-of-N is
    // the measurement, and the simulated Mops must be bit-stable across
    // repeats (a free determinism check).
    let best_of = |n: usize, f: &dyn Fn() -> (f64, f64)| -> (f64, f64) {
        let first = f();
        (1..n).fold(first, |best, _| {
            let next = f();
            assert!(
                (next.1 - best.1).abs() < 1e-9,
                "simulated Mops must not vary across identical runs"
            );
            if next.0 > best.0 {
                next
            } else {
                best
            }
        })
    };

    let presets = [YcsbPreset::A, YcsbPreset::B, YcsbPreset::C];
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut seq = Vec::new();
    let mut par4 = Vec::new();
    let mut par8 = Vec::new();
    let mut t = Table::new(
        "wall-clock engine throughput (simulated Mops per real second)",
        &[
            "run",
            "before Mops/s",
            "after Mops/s",
            "speedup",
            "sim Mops",
        ],
    );
    for (i, &p) in presets.iter().enumerate() {
        let (wall, sim) = best_of(2, &|| seq_run(p));
        t.row(&[
            format!("seq {p:?}"),
            format!("{:.3}", BEFORE_SEQ[i].1),
            format!("{wall:.3}"),
            format!("{:.2}x", wall / BEFORE_SEQ[i].1),
            format!("{sim:.1}"),
        ]);
        seq.push((wall, sim));
    }
    for (i, &p) in presets.iter().enumerate() {
        let (wall, sim) = best_of(3, &|| par_run(p, 4));
        t.row(&[
            format!("par4 {p:?}"),
            format!("{:.3}", BEFORE_PAR4[i].1),
            format!("{wall:.3}"),
            format!("{:.2}x", wall / BEFORE_PAR4[i].1),
            format!("{sim:.1}"),
        ]);
        par4.push((wall, sim));
    }
    // The 8-shard curve has no pre-rework baseline: the lockstep engine
    // was retired before it first ran. Its committed result is the gate.
    for &p in presets.iter() {
        let (wall, sim) = best_of(2, &|| par_run(p, 8));
        t.row(&[
            format!("par8 {p:?}"),
            "-".to_string(),
            format!("{wall:.3}"),
            "-".to_string(),
            format!("{sim:.1}"),
        ]);
        par8.push((wall, sim));
    }
    let micro = best_of(2, &|| (micro_b(), 0.0)).0;
    t.row(&[
        "micro B".to_string(),
        format!("{BEFORE_MICRO_B:.3}"),
        format!("{micro:.3}"),
        format!("{:.2}x", micro / BEFORE_MICRO_B),
        "-".to_string(),
    ]);
    let allocs = allocs_per_get();
    t.row(&[
        "allocs/GET".to_string(),
        format!("{BEFORE_ALLOCS_PER_GET:.2}"),
        format!("{allocs:.2}"),
        "-".to_string(),
        "-".to_string(),
    ]);
    // The TCP front-end has no pre-rework baseline (it first shipped
    // with the serving PR); its own committed result is the gate.
    let (srv_rps, srv_goodput) = {
        let first = server_rps();
        let second = server_rps();
        if second.0 > first.0 {
            second
        } else {
            first
        }
    };
    t.row(&[
        "server RPS".to_string(),
        "-".to_string(),
        format!("{:.3}", srv_rps / 1e6),
        "-".to_string(),
        "-".to_string(),
    ]);
    t.print();
    println!();
    println!(
        "server front-end: {srv_rps:.0} req/s answered, {srv_goodput:.0} req/s within deadline"
    );
    println!();

    let mut json = format!(
        "{{\n  \"config\": {{\"population\": {POP}, \"ops_seq\": {OPS_SEQ}, \"ops_micro\": {OPS_MICRO}, \"value_len\": {VALUE_LEN}}},\n  \"before\": {{\n    \"seq_a_wall_mops\": {:.3}, \"seq_b_wall_mops\": {:.3}, \"seq_c_wall_mops\": {:.3},\n    \"par4_a_wall_mops\": {:.3}, \"par4_b_wall_mops\": {:.3}, \"par4_c_wall_mops\": {:.3},\n    \"micro_b_wall_mops\": {:.3}, \"allocs_per_get\": {:.2},\n    \"seq_a_sim_mops\": {:.1}, \"seq_b_sim_mops\": {:.1}, \"seq_c_sim_mops\": {:.1},\n    \"par4_a_sim_mops\": {:.1}, \"par4_b_sim_mops\": {:.1}, \"par4_c_sim_mops\": {:.1}\n  }},\n  \"after\": {{\n    \"seq_a_wall_mops\": {:.3}, \"seq_b_wall_mops\": {:.3}, \"seq_c_wall_mops\": {:.3},\n    \"par4_a_wall_mops\": {:.3}, \"par4_b_wall_mops\": {:.3}, \"par4_c_wall_mops\": {:.3},\n    \"par8_a_wall_mops\": {:.3}, \"par8_b_wall_mops\": {:.3}, \"par8_c_wall_mops\": {:.3},\n    \"micro_b_wall_mops\": {:.3}, \"allocs_per_get\": {:.2},\n    \"micro_b_speedup\": {:.2},\n    \"seq_a_sim_mops\": {:.1}, \"seq_b_sim_mops\": {:.1}, \"seq_c_sim_mops\": {:.1},\n    \"par4_a_sim_mops\": {:.1}, \"par4_b_sim_mops\": {:.1}, \"par4_c_sim_mops\": {:.1},\n    \"par8_a_sim_mops\": {:.1}, \"par8_b_sim_mops\": {:.1}, \"par8_c_sim_mops\": {:.1},\n    \"server_rps\": {:.0}, \"server_goodput_rps\": {:.0},\n    \"cores\": {cores}\n  }}\n}}\n",
        BEFORE_SEQ[0].1, BEFORE_SEQ[1].1, BEFORE_SEQ[2].1,
        BEFORE_PAR4[0].1, BEFORE_PAR4[1].1, BEFORE_PAR4[2].1,
        BEFORE_MICRO_B, BEFORE_ALLOCS_PER_GET,
        BEFORE_SIM_SEQ[0], BEFORE_SIM_SEQ[1], BEFORE_SIM_SEQ[2],
        BEFORE_SIM_PAR4[0], BEFORE_SIM_PAR4[1], BEFORE_SIM_PAR4[2],
        seq[0].0, seq[1].0, seq[2].0,
        par4[0].0, par4[1].0, par4[2].0,
        par8[0].0, par8[1].0, par8[2].0,
        micro, allocs,
        micro / BEFORE_MICRO_B,
        seq[0].1, seq[1].1, seq[2].1,
        par4[0].1, par4[1].1, par4[2].1,
        par8[0].1, par8[1].1, par8[2].1,
        srv_rps, srv_goodput,
    );
    // The fig_cluster, fig_expiry and fig_hotkey harnesses own the
    // "cluster", "expiry" and "hotkey" sections of this file; carry the
    // committed copies over instead of clobbering them.
    for owned in ["cluster", "expiry", "hotkey"] {
        if let Some(sec) = committed.as_deref().and_then(|c| json_section(c, owned)) {
            json = with_json_section(&json, owned, &sec);
        }
    }
    match std::fs::write(json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => println!("could not write {json_path}: {e}"),
    }
    println!();

    shape_check(
        "YCSB-B micro loop ≥2x pre-rework wall-clock",
        micro >= 2.0 * BEFORE_MICRO_B,
        &format!(
            "{micro:.3} vs {BEFORE_MICRO_B:.3} Mops/wall-s ({:.2}x)",
            micro / BEFORE_MICRO_B
        ),
    );
    shape_check(
        "steady-state GET allocation-free",
        allocs == 0.0,
        &format!("{allocs:.2} allocs/GET (was {BEFORE_ALLOCS_PER_GET:.2})"),
    );
    let sim_unchanged = seq
        .iter()
        .map(|r| r.1)
        .zip(BEFORE_SIM_SEQ)
        .chain(par4.iter().map(|r| r.1).zip(BEFORE_SIM_PAR4))
        .all(|(now, was)| ((now - was) / was).abs() < 0.005);
    shape_check(
        "simulated throughput unchanged by the rework",
        sim_unchanged,
        &format!(
            "seq [{:.1}, {:.1}, {:.1}] par4 [{:.1}, {:.1}, {:.1}] vs recorded baseline",
            seq[0].1, seq[1].1, seq[2].1, par4[0].1, par4[1].1, par4[2].1
        ),
    );
    // Scaling gate for the asynchronous credit arbiter: driving 4 shards
    // with worker threads must cost no more wall-clock per op than the
    // sequential engine. Meaningless on a single-core box (the workers
    // time-slice one CPU), so the guard mirrors fig18's.
    let scaling_ok = cores == 1 || seq.iter().zip(&par4).all(|(s, p)| p.0 >= 0.9 * s.0);
    shape_check(
        "par4 wall-clock >= 0.9x sequential on A/B/C",
        scaling_ok,
        &format!(
            "par4 [{:.3}, {:.3}, {:.3}] vs seq [{:.3}, {:.3}, {:.3}] Mops/wall-s ({cores} cores)",
            par4[0].0, par4[1].0, par4[2].0, seq[0].0, seq[1].0, seq[2].0
        ),
    );
    match committed
        .as_deref()
        .and_then(|c| json_section_number(c, "after", "seq_b_wall_mops"))
    {
        Some(gate) => shape_check(
            "YCSB-B sequential within 20% of committed result",
            seq[1].0 >= 0.8 * gate,
            &format!("{:.3} vs committed {gate:.3} Mops/wall-s", seq[1].0),
        ),
        None => println!("(no committed BENCH_wallclock.json — regression gate armed on next run)"),
    }
    // TCP loopback throughput swings harder than in-process numbers
    // (kernel scheduling, socket buffers), so its gate is looser: 40%
    // below the committed answered RPS is a red build.
    match committed
        .as_deref()
        .and_then(|c| json_section_number(c, "after", "server_rps"))
    {
        Some(gate) => shape_check(
            "server RPS within 40% of committed result",
            srv_rps >= 0.6 * gate,
            &format!("{srv_rps:.0} vs committed {gate:.0} req/s"),
        ),
        None => println!("(no committed server_rps — server regression gate armed on next run)"),
    }
}
