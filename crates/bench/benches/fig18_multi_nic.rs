//! Multi-NIC scaling (paper §5.2, abstract): "With 10 programmable NIC
//! cards in a commodity server, we achieve 1.22 billion KV operations per
//! second", near-linear in the NIC count until host memory saturates.
//!
//! This harness *simulates* the experiment: one full timed pipeline
//! (client ↔ 40 GbE ↔ KV processor ↔ PCIe/DRAM) per NIC, key-partitioned
//! routing, and the quantum-synchronized host-memory arbiter standing in
//! for the server's shared DRAM controllers. The saturation knee emerges
//! from the arbiter charging each window's aggregate DMA traffic — not
//! from a closed-form cap. A functional sanity pass over the sharded
//! store and a wall-clock speedup measurement (the engine itself runs on
//! OS worker threads) close the harness out.

use std::time::Instant;

use kvd_bench::{banner, fmt_f, shape_check, Table, SCALED_MEMORY, SCALED_MEMORY_BIG};
use kvd_core::parallel::{ParallelSimConfig, ParallelSystemSim};
use kvd_core::KvDirectConfig;
use kvd_net::{shard_of, KvRequest};
use kvd_sim::{DetRng, SimTime};

/// Corpus per NIC: the population scales with the shard count so every
/// NIC sees the same per-shard key-space density regardless of how many
/// NICs the run has (the experiment varies NICs, not load shape).
const POPULATION_PER_NIC: u64 = 20_000;
const OPS_PER_NIC: usize = 24_000;
const BATCH: usize = 40;
const WINDOWS: usize = 24;

/// Long-tail tiny KVs (the paper's peak-throughput workload): uniform
/// GETs over a corpus much larger than the reservation station, so
/// operations genuinely touch memory.
fn workload(total: usize, population: u64, seed: u64) -> Vec<KvRequest> {
    let mut rng = DetRng::seed(seed);
    (0..total)
        .map(|_| KvRequest::get(&rng.u64_below(population).to_le_bytes()))
        .collect()
}

/// Harness overrides from the command line. `--workers N` picks the
/// worker-thread count (default: the machine's parallelism), `--quantum-us Q`
/// the arbiter window, `--lookahead D` the credit depth. Workers and
/// lookahead never change simulated results (the determinism suite pins
/// that); a non-default quantum does, so the shape gates below assume
/// the paper's.
#[derive(Default, Clone, Copy)]
struct Cli {
    workers: Option<usize>,
    quantum_us: Option<u64>,
    lookahead: Option<u32>,
}

fn parse_cli() -> Cli {
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next()
            .unwrap_or_else(|| panic!("{flag} requires a value"))
    }
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workers" => {
                cli.workers = Some(value(&mut args, "--workers").parse().expect("--workers: N"))
            }
            "--quantum-us" => {
                cli.quantum_us = Some(
                    value(&mut args, "--quantum-us")
                        .parse()
                        .expect("--quantum-us: microseconds"),
                )
            }
            "--lookahead" => {
                cli.lookahead = Some(
                    value(&mut args, "--lookahead")
                        .parse()
                        .expect("--lookahead: depth >= 1"),
                )
            }
            // Cargo's bench runner forwards its own flags (`--bench`,
            // filter strings); only this harness's flags are consumed.
            other => eprintln!("fig18: ignoring argument {other}"),
        }
    }
    cli
}

/// Builds the simulation. `forced_workers` pins the worker count for the
/// wall-clock comparison; `None` defers to `--workers` (or auto).
fn engine(shards: usize, forced_workers: Option<usize>, cli: Cli) -> ParallelSystemSim {
    let mut cfg = ParallelSimConfig::paper(
        KvDirectConfig::with_memory(SCALED_MEMORY_BIG),
        BATCH,
        shards,
    );
    cfg.shard.windows = WINDOWS;
    cfg.workers = forced_workers.unwrap_or_else(|| cli.workers.unwrap_or(0));
    if let Some(q) = cli.quantum_us {
        cfg.arbiter.quantum = SimTime::from_us(q);
    }
    if let Some(d) = cli.lookahead {
        cfg.arbiter.lookahead = d.max(1);
    }
    let mut sim = ParallelSystemSim::new(cfg);
    for id in 0..POPULATION_PER_NIC * shards as u64 {
        sim.preload_put(&id.to_le_bytes(), &[id as u8; 8])
            .expect("preload fits");
    }
    sim
}

fn main() {
    let cli = parse_cli();
    banner(
        "Multi-NIC scaling (paper §5.2): 10 NICs → 1.22 Gops",
        "throughput scales near-linearly with NICs until the server's \
         aggregate host memory bandwidth caps it just above 1.2 Gops",
    );
    if cli.workers.is_some() || cli.quantum_us.is_some() || cli.lookahead.is_some() {
        println!(
            "overrides: workers {:?}, quantum {:?} us, lookahead {:?}\n",
            cli.workers, cli.quantum_us, cli.lookahead
        );
    }

    let mut t = Table::new(
        "simulated throughput vs number of NICs",
        &[
            "NICs",
            "Mops",
            "per-NIC Mops",
            "host lines/op",
            "stall/win us",
            "regime",
        ],
    );
    let mut per_nic_1 = 0.0;
    let mut mops_5 = 0.0;
    let mut mops_10 = 0.0;
    let mut stalled_10 = false;
    for &n in &[1usize, 2, 3, 4, 5, 6, 8, 10] {
        let mut sim = engine(n, None, cli);
        let r = sim.run(&workload(
            OPS_PER_NIC * n,
            POPULATION_PER_NIC * n as u64,
            0xF160 + n as u64,
        ));
        let lines_per_op = r.arbiter.lines as f64 / r.ops as f64;
        let stall_us = r.arbiter.stall.as_secs_f64() * 1e6 / r.arbiter.windows.max(1) as f64;
        let stalled = r.arbiter.oversubscribed > 0;
        match n {
            1 => per_nic_1 = r.mops,
            5 => mops_5 = r.mops,
            10 => {
                mops_10 = r.mops;
                stalled_10 = stalled;
            }
            _ => {}
        }
        t.row(&[
            n.to_string(),
            fmt_f(r.mops, 0),
            fmt_f(r.mops / n as f64, 1),
            fmt_f(lines_per_op, 2),
            fmt_f(stall_us, 2),
            if stalled {
                "host-bound".into()
            } else {
                "linear".to_string()
            },
        ]);
    }
    t.print();

    // Wall-clock: the same 10-NIC simulation, stepped by 1 worker thread
    // vs the machine's available parallelism.
    let reqs = workload(OPS_PER_NIC * 10, POPULATION_PER_NIC * 10, 0xF170);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let started = Instant::now();
    let seq = engine(10, Some(1), cli).run(&reqs);
    let t_seq = started.elapsed();
    let started = Instant::now();
    let par = engine(10, None, cli).run(&reqs);
    let t_par = started.elapsed();
    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    println!(
        "wall-clock, 10 shards x {} ops: 1 worker {:.0} ms, {} workers {:.0} ms ({speedup:.2}x)\n",
        OPS_PER_NIC,
        t_seq.as_secs_f64() * 1e3,
        cores.min(10),
        t_par.as_secs_f64() * 1e3,
    );
    assert_eq!(seq, par, "worker count must not change simulated results");

    // Functional pass: a 10-shard store behaves like one store.
    let mut s = ParallelSystemSim::new(ParallelSimConfig::paper(
        KvDirectConfig::with_memory(SCALED_MEMORY),
        BATCH,
        10,
    ));
    for i in 0..1000u64 {
        s.preload_put(&i.to_le_bytes(), &i.to_be_bytes())
            .expect("fits");
    }
    let all_ok = (0..1000u64).all(|i| {
        let k = i.to_le_bytes();
        s.shard_store_mut(shard_of(&k, 10)).get(&k) == Some(i.to_be_bytes().to_vec())
    });
    let loads: Vec<u64> = (0..10)
        .map(|i| s.shard_store_mut(i).processor().table().len())
        .collect();
    println!("shard loads: {loads:?}\n");

    shape_check(
        "10 NICs land near the paper's 1.22 Gops",
        (1100.0..1400.0).contains(&mops_10),
        &format!("{mops_10:.0} Mops simulated (paper: 1220)"),
    );
    shape_check(
        "scaling is near-linear through 5 NICs",
        mops_5 > per_nic_1 * 5.0 * 0.9,
        &format!(
            "5 NICs {:.0} Mops vs 5 x {:.0} = {:.0}",
            mops_5,
            per_nic_1,
            per_nic_1 * 5.0
        ),
    );
    shape_check(
        "10-NIC regime is host-memory-bound",
        stalled_10 && mops_10 < per_nic_1 * 10.0 * 0.95,
        &format!(
            "arbiter oversubscribed; 10 NICs {:.0} Mops < 10 x {:.0}",
            mops_10, per_nic_1
        ),
    );
    shape_check(
        "per-NIC throughput near the 180 Mops clock bound",
        (140.0..200.0).contains(&per_nic_1),
        &format!("{per_nic_1:.0} Mops at 1 NIC (paper: ~180)"),
    );
    shape_check(
        "functional sharding correct and balanced",
        all_ok && loads.iter().all(|&l| l > 50),
        &format!("1000 keys across shards {loads:?}"),
    );
    let threaded_ok = cores == 1 || speedup > 1.05;
    shape_check(
        "parallel stepping beats sequential wall-clock",
        threaded_ok,
        &format!("{speedup:.2}x with {cores} cores available"),
    );
}
