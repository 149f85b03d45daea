//! Parallel sharded execution engine — the paper's multi-NIC server
//! (§5.2, Figure 18), simulated rather than composed.
//!
//! Ten programmable NICs in one server give 10 × 180 Mops of NIC-side
//! capacity, but every NIC's DMA engines draw from the same host DRAM
//! controllers, so measured throughput saturates at 1.22 Gops. This
//! module reproduces that experiment structurally: one full timed
//! pipeline ([`SystemSim`]: client ↔ 40 GbE ↔ KV processor ↔ PCIe/DRAM)
//! per shard, key-partitioned request routing via [`kvd_net::shard_of`],
//! and a conservative time-quantum [`kvd_sim::HostArbiter`] standing in
//! for the shared host memory.
//!
//! # Synchronization scheme
//!
//! Simulated time advances in *arbiter windows* of one quantum. Window
//! `k` spans `[f_k, f_k + q)`: a shard simulates all request batches that
//! issue inside the window (issue times floored at `f_k`), counting the
//! host cache lines its DMA engines touched. When every shard's window-k
//! traffic is in, the aggregate is charged to the arbiter; an
//! oversubscribed window stretches the next window's floor,
//! `f_{k+1} = f_k + q + stall`, so every shard's subsequent requests are
//! pushed out and aggregate throughput degrades exactly to the host's
//! random-access capacity — the Figure 18 knee emerges from contention,
//! not from a formula.
//!
//! Coordination is *asynchronous*: instead of a global barrier (spawn
//! threads, step every shard, merge every window ledger, repeat each
//! 8 µs quantum), persistent workers draw credit from a
//! [`CreditArbiter`]. A shard publishes its window as three `u64`s
//! through its own atomic cell; whichever publication closes the window
//! settles it and releases the next; shards that cannot touch a window
//! (drained, or next event beyond the horizon) are settled by
//! Chandy–Misra null messages without their threads waking. Per-window
//! `OpLedger` merges are gone from the hot path entirely — each shard's
//! ledger accumulates in place and is folded once per report.
//!
//! # Determinism
//!
//! Within a window each shard's evolution depends only on its own state
//! and the `(horizon, floor)` pair, which is itself a pure function of
//! per-window aggregate traffic — a commutative sum of `u64`s,
//! independent of which OS thread stepped which shard and of how far any
//! worker ran ahead. Worker threads only partition the shard vector;
//! they exchange no other state. A run is therefore bit-identical for
//! any worker count and any lookahead depth, which
//! `tests/parallel_determinism.rs` enforces over a depth × worker ×
//! quantum matrix.

use kvd_net::{shard_of, KvRequest, Status};
use kvd_sim::{
    ArbiterStats, Credit, CreditArbiter, FaultCounters, Histogram, HostArbiterConfig, OpLedger,
    RunSummary, SimTime,
};

use crate::store::{KvDirectConfig, KvDirectStore, StoreError};
use crate::system::{SystemSim, SystemSimConfig, SystemSimReport};

/// Decorrelates shard fault schedules: shard `i`'s store fault seed is
/// xored with `i * SHARD_FAULT_SALT` so ten NICs never fault in lockstep.
/// Zero-rate planes never consume randomness, so fault-free runs are
/// unaffected by the salt.
const SHARD_FAULT_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// Configuration of the parallel multi-shard engine.
#[derive(Debug, Clone)]
pub struct ParallelSimConfig {
    /// Per-shard pipeline configuration (one NIC's worth).
    pub shard: SystemSimConfig,
    /// Number of shards (NICs).
    pub shards: usize,
    /// OS worker threads stepping the shards; `0` uses the machine's
    /// available parallelism. Results are bit-identical for any value.
    pub workers: usize,
    /// Shared host-memory arbiter.
    pub arbiter: HostArbiterConfig,
    /// Master seed; each shard's rng/jitter forks deterministically from
    /// it, so shard `i` behaves identically regardless of shard count.
    pub seed: u64,
    /// Retain each shard's full individual report in
    /// [`ParallelSimReport::per_shard`]. Off by default: every shard's
    /// report carries its histograms and full op-cost ledger, so a
    /// large-shard-count run would pay O(shards) payload on every
    /// report (and every report clone/compare) for data most callers
    /// never read.
    pub per_shard_reports: bool,
}

impl ParallelSimConfig {
    /// The paper's testbed: `shards` NICs, each running the Figure 17
    /// pipeline, over the shared host-DRAM arbiter.
    pub fn paper(store: KvDirectConfig, batch: usize, shards: usize) -> Self {
        ParallelSimConfig {
            shard: SystemSimConfig::paper(store, batch),
            shards,
            workers: 0,
            arbiter: HostArbiterConfig::paper(),
            seed: 0xF1_618,
            per_shard_reports: false,
        }
    }

    /// Builder flag: retain per-shard reports (see
    /// [`Self::per_shard_reports`]).
    pub fn with_per_shard_reports(mut self) -> Self {
        self.per_shard_reports = true;
        self
    }
}

/// Result of a parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelSimReport {
    /// Shards simulated.
    pub shards: usize,
    /// Aggregate run accounting: op totals, throughput/goodput rates
    /// over the slowest shard's makespan, and shard-merged latency
    /// summaries. Also reachable through `Deref`, so `r.mops` works.
    pub summary: RunSummary,
    /// Fault rollup merged across shards (stores + network links).
    pub faults: FaultCounters,
    /// The op-cost ledger merged across shards in shard order
    /// (deterministic: bit-identical for any worker count).
    pub ledger: OpLedger,
    /// Each shard's individual report, in shard order. Empty unless
    /// [`ParallelSimConfig::per_shard_reports`] is set.
    pub per_shard: Vec<SystemSimReport>,
    /// Host-memory arbiter activity (windows, oversubscription, stall).
    pub arbiter: ArbiterStats,
}

impl std::ops::Deref for ParallelSimReport {
    type Target = RunSummary;

    fn deref(&self) -> &RunSummary {
        &self.summary
    }
}

/// The parallel sharded simulator.
///
/// # Examples
///
/// ```
/// use kvd_core::parallel::{ParallelSimConfig, ParallelSystemSim};
/// use kvd_core::KvDirectConfig;
/// use kvd_net::KvRequest;
///
/// let mut sim = ParallelSystemSim::new(ParallelSimConfig::paper(
///     KvDirectConfig::with_memory(1 << 20),
///     8,
///     4,
/// ));
/// for id in 0..64u64 {
///     sim.preload_put(&id.to_le_bytes(), b"v").unwrap();
/// }
/// let reqs: Vec<KvRequest> = (0..256u64)
///     .map(|i| KvRequest::get(&(i % 64).to_le_bytes()))
///     .collect();
/// let r = sim.run(&reqs);
/// assert_eq!(r.ops, 256);
/// assert!(r.mops > 0.0);
/// ```
pub struct ParallelSystemSim {
    cfg: ParallelSimConfig,
    sims: Vec<SystemSim>,
    credit: CreditArbiter,
}

impl ParallelSystemSim {
    /// Builds one pipeline per shard, each seeded from the master seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards == 0`, the arbiter quantum is zero, or the
    /// lookahead depth is zero.
    pub fn new(cfg: ParallelSimConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let sims = (0..cfg.shards)
            .map(|i| {
                let salt = cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut shard_cfg = cfg.shard.clone();
                shard_cfg.store.fault_seed ^= (i as u64).wrapping_mul(SHARD_FAULT_SALT);
                SystemSim::with_seed(shard_cfg, salt)
            })
            .collect();
        ParallelSystemSim {
            credit: CreditArbiter::new(cfg.arbiter.clone(), cfg.shards),
            sims,
            cfg,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.sims.len()
    }

    /// Preloads a key/value pair into its owning shard (functional path,
    /// outside simulated time).
    pub fn preload_put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let s = shard_of(key, self.sims.len());
        self.sims[s].store_mut().put(key, value)
    }

    /// Direct access to one shard's store (λ registration, preloading).
    pub fn shard_store_mut(&mut self, i: usize) -> &mut KvDirectStore {
        self.sims[i].store_mut()
    }

    fn worker_count(&self) -> usize {
        let w = if self.cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.cfg.workers
        };
        w.clamp(1, self.sims.len())
    }

    /// Records every shard's per-request outcomes for consistency
    /// checking (see [`SystemSim::set_record_outcomes`]).
    pub fn set_record_outcomes(&mut self, on: bool) {
        for sim in &mut self.sims {
            sim.set_record_outcomes(on);
        }
    }

    /// Outcomes shard `i` captured during the last run, aligned with the
    /// requests routed to it (route with [`kvd_net::shard_of`] to
    /// reconstruct the mapping client-side).
    pub fn shard_outcomes(&self, i: usize) -> &[(Status, Vec<u8>)] {
        self.sims[i].outcomes()
    }

    /// Routes the stream to its owning shards, simulates to completion,
    /// and merges the per-shard reports.
    pub fn run(&mut self, reqs: &[KvRequest]) -> ParallelSimReport {
        self.stage(reqs);
        self.drive_staged();
        self.merged_report()
    }

    /// Routes and stages a closed-loop stream without driving it —
    /// [`Self::run`] is `stage` + [`Self::drive_staged`] +
    /// [`Self::merged_report`], split so callers can separate routing
    /// allocations from the allocation-free drive (and time them
    /// independently).
    pub fn stage(&mut self, reqs: &[KvRequest]) {
        let routed = self.route(reqs, |r| &r.key);
        for (sim, shard_reqs) in self.sims.iter_mut().zip(routed) {
            sim.load_owned(shard_reqs);
        }
    }

    /// Open-loop variant of [`Self::run`]: each request carries its
    /// client issue time (non-decreasing). Routing preserves per-shard
    /// arrival order, so every shard sees a sorted sub-schedule.
    pub fn run_open(&mut self, reqs: &[(SimTime, KvRequest)]) -> ParallelSimReport {
        let routed = self.route(reqs, |(_, r)| &r.key);
        for (sim, shard) in self.sims.iter_mut().zip(routed) {
            let (arrivals, shard_reqs) = shard.into_iter().unzip();
            sim.load_open_owned(shard_reqs, arrivals);
        }
        self.drive_staged();
        self.merged_report()
    }

    /// Client-side routing behind both loaders: each key's shard is a
    /// pure hash, so the partition is independent of worker count and
    /// order within a shard is preserved. Each item is cloned once, into
    /// the per-shard buffer the shard then takes whole.
    fn route<T: Clone>(&self, items: &[T], key: impl Fn(&T) -> &[u8]) -> Vec<Vec<T>> {
        let n = self.sims.len();
        let mut routed = vec![Vec::new(); n];
        for item in items {
            routed[shard_of(key(item), n)].push(item.clone());
        }
        routed
    }

    /// Drives every shard's staged stream to completion (see
    /// [`Self::stage`]) through the asynchronous credit arbiter:
    /// persistent workers draw `(window, floor, horizon, stall)` credit
    /// per shard, publish the three scalars each window produced, and the
    /// arbiter settles windows as they close (by real publications or by
    /// null messages for idle shards). The settled stall feeds back into
    /// each shard as backpressure (`stall / quantum` host stretch)
    /// exactly when the shard next executes — the only time the gauge is
    /// read — so the per-shard `(absorb, advance)` sequence is
    /// bit-identical to the lockstep barrier's.
    ///
    /// Steady-state allocation-free with one worker; multi-worker runs
    /// allocate only the scoped worker threads.
    pub fn drive_staged(&mut self) {
        let quantum = self.credit.quantum();
        let lookahead = u64::from(self.credit.lookahead().max(1));
        self.credit.begin();
        // Shards whose routed stream is empty publish a terminal null up
        // front; the settlement cascade carries them from there.
        for (i, sim) in self.sims.iter().enumerate() {
            if sim.staged_done() {
                self.credit.publish(i, 0, SimTime::MAX, true);
            }
        }
        if !self.credit.all_done() {
            let workers = self.worker_count();
            let credit = &self.credit;
            if workers == 1 {
                Self::work(credit, 0, &mut self.sims, quantum, lookahead);
            } else {
                let chunk = self.sims.len().div_ceil(workers);
                crossbeam::thread::scope(|s| {
                    for (ci, sims) in self.sims.chunks_mut(chunk).enumerate() {
                        s.spawn(move |_| Self::work(credit, ci * chunk, sims, quantum, lookahead));
                    }
                })
                .expect("shard worker panicked");
            }
        }
        // Leave every shard's pressure gauge holding the final window's
        // verdict, as the barrier engine did.
        let stall = self.credit.last_stall();
        for sim in self.sims.iter_mut() {
            sim.absorb_host_stall(stall, quantum);
        }
    }

    /// One worker's loop over its owned shard slice (`base..base +
    /// sims.len()` in global shard indices). Bursts up to `lookahead`
    /// consecutive windows on a shard before servicing the next, and
    /// sleeps on the arbiter only when every owned shard is blocked on
    /// settlement — which, with a single worker, never happens (the
    /// publication closing a window settles it synchronously).
    fn work(
        credit: &CreditArbiter,
        base: usize,
        sims: &mut [SystemSim],
        quantum: SimTime,
        lookahead: u64,
    ) {
        let mut seen = credit.settled();
        loop {
            let mut progressed = false;
            let mut live = false;
            for (off, sim) in sims.iter_mut().enumerate() {
                let shard = base + off;
                let mut burst = 0u64;
                loop {
                    match credit.credit(shard) {
                        Credit::Step {
                            window,
                            floor,
                            horizon,
                            stall,
                        } => {
                            // Fold the settled stall of the previous
                            // window into the shard's backpressure gauge
                            // before stepping (window 0 has no previous
                            // window: its gauge keeps the load-time
                            // zeros, as under the barrier).
                            if window > 0 {
                                sim.absorb_host_stall(stall, quantum);
                            }
                            let w = sim.step(horizon, floor);
                            credit.publish(shard, w.host_lines, w.next_event, w.done);
                            progressed = true;
                            if w.done {
                                break;
                            }
                            burst += 1;
                            if burst >= lookahead {
                                live = true;
                                break;
                            }
                        }
                        Credit::Blocked => {
                            live = true;
                            break;
                        }
                        Credit::ShardDone => break,
                    }
                }
            }
            if !live || credit.all_done() {
                return;
            }
            seen = if progressed {
                credit.settled()
            } else {
                credit.wait_progress(seen)
            };
        }
    }

    /// Folds the per-shard state into one report. Shard-order fold:
    /// ledger merge is associative and commutative, but folding in shard
    /// order keeps the invariant trivially auditable (and bit-identical
    /// for any worker count). Per-shard reports are retained only when
    /// [`ParallelSimConfig::per_shard_reports`] is set.
    pub fn merged_report(&self) -> ParallelSimReport {
        let n = self.sims.len();
        let mut ops = 0u64;
        let mut elapsed = SimTime::ZERO;
        let mut goodput_ops = 0u64;
        let mut shed_ops = 0u64;
        let mut expired_ops = 0u64;
        let mut get_hist = Histogram::new();
        let mut put_hist = Histogram::new();
        let mut ledger = OpLedger::default();
        let mut faults = FaultCounters::default();
        let mut per_shard = Vec::new();
        if self.cfg.per_shard_reports {
            per_shard.reserve_exact(n);
        }
        for sim in &self.sims {
            let r = sim.report();
            ops += r.ops;
            elapsed = elapsed.max(r.elapsed);
            goodput_ops += r.goodput_ops;
            shed_ops += r.shed_ops;
            expired_ops += r.expired_ops;
            let (g, p) = sim.histograms();
            get_hist.merge(g);
            put_hist.merge(p);
            ledger.merge(&r.ledger);
            faults.merge(&r.faults);
            if self.cfg.per_shard_reports {
                per_shard.push(r);
            }
        }
        ParallelSimReport {
            shards: n,
            summary: RunSummary::new(
                ops,
                elapsed,
                goodput_ops,
                shed_ops,
                expired_ops,
                &get_hist,
                &put_hist,
            ),
            faults,
            ledger,
            per_shard,
            arbiter: self.credit.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::DetRng;

    fn workload(n: usize, keys: u64, seed: u64) -> Vec<KvRequest> {
        let mut rng = DetRng::seed(seed);
        (0..n)
            .map(|_| {
                let id = rng.u64_below(keys);
                if rng.chance(0.1) {
                    KvRequest::put(&id.to_le_bytes(), &[9u8; 8])
                } else {
                    KvRequest::get(&id.to_le_bytes())
                }
            })
            .collect()
    }

    fn preloaded(cfg: ParallelSimConfig, keys: u64) -> ParallelSystemSim {
        let mut sim = ParallelSystemSim::new(cfg);
        for id in 0..keys {
            sim.preload_put(&id.to_le_bytes(), &[id as u8; 8])
                .expect("preload fits");
        }
        sim
    }

    #[test]
    fn all_ops_complete_and_land_in_one_histogram() {
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8, 4)
            .with_per_shard_reports();
        let mut sim = preloaded(cfg, 2_000);
        let r = sim.run(&workload(4_000, 2_000, 11));
        assert_eq!(r.ops, 4_000);
        assert_eq!(r.get_latency.count + r.put_latency.count, 4_000);
        assert_eq!(r.per_shard.iter().map(|s| s.ops).sum::<u64>(), 4_000);
        assert!(r.elapsed > SimTime::ZERO);
        assert!(r.arbiter.windows > 0);
    }

    #[test]
    fn more_shards_give_more_throughput_until_contention() {
        let reqs = workload(20_000, 10_000, 12);
        let mut one = preloaded(
            ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40, 1),
            10_000,
        );
        let r1 = one.run(&reqs);
        let mut four = preloaded(
            ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40, 4),
            10_000,
        );
        let r4 = four.run(&reqs);
        assert!(
            r4.mops > r1.mops * 2.5,
            "4 shards {} vs 1 shard {} Mops",
            r4.mops,
            r1.mops
        );
    }

    #[test]
    fn starved_arbiter_never_stalls() {
        // A single lightly-loaded shard cannot oversubscribe host DRAM.
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 1, 1);
        let mut sim = preloaded(cfg, 100);
        let r = sim.run(&workload(200, 100, 13));
        assert_eq!(r.arbiter.oversubscribed, 0);
        assert_eq!(r.arbiter.stall, SimTime::ZERO);
    }

    #[test]
    fn shard_fault_schedules_are_decorrelated() {
        // With faults on, each shard must fault on its own schedule: a
        // lockstep schedule would make every NIC retry the same ops at
        // the same time, which no real deployment does.
        let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8, 4)
            .with_per_shard_reports();
        cfg.shard.store.fault_rates = kvd_sim::FaultRates::uniform(0.02);
        cfg.shard.store.fault_seed = 9;
        let mut sim = preloaded(cfg, 2_000);
        let r = sim.run(&workload(8_000, 2_000, 15));
        assert!(r.faults.total_faults() > 0, "2% rates over 8k ops fire");
        let per: Vec<u64> = r
            .per_shard
            .iter()
            .map(|s| s.faults.total_faults())
            .collect();
        assert!(
            per.windows(2).any(|w| w[0] != w[1]),
            "identical per-shard fault counts {per:?} suggest lockstep schedules"
        );
        // The merged rollup is exactly the per-shard sum.
        assert_eq!(per.iter().sum::<u64>(), r.faults.total_faults());
    }

    #[test]
    fn open_loop_run_merges_goodput_and_outcomes() {
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8, 4);
        let mut sim = preloaded(cfg, 1_000);
        sim.set_record_outcomes(true);
        // 4 Mops offered across 4 shards: comfortably under capacity.
        let reqs: Vec<(SimTime, KvRequest)> = workload(2_000, 1_000, 16)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (SimTime::from_ns(250 * i as u64), r))
            .collect();
        let r = sim.run_open(&reqs);
        assert_eq!(r.ops, 2_000);
        assert_eq!(r.goodput_ops, 2_000, "uncongested open loop is all goodput");
        assert_eq!(r.shed_ops + r.expired_ops, 0);
        let recorded: usize = (0..sim.shards()).map(|i| sim.shard_outcomes(i).len()).sum();
        assert_eq!(recorded, 2_000, "every op's outcome captured exactly once");
    }

    #[test]
    fn open_loop_agrees_across_worker_counts() {
        let reqs: Vec<(SimTime, KvRequest)> = workload(4_000, 2_000, 17)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (SimTime::from_ns(50 * i as u64), r))
            .collect();
        let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 16, 6);
        cfg.shard.store.fault_rates = kvd_sim::FaultRates::uniform(0.01);
        cfg.shard.store.overload = crate::overload::OverloadConfig::enabled();
        let mut a = preloaded(
            {
                let mut c = cfg.clone();
                c.workers = 1;
                c
            },
            2_000,
        );
        let mut b = preloaded(
            {
                let mut c = cfg;
                c.workers = 3;
                c
            },
            2_000,
        );
        assert_eq!(a.run_open(&reqs), b.run_open(&reqs));
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let reqs = workload(6_000, 3_000, 14);
        let mut a = preloaded(
            {
                let mut c = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 16, 6);
                c.workers = 1;
                c
            },
            3_000,
        );
        let mut b = preloaded(
            {
                let mut c = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 16, 6);
                c.workers = 3;
                c
            },
            3_000,
        );
        assert_eq!(a.run(&reqs), b.run(&reqs));
    }
}
