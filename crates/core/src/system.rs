//! Timed end-to-end system simulation (client ↔ NIC ↔ host memory).
//!
//! The composition model in [`crate::timing`] predicts throughput and
//! latency analytically; this module *simulates* them: a closed-loop
//! client sends batched request packets over the 40 GbE model, the KV
//! processor executes each operation functionally (so access counts are
//! real, per operation), and every memory access is charged to the PCIe
//! DMA ports or the NIC DRAM channel in simulated time, respecting
//! dependency order (a GET's data read waits for its bucket read; posted
//! writes do not extend the critical path). Client-observed latencies
//! land in a histogram, yielding the paper's 5th/95th-percentile error
//! bars (Figure 17) from first principles.
//!
//! The simulator is *steppable*: [`SystemSim::load_owned`] stages a
//! request stream and [`SystemSim::step`] advances it only up to a time
//! horizon, reporting how many host-memory cache lines the window
//! consumed. The parallel multi-NIC engine ([`crate::parallel`]) drives
//! one `SystemSim` per shard in lockstep windows and charges their
//! aggregate host traffic to a shared DRAM arbiter; [`SystemSim::run`] is
//! the single-shard convenience that steps to completion in one
//! unbounded window.
//!
//! # Open-loop mode and the overload plane
//!
//! [`SystemSim::load_open_owned`] stages an *arrival schedule* instead of
//! a closed loop: each request carries the instant its client issues it,
//! independent of responses. Offered load can then exceed capacity,
//! which is where the overload plane earns its keep: a per-batch
//! [`PressureGauge`] folds the simulated-time backlogs (decode queue,
//! PCIe tag pressure, host-arbiter stretch) into the store's admission
//! controller, the decode clock drives server-side deadline expiry, and
//! requests already past their deadline at batch-cut are dropped at the
//! client before burning wire bandwidth. [`SystemSimReport`] separates
//! *goodput* (useful, on-time responses) from raw completions, and the
//! request/response links inherit the store's fault plane so packet
//! drops and reorders ride the same deterministic schedule.

use kvd_mem::MemoryEngine;
use kvd_net::{KvRequest, KvResponse, NetConfig, NetLink, OpCode, Status};
use kvd_pcie::PcieConfig;
use kvd_sim::{
    Bandwidth, CostSource, DetRng, FaultCounters, FaultPlane, Freq, Histogram, OpClass, OpLedger,
    PressureGauge, SimTime,
};
pub use kvd_sim::{Percentile, RunSummary};

use crate::store::{KvDirectConfig, KvDirectStore};

/// Salt separating the network links' fault stream from the store's
/// (memory + processor) streams derived from the same `fault_seed`.
const NET_FAULT_SALT: u64 = 0x6E65_745F_6C6E_6B73; // "net_lnks"

/// Configuration of the end-to-end simulation.
#[derive(Debug, Clone)]
pub struct SystemSimConfig {
    /// Store configuration (memory sizes, ratios).
    pub store: KvDirectConfig,
    /// Network model.
    pub net: NetConfig,
    /// Per-endpoint PCIe model.
    pub pcie: PcieConfig,
    /// PCIe endpoints (paper: 2).
    pub pcie_ports: usize,
    /// NIC DRAM random access time per 64 B line.
    pub dram_access: SimTime,
    /// Processor clock (one op decodes per cycle).
    pub clock: Freq,
    /// Operations per request packet (1 = no batching).
    pub batch: usize,
    /// Client windows kept in flight (closed loop).
    pub windows: usize,
}

impl SystemSimConfig {
    /// The paper's testbed at the given store scale.
    pub fn paper(store: KvDirectConfig, batch: usize) -> Self {
        SystemSimConfig {
            store,
            net: NetConfig::forty_gbe(),
            pcie: PcieConfig::gen3_x8(),
            pcie_ports: 2,
            dram_access: SimTime::from_ns(120),
            clock: Freq::from_mhz(180),
            batch,
            windows: 8,
        }
    }
}

/// Result of a simulation run: the shared [`RunSummary`] accounting
/// (throughput, goodput, latency percentiles — the report derefs to it),
/// plus the fault view and the full op-cost ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSimReport {
    /// Core run accounting (ops, rates, latency summaries).
    pub summary: RunSummary,
    /// Fault rollup across the store *and* both network links — a view
    /// over the ledger's fault channels.
    pub faults: FaultCounters,
    /// The full op-cost ledger: per-plane traffic, retire outcomes,
    /// per-component latency attribution and backpressure terms.
    pub ledger: OpLedger,
}

impl std::ops::Deref for SystemSimReport {
    type Target = RunSummary;

    fn deref(&self) -> &RunSummary {
        &self.summary
    }
}

/// The end-to-end simulator.
///
/// # Examples
///
/// ```
/// use kvd_core::system::{SystemSim, SystemSimConfig, Percentile};
/// use kvd_core::KvDirectConfig;
/// use kvd_net::KvRequest;
///
/// let mut sim = SystemSim::new(SystemSimConfig::paper(
///     KvDirectConfig::with_memory(1 << 20),
///     8,
/// ));
/// // Preload, then measure a GET-only stream.
/// sim.store_mut().put(b"k", b"v").unwrap();
/// let reqs: Vec<KvRequest> = (0..256).map(|_| KvRequest::get(b"k")).collect();
/// let report = sim.run(&reqs);
/// assert!(report.get_us(Percentile::P50) > 1.0); // at least the network RTT
/// ```
pub struct SystemSim {
    cfg: SystemSimConfig,
    store: KvDirectStore,
    req_link: NetLink,
    resp_link: NetLink,
    rng: DetRng,
    /// Service time per 64 B host line across all PCIe endpoints: the
    /// tag-limited random-read rate (tags / mean RTT) or the wire
    /// bandwidth, whichever is slower.
    pcie_line_service: SimTime,
    /// Service time per 64 B line of NIC DRAM channel bandwidth.
    dram_line_service: SimTime,
    /// Fluid backlog clocks: how far each resource's committed work
    /// extends into the future.
    pcie_free: SimTime,
    dram_free: SimTime,
    // ---- staged run state (load/step/report) ----
    pending: Vec<KvRequest>,
    loads: Vec<OpLoad>,
    statuses: Vec<Status>,
    cursor: usize,
    window_free: Vec<SimTime>,
    server_free: SimTime,
    get_hist: Histogram,
    put_hist: Histogram,
    ops_done: u64,
    makespan: SimTime,
    // ---- open-loop + overload state ----
    /// Per-request client issue times; empty in closed-loop mode.
    arrivals: Vec<SimTime>,
    open_loop: bool,
    record_outcomes: bool,
    outcomes: Vec<(Status, Vec<u8>)>,
    /// The one response buffer the functional pass decodes into,
    /// persisted across batches (and runs) so its value buffer keeps
    /// circulating through the processor's pool instead of leaking one
    /// pooled buffer per batch.
    resp: KvResponse,
    goodput_ops: u64,
    shed_ops: u64,
    expired_ops: u64,
    /// The sim-side slice of the op-cost ledger: wire batch accounting,
    /// per-component latency attribution, and the raw backpressure terms
    /// the [`PressureGauge`] is computed from. Component costs (store,
    /// links) stay in their components; [`Self::ledger`] folds everything
    /// together.
    ledger: OpLedger,
}

/// One operation's captured memory-access load, charged against the
/// timed service models (scratch state between the functional and timed
/// passes of a batch).
#[derive(Debug, Clone, Copy)]
struct OpLoad {
    /// Absolute index of the request in the staged stream.
    idx: usize,
    t: SimTime,
    dma_reads: u64,
    dram_reads: u64,
    dma_writes: u64,
    dram_writes: u64,
    /// Picoseconds attributed to the processor (decode backlog + own
    /// decode cycles).
    proc_ps: u64,
    /// Picoseconds attributed to PCIe (queueing on the tag-limited path
    /// + DMA round trips).
    pcie_ps: u64,
    /// Picoseconds attributed to NIC DRAM (queueing + line accesses).
    dram_ps: u64,
}

/// What one [`SystemSim::step`] window consumed: the three scalars the
/// parallel engine's credit arbiter settles on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStep {
    /// Host-memory cache lines (PCIe DMA reads + writes) issued inside
    /// the window. The arbiter charges these against shared host DRAM
    /// bandwidth. Equal to the window's ledger delta
    /// (`ledger().since(..).host_lines()`): the simulator's PCIe DMA
    /// ledger entries are sourced solely from the memory engine's access
    /// counters.
    pub host_lines: u64,
    /// The shard's next natural event time (see [`SystemSim::next_event`]):
    /// the earliest instant at which its next batch could cut, before any
    /// floor is applied. [`SimTime::MAX`] once the stream is drained.
    pub next_event: SimTime,
    /// True once every staged request has completed.
    pub done: bool,
}

impl SystemSim {
    /// Builds the simulator with the default seed.
    pub fn new(cfg: SystemSimConfig) -> Self {
        Self::with_seed(cfg, 0xE2E0)
    }

    /// Builds the simulator with an explicit seed; every source of
    /// simulated nondeterminism (read-latency jitter, tie-breaking
    /// noise) derives from it, so two sims with equal config + seed
    /// evolve bit-identically.
    pub fn with_seed(cfg: SystemSimConfig, seed: u64) -> Self {
        let windows = cfg.windows.max(1);
        let ports = cfg.pcie_ports.max(1) as u64;
        // Per-line service time of one endpoint: a 64 B random read is
        // either tag-limited (paper: 64 tags over a ~1050 ns RTT, 61 Mops)
        // or wire-limited (90 B at 7.87 GB/s, 87 Mops); the endpoints
        // drain lines in parallel.
        let tag_limited = cfg.pcie.mean_random_read_latency() / u64::from(cfg.pcie.read_tags);
        let wire_limited = cfg.pcie.bandwidth.transfer_time(cfg.pcie.wire_bytes(64));
        // The links share the store's fault schedule: one root plane per
        // sim, forked into independent request/response streams. Zero
        // rates (the default) never consume randomness, so a fault-free
        // sim is bit-identical to one built before links had faults.
        let mut net_faults =
            FaultPlane::new(cfg.store.fault_rates, cfg.store.fault_seed ^ NET_FAULT_SALT);
        SystemSim {
            store: KvDirectStore::new(cfg.store.clone()),
            req_link: NetLink::with_faults(cfg.net.clone(), net_faults.fork(1)),
            resp_link: NetLink::with_faults(cfg.net.clone(), net_faults.fork(2)),
            rng: DetRng::seed(seed),
            pcie_line_service: tag_limited.max(wire_limited) / ports,
            dram_line_service: Bandwidth::from_gbytes_per_sec(12.8).transfer_time(64),
            pcie_free: SimTime::ZERO,
            dram_free: SimTime::ZERO,
            pending: Vec::new(),
            loads: Vec::new(),
            statuses: Vec::new(),
            cursor: 0,
            window_free: vec![SimTime::ZERO; windows],
            server_free: SimTime::ZERO,
            get_hist: Histogram::new(),
            put_hist: Histogram::new(),
            ops_done: 0,
            makespan: SimTime::ZERO,
            arrivals: Vec::new(),
            open_loop: false,
            record_outcomes: false,
            outcomes: Vec::new(),
            resp: KvResponse {
                status: Status::Ok,
                value: Vec::new(),
            },
            goodput_ops: 0,
            shed_ops: 0,
            expired_ops: 0,
            ledger: OpLedger::default(),
            cfg,
        }
    }

    /// The functional store (for preloading).
    pub fn store_mut(&mut self) -> &mut KvDirectStore {
        &mut self.store
    }

    /// Stages a stream and resets per-run accounting (histograms, op
    /// counts, client windows, recorded outcomes, the sim-side ledger).
    /// Component clocks (links, service backlogs) persist, as they would
    /// across runs on real hardware.
    fn stage(&mut self, reqs: Vec<KvRequest>, arrivals: Vec<SimTime>, open_loop: bool) {
        self.pending = reqs;
        self.arrivals = arrivals;
        self.open_loop = open_loop;
        self.cursor = 0;
        self.window_free = vec![SimTime::ZERO; self.cfg.windows.max(1)];
        self.server_free = SimTime::ZERO;
        self.get_hist = Histogram::new();
        self.put_hist = Histogram::new();
        self.ops_done = 0;
        self.makespan = SimTime::ZERO;
        self.outcomes.clear();
        self.goodput_ops = 0;
        self.shed_ops = 0;
        self.expired_ops = 0;
        self.ledger = OpLedger::default();
    }

    /// Stages a closed-loop request stream, taking ownership of it, and
    /// resets per-run accounting: the client keeps `cfg.windows` batches
    /// outstanding and issues the next batch when a window frees up.
    pub fn load_owned(&mut self, reqs: Vec<KvRequest>) {
        self.stage(reqs, Vec::new(), false);
    }

    /// Stages an *open-loop* request stream and resets per-run
    /// accounting: request `i` is issued at `arrivals[i]` regardless of
    /// outstanding responses, so offered load is a free variable (and may
    /// exceed capacity — that is the point). Batches cut every
    /// `cfg.batch` consecutive arrivals; a request whose deadline has
    /// already passed when its batch reaches the wire is dropped at the
    /// client, costing no bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or arrivals are not non-decreasing.
    pub fn load_open_owned(&mut self, reqs: Vec<KvRequest>, arrivals: Vec<SimTime>) {
        assert_eq!(
            reqs.len(),
            arrivals.len(),
            "one arrival instant per request"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "open-loop arrivals must be sorted by time"
        );
        self.stage(reqs, arrivals, true);
    }

    /// Extends an open-loop stream *without* resetting accounting: the
    /// fed requests are appended behind whatever is already staged, and
    /// histograms, op counts, recorded outcomes and the ledger keep
    /// accumulating. This is the cluster plane's issue path — the window
    /// coordinator feeds each member host exactly the client and
    /// replication traffic that lands in the upcoming window, then steps
    /// it, so a host never sees an arrival the window discipline has not
    /// yet made visible. Start from `load_open_owned(vec![], vec![])`
    /// for an initially idle host.
    ///
    /// # Panics
    ///
    /// Panics if the host is not in open-loop mode, the vectors differ
    /// in length, the fed arrivals are unsorted, or the first fed
    /// arrival precedes the last already-staged one (the combined
    /// schedule must stay non-decreasing).
    pub fn feed_open(&mut self, reqs: Vec<KvRequest>, arrivals: Vec<SimTime>) {
        assert!(self.open_loop, "feed_open extends an open-loop stream");
        assert_eq!(
            reqs.len(),
            arrivals.len(),
            "one arrival instant per request"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "fed arrivals must be sorted by time"
        );
        if let (Some(&first), Some(&last)) = (arrivals.first(), self.arrivals.last()) {
            assert!(
                first >= last,
                "fed arrivals must not precede already-staged ones"
            );
        }
        self.pending.extend(reqs);
        self.arrivals.extend(arrivals);
    }

    /// Records every staged request's `(status, value)` outcome, aligned
    /// with the request stream, for consistency checking. Off by default
    /// (response values are large).
    pub fn set_record_outcomes(&mut self, on: bool) {
        self.record_outcomes = on;
    }

    /// Outcomes captured since the last load (empty unless
    /// [`Self::set_record_outcomes`] is on).
    pub fn outcomes(&self) -> &[(Status, Vec<u8>)] {
        &self.outcomes
    }

    /// The backpressure gauge computed for the most recent batch,
    /// derived from the ledger's raw backpressure terms.
    pub fn pressure(&self) -> PressureGauge {
        PressureGauge::from_terms(&self.ledger.pressure)
    }

    /// Folds the shared host arbiter's verdict for the previous lockstep
    /// window into this shard's pressure signal: `stall / quantum` is how
    /// far host DRAM oversubscription stretched simulated time. Called by
    /// the parallel engine at its barrier; purely a pressure input, it
    /// does not move any component clock (the engine's issue-floor
    /// already models the stall).
    pub fn absorb_host_stall(&mut self, stall: SimTime, quantum: SimTime) {
        self.ledger.pressure.stall_ps = stall.as_ps();
        self.ledger.pressure.quantum_ps = quantum.as_ps();
    }

    /// Fault rollup across the store and both network links — a view
    /// over the simulation's full ledger.
    pub fn fault_counters(&self) -> FaultCounters {
        self.ledger().fault_view()
    }

    /// The simulation's full op-cost ledger: the sim-side run slice
    /// (batch fill, latency attribution, backpressure terms) folded with
    /// the store's costs and both network links'. Store and link
    /// counters span the component's lifetime (preload included),
    /// consistent with [`Self::fault_counters`].
    pub fn ledger(&self) -> OpLedger {
        let mut out = self.ledger.clone();
        self.store.emit_costs(&mut out);
        self.req_link.emit_costs(&mut out);
        self.resp_link.emit_costs(&mut out);
        out
    }

    /// Advances the staged stream through one lookahead window.
    ///
    /// Processes every batch whose client issue time — the earliest free
    /// window, floored at `floor` — falls strictly before `horizon`, and
    /// returns the host cache-line traffic those batches generated.
    /// `floor` is how the multi-NIC arbiter stretches an oversubscribed
    /// window: requests in the next window cannot issue before the
    /// stretched start, so aggregate throughput degrades without any
    /// component clock rewinding. Traffic is charged to the window where
    /// the batch *issues* (a conservative approximation: completion may
    /// spill past the horizon by at most one batch's service time).
    ///
    /// The result is three scalars, not a ledger delta, so the
    /// asynchronous engine's publication path stays off the allocator; a
    /// caller that wants the window's full op-cost delta brackets the
    /// call with [`Self::ledger`] and [`OpLedger::since`].
    pub fn step(&mut self, horizon: SimTime, floor: SimTime) -> WindowStep {
        let before = self.store.processor().table().mem().stats();
        self.advance(horizon, floor);
        let after = self.store.processor().table().mem().stats();
        WindowStep {
            host_lines: after.since(&before).dma_ops(),
            next_event: self.next_event(),
            done: self.staged_done(),
        }
    }

    /// True once every staged request has completed.
    pub fn staged_done(&self) -> bool {
        self.cursor >= self.pending.len()
    }

    /// The earliest instant the next staged batch could cut, before any
    /// issue floor: the next batch's last arrival in open-loop mode, the
    /// earliest free client window in closed-loop mode, [`SimTime::MAX`]
    /// when drained. A window `[floor, horizon)` with `next_event() >=
    /// horizon` processes nothing (batch issue times are floored at
    /// `floor < horizon` but start no earlier than this), which is what
    /// lets the credit arbiter settle idle windows with null messages
    /// instead of waking the shard.
    pub fn next_event(&self) -> SimTime {
        if self.staged_done() {
            return SimTime::MAX;
        }
        if self.open_loop {
            let end = (self.cursor + self.cfg.batch.max(1)).min(self.pending.len());
            self.arrivals[end - 1]
        } else {
            self.window_free
                .iter()
                .copied()
                .min()
                .expect("at least one window")
        }
    }

    /// The staged batch loop behind [`Self::step`].
    fn advance(&mut self, horizon: SimTime, floor: SimTime) {
        let batch = self.cfg.batch.max(1);
        let cycle = self.cfg.clock.cycle();

        while self.cursor < self.pending.len() {
            let end = (self.cursor + batch).min(self.pending.len());
            let (start, w) = if self.open_loop {
                // Open loop: the batch cuts when its last request
                // arrives, regardless of outstanding responses.
                (self.arrivals[end - 1].max(floor), usize::MAX)
            } else {
                // Closed loop: the client issues when its earliest
                // window frees up.
                let w = self
                    .window_free
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| t)
                    .map(|(i, _)| i)
                    .expect("at least one window");
                (self.window_free[w].max(floor), w)
            };
            if start >= horizon {
                break;
            }

            // Client-side expiry at batch-cut: a request whose deadline
            // has already passed when the packet would reach the wire is
            // dropped before transmission. Under sustained overload this
            // is what bounds the wire backlog — without it the link
            // queue grows without limit and *every* response is late
            // (congestion collapse).
            let wire_start = start.max(self.req_link.free_at());
            let dead_at_client = |r: &KvRequest| {
                r.deadline_us != 0 && wire_start > SimTime::from_us(u64::from(r.deadline_us))
            };

            // Request packet: header-amortized batch on the wire, live
            // (unexpired) requests only.
            let req_bytes: u64 = self.pending[self.cursor..end]
                .iter()
                .filter(|r| !dead_at_client(r))
                .map(|r| 4 + r.key.len() as u64 + r.value.len() as u64)
                .sum();
            self.statuses.clear();
            self.loads.clear();
            let mut resp_bytes = 0u64;

            let resp_arrive = if req_bytes == 0 {
                // Every request in the batch died at the client: nothing
                // reaches the wire, the server, or the response path.
                for _ in self.cursor..end {
                    self.ledger.net.client_expired += 1;
                    self.statuses.push(Status::Expired);
                    if self.record_outcomes {
                        self.outcomes.push((Status::Expired, Vec::new()));
                    }
                }
                self.makespan = self.makespan.max(start);
                start
            } else {
                let arrive = self.req_link.send(start, req_bytes);

                // Server: the decoder is a single 180 MHz pipeline shared
                // by all in-flight windows — a batch cannot start
                // decoding before the previous batch has drained it.
                let decode_start = arrive.max(self.server_free);

                // Backpressure gauge for this batch: simulated-time
                // backlogs the functional processor cannot see, each
                // normalized to its resource's capacity envelope. Fed to
                // the store's admission controller (inert unless the
                // overload plane is enabled).
                let station_cap = cycle * self.cfg.store.station.capacity as u64;
                let tag_cap = self.pcie_line_service
                    * (u64::from(self.cfg.pcie.read_tags) * self.cfg.pcie_ports.max(1) as u64);
                let terms = &mut self.ledger.pressure;
                terms.station_backlog_ps = self.server_free.saturating_sub(arrive).as_ps();
                terms.station_cap_ps = station_cap.as_ps();
                terms.tag_backlog_ps = self.pcie_free.saturating_sub(arrive).as_ps();
                terms.tag_cap_ps = tag_cap.as_ps();
                let gauge = PressureGauge::from_terms(terms);
                self.store
                    .processor_mut()
                    .set_external_pressure(gauge.overall());

                // Pass 1: execute functionally, capturing each op's real
                // access counts. Client-expired requests never reach the
                // server; the decode clock advances only for live ops,
                // and feeds the processor so server-side deadline expiry
                // sees simulated time.
                let mut decoded = 0u64;
                // One response reused across every batch of every run:
                // its value buffer circulates through the processor's
                // pool, so the steady-state GET path allocates nothing
                // per op — and nothing per batch either (dropping a
                // batch-local response here would leak one pooled buffer
                // per batch, which the parallel engine's zero-alloc
                // guard would catch).
                let mut resp = KvResponse {
                    status: Status::Ok,
                    value: Vec::new(),
                };
                std::mem::swap(&mut resp, &mut self.resp);
                for i in self.cursor..end {
                    let req = &self.pending[i];
                    if dead_at_client(req) {
                        self.ledger.net.client_expired += 1;
                        self.statuses.push(Status::Expired);
                        if self.record_outcomes {
                            self.outcomes.push((Status::Expired, Vec::new()));
                        }
                        continue;
                    }
                    decoded += 1;
                    let decode_done = decode_start + cycle * decoded;
                    self.store.processor_mut().set_now(decode_done);
                    let before = self.store.processor().table().mem().stats();
                    self.store.execute_one_into(req.as_ref(), &mut resp);
                    resp_bytes += 3 + resp.value.len() as u64;
                    let d = self.store.processor().table().mem().stats().since(&before);
                    self.statuses.push(resp.status);
                    if self.record_outcomes {
                        self.outcomes.push((resp.status, resp.value.clone()));
                    }
                    self.loads.push(OpLoad {
                        idx: i,
                        t: decode_done,
                        dma_reads: d.dma_reads,
                        dram_reads: d.dram_reads,
                        dma_writes: d.dma_writes,
                        dram_writes: d.dram_writes,
                        proc_ps: decode_done.saturating_sub(arrive).as_ps(),
                        pcie_ps: 0,
                        dram_ps: 0,
                    });
                }
                std::mem::swap(&mut resp, &mut self.resp);
                self.server_free = decode_start + cycle * decoded;
                self.ledger.net.batches += 1;
                self.ledger.net.batch_ops += decoded;
                // Background reaper: one bounded sweep per batch, after
                // the functional pass so per-op load deltas stay clean.
                // Its memory traffic flows through the table's engine and
                // is therefore captured by both the ledger's DMA counters
                // and the window host lines; it is deliberately *not*
                // charged to op latencies or the PCIe/DRAM backlog clocks
                // — the reaper rides idle gaps as background traffic.
                if self.cfg.store.reap_buckets_per_batch > 0 {
                    self.store
                        .processor_mut()
                        .sweep_expired(self.cfg.store.reap_buckets_per_batch);
                }
                // Pass 2: charge the accesses against fluid service
                // models of the PCIe DMA engines and the NIC DRAM
                // channel. Independent operations overlap freely up to
                // each resource's service rate (tag-limited random reads
                // for PCIe, line bandwidth for DRAM); a saturated
                // resource shows up as a backlog clock running ahead of
                // arrivals, which delays every operation that touches it.
                // Within an op, dependent reads still chain (bucket →
                // data); posted writes consume service capacity but do
                // not extend the critical path.
                let pcie_backlog = self.pcie_free.saturating_sub(arrive);
                let dram_backlog = self.dram_free.saturating_sub(arrive);
                let mut batch_done = arrive;
                let (mut pcie_lines, mut dram_lines) = (0u64, 0u64);
                for li in 0..self.loads.len() {
                    let op = self.loads[li];
                    // Queueing delay lands on whichever resource owns the
                    // dominant backlog; it is attributed to that component
                    // in the per-op latency breakdown.
                    let (queued, queued_is_pcie) = match (op.dma_reads > 0, op.dram_reads > 0) {
                        (true, true) => {
                            (pcie_backlog.max(dram_backlog), pcie_backlog >= dram_backlog)
                        }
                        (true, false) => (pcie_backlog, true),
                        (false, true) => (dram_backlog, false),
                        (false, false) => (SimTime::ZERO, true),
                    };
                    let mut t = op.t + queued;
                    let mut pcie_ps = if queued_is_pcie { queued.as_ps() } else { 0 };
                    let mut dram_ps = if queued_is_pcie { 0 } else { queued.as_ps() };
                    for _ in 0..op.dma_reads {
                        let mut rtt = self.cfg.pcie.cached_read_latency.sample(&mut self.rng);
                        rtt += SimTime::from_ps(
                            self.rng
                                .u64_below(self.cfg.pcie.noncached_extra.as_ps() + 1),
                        );
                        pcie_ps += rtt.as_ps();
                        t += rtt;
                    }
                    for _ in 0..op.dram_reads {
                        dram_ps += self.cfg.dram_access.as_ps();
                        t += self.cfg.dram_access;
                    }
                    self.loads[li].pcie_ps = pcie_ps;
                    self.loads[li].dram_ps = dram_ps;
                    pcie_lines += op.dma_reads + op.dma_writes;
                    dram_lines += op.dram_reads + op.dram_writes;
                    batch_done = batch_done.max(t);
                }
                self.pcie_free = self.pcie_free.max(arrive) + self.pcie_line_service * pcie_lines;
                self.dram_free = self.dram_free.max(arrive) + self.dram_line_service * dram_lines;

                // Response packet for the batch.
                let resp_arrive = self.resp_link.send(batch_done, resp_bytes);
                if !self.open_loop {
                    self.window_free[w] = resp_arrive;
                }
                self.makespan = self.makespan.max(resp_arrive);
                resp_arrive
            };

            // Pass 3: resolve every op in the batch. Shed and expired
            // ops count toward `ops` but not goodput and land in no
            // latency histogram (they carry no service latency); a
            // useful response must also beat its deadline to count as
            // goodput.
            let mut load_at = 0usize;
            for (off, i) in (self.cursor..end).enumerate() {
                self.ops_done += 1;
                let status = self.statuses[off];
                let load = if load_at < self.loads.len() && self.loads[load_at].idx == i {
                    load_at += 1;
                    Some(self.loads[load_at - 1])
                } else {
                    None
                };
                match status {
                    Status::Overloaded => self.shed_ops += 1,
                    Status::Expired => self.expired_ops += 1,
                    _ => {
                        let issued = if self.open_loop {
                            self.arrivals[i]
                        } else {
                            start
                        };
                        let lat = resp_arrive.saturating_sub(issued);
                        // Per-component attribution: the processor, PCIe
                        // and DRAM shares are the op's measured service
                        // terms; the remainder (wire serialization,
                        // propagation, batch skew) is the network's.
                        if let Some(load) = load {
                            let proc = load.proc_ps;
                            let pcie = load.pcie_ps;
                            let dram = load.dram_ps;
                            let net = lat.as_ps().saturating_sub(proc + pcie + dram);
                            let class = match self.pending[i].op {
                                OpCode::Put => OpClass::Put,
                                OpCode::Get => OpClass::Get,
                                _ => OpClass::Other,
                            };
                            self.ledger.latency.record(class, [net, pcie, dram, proc]);
                        }
                        // Tiny deterministic jitter spreads ties for
                        // percentile resolution (scheduling noise
                        // stand-in).
                        let jitter = SimTime::from_ps(self.rng.u64_below(50_000));
                        if self.pending[i].op == OpCode::Put {
                            self.put_hist.record_time(lat + jitter);
                        } else {
                            self.get_hist.record_time(lat + jitter);
                        }
                        let deadline = self.pending[i].deadline_us;
                        let on_time =
                            deadline == 0 || resp_arrive <= SimTime::from_us(u64::from(deadline));
                        if on_time && matches!(status, Status::Ok | Status::NotFound) {
                            self.goodput_ops += 1;
                        }
                    }
                }
            }
            self.cursor = end;
        }
    }

    /// Report over everything completed since the stream was staged.
    pub fn report(&self) -> SystemSimReport {
        SystemSimReport {
            summary: RunSummary::new(
                self.ops_done,
                self.makespan,
                self.goodput_ops,
                self.shed_ops,
                self.expired_ops,
                &self.get_hist,
                &self.put_hist,
            ),
            faults: self.fault_counters(),
            ledger: self.ledger(),
        }
    }

    /// Raw latency histograms (GET, PUT) for cross-shard merging.
    pub fn histograms(&self) -> (&Histogram, &Histogram) {
        (&self.get_hist, &self.put_hist)
    }

    /// Runs the request stream to completion, returning the report.
    ///
    /// The client keeps `windows` batches outstanding; each batch's
    /// operations execute functionally (capturing their real memory
    /// accesses) and are charged in simulated time. Equivalent to one
    /// unbounded [`Self::step`] window.
    pub fn run(&mut self, reqs: &[KvRequest]) -> SystemSimReport {
        self.load_owned(reqs.to_vec());
        while !self.step(SimTime::MAX, SimTime::ZERO).done {}
        self.report()
    }

    /// Runs an open-loop arrival schedule to completion (see
    /// [`Self::load_open_owned`]), returning the report. With the overload
    /// plane enabled, offered load beyond the saturation point sheds
    /// instead of collapsing: `goodput_mops` holds near the knee while
    /// `shed_ops`/`expired_ops` absorb the excess.
    pub fn run_open(&mut self, reqs: &[(SimTime, KvRequest)]) -> SystemSimReport {
        let (arrivals, reqs) = reqs.iter().cloned().unzip();
        self.load_open_owned(reqs, arrivals);
        while !self.step(SimTime::MAX, SimTime::ZERO).done {}
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::ZipfSampler;

    fn preloaded(n_keys: u64, val_len: usize, batch: usize) -> SystemSim {
        let mut sim = SystemSim::new(SystemSimConfig::paper(
            KvDirectConfig::with_memory(4 << 20),
            batch,
        ));
        for id in 0..n_keys {
            sim.store_mut()
                .put(&id.to_le_bytes(), &vec![id as u8; val_len])
                .expect("preload fits");
        }
        sim
    }

    fn mixed_reqs(n: usize, n_keys: u64, put_ratio: f64, zipf: bool, seed: u64) -> Vec<KvRequest> {
        let mut rng = DetRng::seed(seed);
        let sampler = ZipfSampler::new(n_keys, 0.99);
        (0..n)
            .map(|_| {
                let id = if zipf {
                    sampler.sample(&mut rng)
                } else {
                    rng.u64_below(n_keys)
                };
                if rng.chance(put_ratio) {
                    KvRequest::put(&id.to_le_bytes(), &[7u8; 8])
                } else {
                    KvRequest::get(&id.to_le_bytes())
                }
            })
            .collect()
    }

    #[test]
    fn clocked_reaper_reclaims_dead_entries_in_the_background() {
        let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(4 << 20), 8);
        cfg.store.reap_buckets_per_batch = 256;
        let mut sim = SystemSim::new(cfg);
        // A corpus of mortal entries on a keyspace disjoint from the
        // workload below, so only the reaper (never a lazy probe) can
        // reclaim them.
        for id in 0..500u64 {
            sim.store_mut()
                .put_ttl(&(1_000_000 + id).to_le_bytes(), &[9u8; 8], 1)
                .expect("preload fits");
        }
        assert_eq!(sim.store_mut().processor().table().len(), 500);
        // Kill the corpus, then run a read-only workload: every batch
        // donates one bounded background sweep.
        sim.store_mut()
            .processor_mut()
            .set_now(SimTime::from_us(2_000));
        sim.run(&mixed_reqs(3000, 1000, 0.0, false, 9));
        let e = sim.ledger().expiry;
        assert_eq!(e.reaped_entries, 500, "reaper reclaimed the corpus");
        assert_eq!(e.lazy_expired, 0, "no foreground probe paid for it");
        assert!(e.sweep_passes > 0);
        assert_eq!(sim.store_mut().processor().table().len(), 0);
    }

    #[test]
    fn latency_floor_is_network_rtt_plus_memory() {
        // A corpus far larger than the 1024-slot station, so reads truly
        // touch memory (a tiny corpus would live in the forwarding cache
        // forever — correct, but not what this test probes).
        let mut sim = preloaded(20_000, 8, 1);
        let r = sim.run(&mixed_reqs(500, 20_000, 0.0, false, 1));
        // ≥ 2us network RTT + ~1us memory; ≤ the paper's ~10us band.
        let p50 = r.get_us(Percentile::P50);
        assert!(p50 > 2.5, "p50 {p50}us below physical floor");
        assert!(p50 < 10.0, "p50 {p50}us above the paper's band");
        assert!(r.get_latency.p95 >= r.get_latency.p50);
    }

    #[test]
    fn puts_slower_than_gets() {
        let mut sim = preloaded(1000, 8, 1);
        let r = sim.run(&mixed_reqs(2000, 1000, 0.5, false, 2));
        assert!(
            r.put_us(Percentile::P50) > r.get_us(Percentile::P50) * 0.95,
            "PUT {} vs GET {}",
            r.put_us(Percentile::P50),
            r.get_us(Percentile::P50)
        );
    }

    #[test]
    fn skew_reduces_latency() {
        let mut uni = preloaded(20_000, 8, 1);
        let ru = uni.run(&mixed_reqs(3000, 20_000, 0.0, false, 3));
        let mut zipf = preloaded(20_000, 8, 1);
        let rz = zipf.run(&mixed_reqs(3000, 20_000, 0.0, true, 3));
        // Station forwarding + DRAM hits shorten the skewed path.
        assert!(
            rz.get_us(Percentile::P50) <= ru.get_us(Percentile::P50) + 0.01,
            "zipf {} vs uniform {}",
            rz.get_us(Percentile::P50),
            ru.get_us(Percentile::P50)
        );
    }

    #[test]
    fn batching_improves_throughput() {
        let reqs = mixed_reqs(4000, 1000, 0.0, false, 4);
        let mut nb = preloaded(1000, 8, 1);
        let rn = nb.run(&reqs);
        let mut b = preloaded(1000, 8, 40);
        let rb = b.run(&reqs);
        assert!(
            rb.mops > rn.mops * 1.5,
            "batched {} vs non-batched {} Mops",
            rb.mops,
            rn.mops
        );
        // And costs only a bounded latency increase.
        let added = rb.get_us(Percentile::P50) - rn.get_us(Percentile::P50);
        assert!(added < 2.0, "batching added {added}us");
    }

    /// Uniform open-loop arrival schedule at `rate_mops`.
    fn open_schedule(
        n: usize,
        n_keys: u64,
        put_ratio: f64,
        rate_mops: f64,
        deadline_us: u32,
        seed: u64,
    ) -> Vec<(SimTime, KvRequest)> {
        let gap_ps = (1e6 / rate_mops) as u64;
        mixed_reqs(n, n_keys, put_ratio, false, seed)
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                let t = SimTime::from_ps(gap_ps * i as u64);
                if deadline_us != 0 {
                    r = r.with_deadline(t.as_us() as u32 + deadline_us);
                }
                (t, r)
            })
            .collect()
    }

    #[test]
    fn feed_open_matches_upfront_staging() {
        let sched = open_schedule(1_000, 2_000, 0.2, 2.0, 0, 7);
        let mut a = preloaded(2_000, 8, 1);
        a.set_record_outcomes(true);
        let ra = a.run_open(&sched);

        // Same stream fed incrementally: first half, a bounded step, then
        // the rest — accounting must accumulate identically.
        let mut b = preloaded(2_000, 8, 1);
        b.set_record_outcomes(true);
        b.load_open_owned(Vec::new(), Vec::new());
        let cut = 500;
        b.feed_open(
            sched[..cut].iter().map(|(_, r)| r.clone()).collect(),
            sched[..cut].iter().map(|(t, _)| *t).collect(),
        );
        b.step(sched[cut].0, SimTime::ZERO);
        b.feed_open(
            sched[cut..].iter().map(|(_, r)| r.clone()).collect(),
            sched[cut..].iter().map(|(t, _)| *t).collect(),
        );
        while !b.step(SimTime::MAX, SimTime::ZERO).done {}
        let rb = b.report();

        assert_eq!(ra.ops, rb.ops);
        assert_eq!(ra.goodput_ops, rb.goodput_ops);
        assert_eq!(ra.elapsed, rb.elapsed);
        assert_eq!(a.outcomes(), b.outcomes(), "per-op outcomes identical");
    }

    #[test]
    fn open_loop_below_saturation_is_all_goodput() {
        let mut sim = preloaded(5_000, 8, 8);
        // 1 Mops offered against a pipeline good for tens of Mops.
        let r = sim.run_open(&open_schedule(2_000, 5_000, 0.1, 1.0, 100, 41));
        assert_eq!(r.ops, 2_000);
        assert_eq!(r.goodput_ops, 2_000, "uncongested: every op useful");
        assert_eq!(r.shed_ops + r.expired_ops, 0);
        // Makespan tracks the arrival schedule (2000 ops at 1 Mops = 2ms),
        // not the pipeline's idle capacity.
        let ms = r.elapsed.as_secs_f64() * 1e3;
        assert!((1.9..2.5).contains(&ms), "makespan {ms}ms off schedule");
        assert_eq!(r.ledger.core.total_shed(), 0);
        assert_eq!(r.faults.total_faults(), 0);
    }

    #[test]
    fn overloaded_open_loop_sheds_instead_of_collapsing() {
        let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(4 << 20), 8);
        cfg.store.overload = crate::overload::OverloadConfig::enabled();
        let mut sim = SystemSim::new(cfg);
        for id in 0..3_000u64 {
            sim.store_mut()
                .put(&id.to_le_bytes(), &[id as u8; 8])
                .expect("preload fits");
        }
        // 400 Mops offered against the 180 MHz decode ceiling: the decode
        // backlog grows without bound, the station pressure term crosses
        // the high watermark, and the controller flips to shedding.
        // Generous deadlines keep expiry out of the picture.
        let r = sim.run_open(&open_schedule(12_000, 3_000, 0.1, 400.0, 10_000, 42));
        assert_eq!(r.ops, 12_000, "every op resolves, one way or another");
        let dropped = r.shed_ops + r.expired_ops;
        assert!(dropped > 0, "2x+ offered load must shed or expire");
        assert!(
            r.goodput_ops > 0 && r.goodput_ops + dropped <= r.ops,
            "goodput {} + dropped {} vs ops {}",
            r.goodput_ops,
            dropped,
            r.ops
        );
        // The latency histograms hold exactly the answered ops.
        assert_eq!(r.get_latency.count + r.put_latency.count, r.ops - dropped);
        // Shed/expired ops surface in the store rollup or the client-side
        // expiry count; the controller actually flipped.
        assert_eq!(r.ledger.core.shed_overload, r.shed_ops);
        assert!(r.expired_ops >= r.ledger.core.shed_expired);
        assert!(r.goodput_mops <= r.mops);
    }

    #[test]
    fn sub_floor_deadlines_expire_instead_of_wasting_work() {
        let mut sim = preloaded(1_000, 8, 8);
        // 1us deadlines against a ~2.5us physical floor: requests expire
        // (at the client before transmission once the wire backs up, or
        // at the server's decode clock) rather than occupying the
        // pipeline for answers nobody can use.
        let r = sim.run_open(&open_schedule(4_000, 1_000, 0.0, 40.0, 1, 43));
        assert!(r.expired_ops > 0, "tight deadlines must expire");
        assert_eq!(r.ops, 4_000);
        // Answered ops (in a histogram) plus dropped ops partition the
        // stream exactly.
        assert_eq!(
            r.get_latency.count + r.put_latency.count + r.expired_ops + r.shed_ops,
            r.ops
        );
        // A 1us deadline is below the ~2.5us physical floor: nothing
        // answered can be on time.
        assert_eq!(r.goodput_ops, 0);
    }

    #[test]
    fn recorded_outcomes_align_with_request_stream() {
        let mut sim = preloaded(500, 8, 8);
        sim.set_record_outcomes(true);
        let sched = open_schedule(600, 500, 0.3, 2.0, 0, 44);
        let r = sim.run_open(&sched);
        let outcomes = sim.outcomes();
        assert_eq!(outcomes.len(), 600);
        assert_eq!(
            outcomes
                .iter()
                .filter(|(s, _)| matches!(s, Status::Ok | Status::NotFound))
                .count() as u64,
            r.goodput_ops
        );
        // Replay against a model: GET outcomes must match exactly.
        let mut model = std::collections::HashMap::new();
        for id in 0..500u64 {
            model.insert(id.to_le_bytes().to_vec(), vec![id as u8; 8]);
        }
        for ((_, req), (status, value)) in sched.iter().zip(outcomes) {
            match req.op {
                OpCode::Put => {
                    assert_eq!(*status, Status::Ok);
                    model.insert(req.key.clone(), req.value.clone());
                }
                OpCode::Get => {
                    assert_eq!(*status, Status::Ok);
                    assert_eq!(value, model.get(&req.key).expect("preloaded"));
                }
                _ => unreachable!("schedule holds only GET/PUT"),
            }
        }
    }

    #[test]
    fn link_faults_ride_the_store_fault_schedule() {
        let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8);
        cfg.store.fault_rates = kvd_sim::FaultRates {
            net_drop: 0.05,
            net_reorder: 0.05,
            ..kvd_sim::FaultRates::ZERO
        };
        cfg.store.fault_seed = 77;
        let run = |cfg: SystemSimConfig| {
            let mut sim = SystemSim::new(cfg);
            for id in 0..200u64 {
                sim.store_mut().put(&id.to_le_bytes(), b"v").unwrap();
            }
            sim.run(&mixed_reqs(1_000, 200, 0.2, false, 6))
        };
        let r1 = run(cfg.clone());
        let r2 = run(cfg);
        assert!(
            r1.faults.net_drops + r1.faults.net_reorders > 0,
            "5% packet faults over 1000 ops must fire"
        );
        assert_eq!(r1, r2, "fault schedule is seed-deterministic");
    }

    #[test]
    fn report_accounting_consistent() {
        let mut sim = preloaded(100, 8, 8);
        let reqs = mixed_reqs(512, 100, 0.3, false, 5);
        let r = sim.run(&reqs);
        assert_eq!(r.ops, 512);
        assert_eq!(
            r.get_latency.count + r.put_latency.count,
            512,
            "every op lands in exactly one histogram"
        );
        assert!(r.elapsed > SimTime::ZERO);
    }
}
