//! The op-cost ledger: one typed, mergeable account of where every
//! byte, line and cycle went.
//!
//! Each hardware model emits its counters into an [`OpLedger`] through
//! one narrow trait ([`CostSource`]). The ledger is the one book; the
//! remaining rollups (`ProcessorStats`, [`FaultCounters`], the
//! `PressureGauge`) are *views* computed from its sections.
//!
//! Design rules, mirroring the fault plane's:
//!
//! * **Declared once.** Every section except the [`LatencyCosts`] matrix
//!   is a `ledger_section!` declaration that lists each field once, as a
//!   `sum` counter or a `max` gauge. The declaration generates `merge`,
//!   `since` and a field visitor, and the components that own a section
//!   count straight into that section type.
//! * **Mergeable.** [`OpLedger::merge`] is associative and commutative
//!   with the zero ledger as identity: event counters add, capacity
//!   gauges ([`PressureTerms`], the station high-water mark, the cluster
//!   failover depth) take the maximum. Both operations are exact over
//!   `u64`, so merging N shard ledgers in shard order is bit-identical
//!   for any worker count — the property `tests/parallel_determinism.rs`
//!   pins.
//! * **Window deltas are views.** [`OpLedger::since`] subtracts an
//!   earlier snapshot, which is how the parallel engine's per-window
//!   host-traffic charge ([`OpLedger::host_lines`]) is derived instead
//!   of hand-plumbed as a bare `u64`.
//! * **Zero-overhead when idle.** Components do not write the shared
//!   ledger on their hot paths; they increment their own section with a
//!   plain `u64 +=` and *emit* it on demand ([`CostSource::emit_costs`]),
//!   so a build that never collects a ledger pays nothing for it.

use crate::fault::FaultCounters;

/// Where a nanosecond of client-observed latency was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Wire serialization, propagation and batching waits (request and
    /// response links).
    Network,
    /// PCIe DMA: per-line round trips and queueing on the tag-limited
    /// read path.
    Pcie,
    /// NIC DRAM: cache-line accesses and queueing on the channel.
    Dram,
    /// The KV processor: decode backlog plus per-op decode cycles.
    Processor,
}

impl Component {
    /// Every component, in the order latency records are laid out.
    pub const ALL: [Component; 4] = [
        Component::Network,
        Component::Pcie,
        Component::Dram,
        Component::Processor,
    ];

    /// Human-readable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Component::Network => "network",
            Component::Pcie => "pcie",
            Component::Dram => "dram",
            Component::Processor => "processor",
        }
    }

    fn index(self) -> usize {
        match self {
            Component::Network => 0,
            Component::Pcie => 1,
            Component::Dram => 2,
            Component::Processor => 3,
        }
    }
}

/// Operation class for per-class latency attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// GET (and other read-only ops answered from the read path).
    Get,
    /// PUT.
    Put,
    /// Everything else (deletes, atomics, vector ops).
    Other,
}

impl OpClass {
    /// Every class, in record-layout order.
    pub const ALL: [OpClass; 3] = [OpClass::Get, OpClass::Put, OpClass::Other];

    /// Human-readable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Get => "GET",
            OpClass::Put => "PUT",
            OpClass::Other => "OTHER",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Get => 0,
            OpClass::Put => 1,
            OpClass::Other => 2,
        }
    }
}

/// Declares one ledger section: every field is listed here once, with its
/// doc comment and its kind.
///
/// * `sum` — an event counter: `merge` adds, `since` subtracts
///   (saturating).
/// * `max` — a capacity gauge: `merge` takes the maximum (the worst any
///   shard saw), `since` keeps the current value.
///
/// The declaration expands to the struct (every field a `pub u64`),
/// `merge`, `since`, and the field visitor — `FIELDS`, `fields` and
/// `fields_mut`, all in declaration order — so a field added to a
/// declaration reaches every fold, delta and mirror with no other edit.
macro_rules! ledger_section {
    (
        $(#[doc = $doc:literal])*
        pub struct $name:ident {
            $( $(#[doc = $fdoc:literal])* $field:ident: $kind:ident, )+
        }
    ) => {
        $(#[doc = $doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[doc = $fdoc])* pub $field: u64, )+
        }

        impl $name {
            /// Field names, in declaration order.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];

            /// Accumulates `other` into this section: counters add, gauges
            /// take the maximum.
            pub fn merge(&mut self, other: &$name) {
                $( ledger_section!(@merge $kind, self.$field, other.$field); )+
            }

            /// The delta since an `earlier` snapshot: counters subtract
            /// (saturating), gauges keep their current value.
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $( $field: ledger_section!(@since $kind, self.$field, earlier.$field), )+
                }
            }

            /// `(name, value)` of every field, in [`Self::FIELDS`] order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::FIELDS.iter().copied().zip([$(self.$field),+])
            }

            /// `(name, &mut value)` of every field, in [`Self::FIELDS`]
            /// order.
            pub fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> + '_ {
                Self::FIELDS.iter().copied().zip([$(&mut self.$field),+])
            }
        }
    };
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@since sum, $a:expr, $b:expr) => { $a.saturating_sub($b) };
    (@since max, $a:expr, $b:expr) => {{
        let _ = $b;
        $a
    }};
}

ledger_section! {
    /// Network-plane costs: wire traffic, batch fill, drops and client-side
    /// expiry.
    pub struct NetCosts {
        /// Packets serialized onto a link (retransmissions included).
        packets: sum,
        /// Payload bytes carried by those packets.
        payload_bytes: sum,
        /// Retransmissions after an injected drop.
        retransmits: sum,
        /// Packets the fault plane dropped.
        drops: sum,
        /// Packets the fault plane reordered.
        reorders: sum,
        /// Request batches that reached the wire.
        batches: sum,
        /// Live operations those batches carried (`batch_ops / batches` is
        /// the mean batch fill).
        batch_ops: sum,
        /// Requests dropped at the client because their deadline had passed
        /// before transmission.
        client_expired: sum,
    }
}

ledger_section! {
    /// PCIe-plane costs: DMA traffic, tag/credit stalls and link faults.
    pub struct PcieCosts {
        /// DMA read requests (64 B lines) issued to host memory.
        dma_reads: sum,
        /// DMA write requests issued to host memory.
        dma_writes: sum,
        /// Payload bytes moved by DMA reads.
        read_bytes: sum,
        /// Payload bytes moved by DMA writes.
        write_bytes: sum,
        /// Issue stalls waiting for a free read tag.
        tag_stalls: sum,
        /// Issue stalls waiting for flow-control credits.
        credit_stalls: sum,
        /// Corrupted TLPs injected by the fault plane.
        corruptions: sum,
        /// Replayed (duplicate) TLPs injected.
        replays: sum,
        /// Read-tag timeouts injected.
        timeouts: sum,
        /// Recovery retries performed because of an injected fault.
        retries: sum,
        /// Transactions abandoned after the retry budget ran out.
        exhausted: sum,
    }
}

ledger_section! {
    /// DRAM-plane costs: NIC DRAM lines, cache behavior and ECC recovery.
    pub struct DramCosts {
        /// NIC DRAM line reads.
        reads: sum,
        /// NIC DRAM line writes.
        writes: sum,
        /// NIC DRAM cache hits.
        cache_hits: sum,
        /// NIC DRAM cache misses.
        cache_misses: sum,
        /// Single-bit errors corrected by ECC.
        corrected: sum,
        /// Multi-bit errors ECC could only detect.
        uncorrectable: sum,
        /// Host-memory stall events.
        host_stalls: sum,
        /// Lines refetched from host memory after an uncorrectable error.
        refetches: sum,
        /// Dirty lines salvaged to host before a refetch.
        rescue_writebacks: sum,
    }
}

ledger_section! {
    /// Reservation-station costs: occupancy and forwarding behavior.
    pub struct StationCosts {
        /// Results served from the forwarding cache without touching memory
        /// (the paper's "merged" operations — up to 15% under long-tail).
        forwarded: sum,
        /// Operations issued to the execution pipeline.
        issued: sum,
        /// Operations queued behind a same-key operation.
        queued: sum,
        /// Dirty cache values written back to memory.
        writebacks: sum,
        /// Admissions rejected because the station was full.
        rejected: sum,
        /// Slots reclaimed without installing a forwarding value (device
        /// errors).
        reclaimed: sum,
        /// High-water mark of tracked operations (merged by maximum: the
        /// worst occupancy any shard saw).
        high_water: max,
    }
}

ledger_section! {
    /// Slab-allocator costs.
    pub struct SlabCosts {
        /// Allocations served.
        allocs: sum,
        /// Frees accepted.
        frees: sum,
        /// Allocations that failed (out of memory).
        failed_allocs: sum,
        /// NIC-to-host free-list synchronization DMAs.
        dma_syncs: sum,
        /// Free-list entries moved by those syncs.
        entries_synced: sum,
        /// Block splits performed to serve a smaller class.
        splits: sum,
        /// Buddy merges performed by the lazy merger.
        merges: sum,
        /// Merge passes executed.
        merge_passes: sum,
    }
}

ledger_section! {
    /// Serving-front-end costs: what the memcache-protocol server layer
    /// spent translating real client traffic into KV operations. These sit
    /// *above* the network plane ([`NetCosts`] accounts the simulated wire;
    /// this section accounts the protocol boundary): frames decoded, bytes
    /// moved through real sockets, and the protocol-level outcome mix, so
    /// serving overhead is attributed exactly like every simulated
    /// component.
    pub struct ServerCosts {
        /// TCP connections accepted.
        connections: sum,
        /// Connections closed (client EOF, `quit`, or a fatal protocol
        /// error).
        disconnects: sum,
        /// Bytes read off client sockets.
        bytes_in: sum,
        /// Bytes written back to client sockets.
        bytes_out: sum,
        /// Complete protocol frames (command line + any data block) decoded.
        frames: sum,
        /// KV operations those frames produced (a multi-key `get` is one
        /// frame, many operations).
        requests: sum,
        /// GET operations answered with a value.
        get_hits: sum,
        /// GET operations answered with a miss.
        get_misses: sum,
        /// Storage commands acknowledged `STORED`.
        stored: sum,
        /// Storage commands answered `NOT_STORED` (failed `add`/`replace`
        /// precondition).
        not_stored: sum,
        /// `delete` commands acknowledged `DELETED`.
        deleted: sum,
        /// `touch` commands acknowledged `TOUCHED` (lifetime re-stamped
        /// without moving the value).
        touched: sum,
        /// Client mistakes answered `ERROR`/`CLIENT_ERROR`.
        protocol_errors: sum,
        /// Store-side failures answered `SERVER_ERROR` (every taxonomy
        /// class: `device_error`, `overloaded`, `not_primary`, allocation).
        server_errors: sum,
        /// Requests refused with `SERVER_ERROR not_primary` because this
        /// node does not own the key under the cluster ring (also counted in
        /// [`Self::server_errors`]).
        not_primary: sum,
    }
}

ledger_section! {
    /// Cluster-plane costs: replication and heartbeat traffic between
    /// simulated hosts, plus failover-protocol events. Replication frames
    /// ride the inter-node links (`kvd_sim::cluster::NodeLink`), so the
    /// throughput cost of RF=2/3 shows up here as measured bytes rather
    /// than a modeling assumption.
    pub struct ClusterCosts {
        /// Replicate frames forwarded down a chain (head → … → tail).
        rep_frames: sum,
        /// Payload bytes carried by those frames.
        rep_bytes: sum,
        /// Chain acknowledgements (tail apply → head/client).
        rep_acks: sum,
        /// Backup applies re-staged after a device fault.
        rep_retries: sum,
        /// Heartbeat frames broadcast between nodes.
        heartbeats: sum,
        /// Heartbeat payload bytes.
        hb_bytes: sum,
        /// Whole-node kills injected by the cluster fault plane.
        node_kills: sum,
        /// Dead nodes detected via missed heartbeats.
        failovers: sum,
        /// Chain promotions performed after a detection.
        promotions: sum,
        /// In-flight writes re-driven past a dead chain member.
        orphan_redrives: sum,
        /// Client-side retries against a survivor after failover.
        client_retries: sum,
        /// Reads hedged to another replica during the failover window.
        hedged_reads: sum,
        /// Writes acknowledged after the tail applied them.
        writes_acked: sum,
        /// Writes that failed without an acknowledgement (retry budget or
        /// unavailability).
        writes_failed: sum,
        /// Gauge: cluster windows between a node kill and its detection (the
        /// failover-window depth; merged by maximum).
        failover_depth_windows: max,
    }
}

ledger_section! {
    /// Entry-lifecycle costs: TTL-stamped writes, lazy expiry on the probe
    /// paths, and the background reaper's bounded sweeps. All counters sum
    /// on merge, so the section is bit-identical across worker counts like
    /// every other plane.
    pub struct ExpiryCosts {
        /// PUTs that carried a nonzero lifecycle stamp.
        ttl_puts: sum,
        /// Successful stamp rewrites (`touch`).
        touches: sum,
        /// Dead entries discovered lazily by foreground probes
        /// (GET/DELETE/touch): each was answered as a miss and reclaimed.
        lazy_expired: sum,
        /// Dead entries overwritten in place by a PUT of the same key.
        expired_overwrites: sum,
        /// Entries reclaimed through the free path (lazily or by the reaper).
        reaped_entries: sum,
        /// Logical KV bytes those reclaimed entries held.
        reaped_bytes: sum,
        /// Bounded reaper passes run.
        sweep_passes: sum,
        /// Bucket frames (primary + chained) the reaper scanned.
        sweep_buckets: sum,
    }
}

ledger_section! {
    /// Adaptive-cache-plane costs: frequency-sketch sampling, TinyLFU fill
    /// admission, eviction quality, online retune steps, and the hot-key
    /// sheds the heavy-hitter rollup feeds into admission control. All
    /// counters sum on merge, preserving the bit-identical determinism
    /// contract across worker counts.
    pub struct CacheCosts {
        /// Line accesses the frequency sketch sampled.
        sketch_samples: sum,
        /// Cache fills performed (admission granted, or the plane disabled).
        admitted_fills: sum,
        /// Conflict fills the TinyLFU admission rejected.
        rejected_fills: sum,
        /// Valid lines displaced clean by a fill.
        evict_clean: sum,
        /// Valid lines displaced dirty by a fill (write-back traffic).
        evict_dirty: sum,
        /// Fills that displaced a valid line (conflict misses).
        conflict_fills: sum,
        /// Retune steps that moved the load-dispatch threshold.
        retune_steps: sum,
        /// Resident lines retired by threshold-migration sweeps.
        demoted_lines: sum,
        /// Requests shed because their key was a tracked heavy hitter during
        /// overload (per-hot-key shedding instead of across-the-board).
        hot_key_sheds: sum,
    }
}

ledger_section! {
    /// KV-processor costs: request mix, retire outcomes and overload-plane
    /// decisions.
    pub struct CoreCosts {
        /// Requests executed.
        requests: sum,
        /// Read-only requests (GET/REDUCE/FILTER).
        reads: sum,
        /// PUT requests.
        puts: sum,
        /// DELETE requests.
        deletes: sum,
        /// Atomic update requests (scalar or vector).
        updates: sum,
        /// Requests rejected as invalid (unknown λ, wrong type, oversized).
        invalid: sum,
        /// Requests that hit out-of-memory.
        oom: sum,
        /// Station write-backs that failed.
        writeback_failures: sum,
        /// Memory transactions re-run after a recoverable injected fault.
        fault_retries: sum,
        /// Requests failed with `DeviceError` after the retry budget ran out.
        device_errors: sum,
        /// Requests that passed every overload gate.
        admitted: sum,
        /// Requests shed by the admission controller.
        shed_overload: sum,
        /// Requests dropped at the server because their deadline had passed.
        shed_expired: sum,
        /// Writes shed while in read-only degraded mode.
        shed_read_only: sum,
        /// Entries into read-only mode.
        read_only_entries: sum,
        /// Exits from read-only mode.
        read_only_exits: sum,
        /// Admission-controller state flips (both directions).
        shed_transitions: sum,
        /// Station-retired operations that completed `Ok` (detail mode only;
        /// see `KvProcessor::set_ledger_detail`).
        retired_ok: sum,
        /// Station-retired operations that completed `NotFound` (detail mode
        /// only).
        retired_not_found: sum,
        /// Station-retired operations that completed with any error status
        /// (detail mode only).
        retired_failed: sum,
    }
}

impl CoreCosts {
    /// Requests shed for any reason (overload, expired deadline,
    /// read-only mode).
    pub fn total_shed(&self) -> u64 {
        self.shed_overload + self.shed_expired + self.shed_read_only
    }
}

/// Per-class, per-component latency attribution in picoseconds.
///
/// For every answered operation the simulator splits the client-observed
/// latency into the [`Component::ALL`] buckets such that the buckets sum
/// *exactly* to the measured latency (network absorbs the residual:
/// wire serialization, propagation and batching waits). Shed and expired
/// operations carry no service latency and are not recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyCosts {
    /// Accumulated picoseconds, indexed `[OpClass][Component]` in
    /// [`OpClass::ALL`] / [`Component::ALL`] order.
    pub ps: [[u64; 4]; 3],
    /// Answered operations per class, same order as [`OpClass::ALL`].
    pub ops: [u64; 3],
}

impl LatencyCosts {
    /// Records one answered operation's component split (picoseconds,
    /// in [`Component::ALL`] order).
    pub fn record(&mut self, class: OpClass, component_ps: [u64; 4]) {
        let row = &mut self.ps[class.index()];
        for (acc, ps) in row.iter_mut().zip(component_ps) {
            *acc += ps;
        }
        self.ops[class.index()] += 1;
    }

    /// Answered operations of `class`.
    pub fn ops(&self, class: OpClass) -> u64 {
        self.ops[class.index()]
    }

    /// Mean nanoseconds per op of `class` spent in `component` (0.0 when
    /// no op of the class was answered).
    pub fn mean_ns(&self, class: OpClass, component: Component) -> f64 {
        let n = self.ops[class.index()];
        if n == 0 {
            return 0.0;
        }
        self.ps[class.index()][component.index()] as f64 / n as f64 / 1e3
    }

    /// Mean total nanoseconds per op of `class` (sum over components).
    pub fn total_mean_ns(&self, class: OpClass) -> f64 {
        Component::ALL.iter().map(|&c| self.mean_ns(class, c)).sum()
    }

    /// `component`'s share of the class's total latency, in `0.0..=1.0`
    /// (0.0 when the class saw no ops).
    pub fn share(&self, class: OpClass, component: Component) -> f64 {
        let total: u64 = self.ps[class.index()].iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.ps[class.index()][component.index()] as f64 / total as f64
    }

    fn merge(&mut self, other: &LatencyCosts) {
        for (row, orow) in self.ps.iter_mut().zip(&other.ps) {
            for (a, b) in row.iter_mut().zip(orow) {
                *a += b;
            }
        }
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            *a += b;
        }
    }

    fn since(&self, earlier: &LatencyCosts) -> LatencyCosts {
        let mut out = *self;
        for (row, erow) in out.ps.iter_mut().zip(&earlier.ps) {
            for (a, b) in row.iter_mut().zip(erow) {
                *a = a.saturating_sub(*b);
            }
        }
        for (a, b) in out.ops.iter_mut().zip(&earlier.ops) {
            *a = a.saturating_sub(*b);
        }
        out
    }
}

ledger_section! {
    /// Raw backpressure terms the `PressureGauge` is computed from, all in
    /// integer picoseconds so shard merges stay exact.
    ///
    /// These are *gauges* (latest sample), not event counters: merging takes
    /// the component-wise maximum — the worst backlog any shard reported —
    /// which is associative, commutative and has the zero term as identity,
    /// exactly like the counter sums.
    pub struct PressureTerms {
        /// Decode backlog at the last batch cut (how far the server's decode
        /// clock ran ahead of the batch's arrival).
        station_backlog_ps: max,
        /// The station capacity envelope: one decode cycle times the station's
        /// operation capacity.
        station_cap_ps: max,
        /// PCIe service backlog at the last batch cut.
        tag_backlog_ps: max,
        /// The tag-pool capacity envelope: per-line service time times the
        /// total read tags across endpoints.
        tag_cap_ps: max,
        /// Host-arbiter stall of the previous lockstep window.
        stall_ps: max,
        /// The arbiter's synchronization quantum.
        quantum_ps: max,
    }
}

/// The op-cost ledger: one section per plane, every field an exact
/// integer so merges and deltas never lose a count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpLedger {
    /// Network-plane costs (links, batching, client-side expiry).
    pub net: NetCosts,
    /// PCIe-plane costs (DMA traffic, stalls, link faults).
    pub pcie: PcieCosts,
    /// NIC-DRAM-plane costs (lines, cache, ECC).
    pub dram: DramCosts,
    /// Reservation-station costs.
    pub station: StationCosts,
    /// Slab-allocator costs.
    pub slab: SlabCosts,
    /// Entry-lifecycle costs (TTL writes, lazy expiry, reaper sweeps).
    pub expiry: ExpiryCosts,
    /// Adaptive-cache-plane costs (sketch, admission, retune, hot keys).
    pub cache: CacheCosts,
    /// KV-processor costs (request mix, retire outcomes, overload plane).
    pub core: CoreCosts,
    /// Serving-front-end costs (protocol frames, socket bytes, outcome
    /// mix) — zero unless a real server fronts the store.
    pub server: ServerCosts,
    /// Cluster-plane costs (replication, heartbeats, failover events) —
    /// zero unless the run spans multiple simulated hosts.
    pub cluster: ClusterCosts,
    /// Per-class, per-component latency attribution.
    pub latency: LatencyCosts,
    /// Raw backpressure terms (gauges, merged by maximum).
    pub pressure: PressureTerms,
}

impl OpLedger {
    /// Accumulates another ledger into this one. Counter sections add;
    /// gauge fields ([`PressureTerms`], the station high-water mark) take
    /// the maximum. Associative and commutative, with the default ledger
    /// as identity.
    pub fn merge(&mut self, other: &OpLedger) {
        self.net.merge(&other.net);
        self.pcie.merge(&other.pcie);
        self.dram.merge(&other.dram);
        self.station.merge(&other.station);
        self.slab.merge(&other.slab);
        self.expiry.merge(&other.expiry);
        self.cache.merge(&other.cache);
        self.core.merge(&other.core);
        self.server.merge(&other.server);
        self.cluster.merge(&other.cluster);
        self.latency.merge(&other.latency);
        self.pressure.merge(&other.pressure);
    }

    /// The delta since an `earlier` snapshot of the same ledger: counter
    /// fields subtract (saturating), gauge fields keep their current
    /// value. This is how per-window traffic is derived from the run
    /// ledger instead of being accumulated separately.
    pub fn since(&self, earlier: &OpLedger) -> OpLedger {
        OpLedger {
            net: self.net.since(&earlier.net),
            pcie: self.pcie.since(&earlier.pcie),
            dram: self.dram.since(&earlier.dram),
            station: self.station.since(&earlier.station),
            slab: self.slab.since(&earlier.slab),
            expiry: self.expiry.since(&earlier.expiry),
            cache: self.cache.since(&earlier.cache),
            core: self.core.since(&earlier.core),
            server: self.server.since(&earlier.server),
            cluster: self.cluster.since(&earlier.cluster),
            latency: self.latency.since(&earlier.latency),
            pressure: self.pressure.since(&earlier.pressure),
        }
    }

    /// Visits every field of every declared section as `(section, field,
    /// value)`, in declaration order. The [`LatencyCosts`] matrix is read
    /// through its own accessors and is not visited.
    pub fn visit(&self, mut f: impl FnMut(&'static str, &'static str, u64)) {
        self.clone()
            .visit_mut(|section, field, v| f(section, field, *v));
    }

    /// [`Self::visit`] with mutable access to each field.
    pub fn visit_mut(&mut self, mut f: impl FnMut(&'static str, &'static str, &mut u64)) {
        macro_rules! visit {
            ($($section:ident),+) => {$(
                for (field, v) in self.$section.fields_mut() {
                    f(stringify!($section), field, v);
                }
            )+};
        }
        visit!(net, pcie, dram, station, slab, expiry, cache, core, server, cluster, pressure);
    }

    /// Host-memory cache lines this ledger accounts for (PCIe DMA reads
    /// plus writes) — the quantity the multi-NIC host arbiter charges
    /// against shared DRAM bandwidth.
    pub fn host_lines(&self) -> u64 {
        self.pcie.dma_reads + self.pcie.dma_writes
    }

    /// The legacy [`FaultCounters`] rollup as a view over the ledger's
    /// fault channels.
    pub fn fault_view(&self) -> FaultCounters {
        FaultCounters {
            pcie_corruptions: self.pcie.corruptions,
            pcie_replays: self.pcie.replays,
            pcie_timeouts: self.pcie.timeouts,
            dram_corrected: self.dram.corrected,
            dram_uncorrectable: self.dram.uncorrectable,
            host_stalls: self.dram.host_stalls,
            net_drops: self.net.drops,
            net_reorders: self.net.reorders,
            retries: self.pcie.retries,
            exhausted: self.pcie.exhausted,
        }
    }
}

/// The one narrow trait every plane reports through: fold your counters
/// into `out`. Implementations must be additive (emitting into a
/// non-empty ledger accumulates) and must not double-report events that
/// another source already owns — fault events belong to the fault plane
/// that injected them, traffic to the component that moved it.
pub trait CostSource {
    /// Folds this component's accumulated costs into `out`.
    fn emit_costs(&self, out: &mut OpLedger);
}

impl CostSource for OpLedger {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.merge(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// A ledger with every field filled from a seeded stream, exercising
    /// all sections in merge laws. Declared sections are filled through
    /// the visitor, so a newly declared field is covered automatically.
    fn random_ledger(seed: u64) -> OpLedger {
        let mut rng = DetRng::seed(seed);
        let mut l = OpLedger::default();
        l.visit_mut(|_, _, v| *v = 1 + rng.u64_below(1 << 20));
        let lat = &mut l.latency;
        for v in lat.ps.iter_mut().flatten().chain(&mut lat.ops) {
            *v = 1 + rng.u64_below(1 << 20);
        }
        l
    }

    /// Fields merged by maximum; every other declared field is a counter.
    fn is_gauge(section: &str, field: &str) -> bool {
        section == "pressure"
            || (section, field) == ("station", "high_water")
            || (section, field) == ("cluster", "failover_depth_windows")
    }

    fn merged(a: &OpLedger, b: &OpLedger) -> OpLedger {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    #[test]
    fn merge_identity_is_the_default_ledger() {
        let a = random_ledger(1);
        assert_eq!(merged(&a, &OpLedger::default()), a);
        assert_eq!(merged(&OpLedger::default(), &a), a);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        for seed in 0..32u64 {
            let (a, b, c) = (
                random_ledger(seed),
                random_ledger(seed ^ 0xAAAA),
                random_ledger(seed ^ 0x5555),
            );
            assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
            assert_eq!(merged(&a, &b), merged(&b, &a));
        }
    }

    #[test]
    fn visitor_reaches_every_field_of_every_section() {
        let mut sections = Vec::new();
        let mut fields = 0;
        random_ledger(3).visit(|section, _, v| {
            assert_ne!(v, 0, "{section}: a field escaped the fill");
            if sections.last() != Some(&section) {
                sections.push(section);
            }
            fields += 1;
        });
        assert_eq!(
            sections,
            [
                "net", "pcie", "dram", "station", "slab", "expiry", "cache", "core", "server",
                "cluster", "pressure"
            ]
        );
        assert_eq!(fields, 8 + 11 + 9 + 7 + 8 + 8 + 9 + 20 + 15 + 15 + 6);
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let (a, b) = (random_ledger(5), random_ledger(6));
        let m = merged(&a, &b);
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        a.visit(|_, _, v| va.push(v));
        b.visit(|_, _, v| vb.push(v));
        let mut i = 0;
        m.visit(|section, field, v| {
            let want = if is_gauge(section, field) {
                va[i].max(vb[i])
            } else {
                va[i] + vb[i]
            };
            assert_eq!(v, want, "{section}.{field}");
            i += 1;
        });
    }

    #[test]
    fn since_inverts_merge_for_counters() {
        let base = random_ledger(7);
        let delta = random_ledger(8);
        let total = merged(&base, &delta);
        let got = total.since(&base);
        // Counters round-trip exactly; gauges keep their merged (max)
        // value.
        let (mut want_delta, mut want_total) = (Vec::new(), Vec::new());
        delta.visit(|_, _, v| want_delta.push(v));
        total.visit(|_, _, v| want_total.push(v));
        let mut i = 0;
        got.visit(|section, field, v| {
            let want = if is_gauge(section, field) {
                want_total[i]
            } else {
                want_delta[i]
            };
            assert_eq!(v, want, "{section}.{field}");
            i += 1;
        });
        assert_eq!(got.latency, delta.latency);
    }

    #[test]
    fn host_lines_is_the_pcie_dma_view() {
        let mut l = OpLedger::default();
        l.pcie.dma_reads = 3;
        l.pcie.dma_writes = 4;
        assert_eq!(l.host_lines(), 7);
    }

    #[test]
    fn fault_view_round_trips_every_channel() {
        let l = random_ledger(9);
        let v = l.fault_view();
        assert_eq!(v.pcie_corruptions, l.pcie.corruptions);
        assert_eq!(v.pcie_replays, l.pcie.replays);
        assert_eq!(v.pcie_timeouts, l.pcie.timeouts);
        assert_eq!(v.dram_corrected, l.dram.corrected);
        assert_eq!(v.dram_uncorrectable, l.dram.uncorrectable);
        assert_eq!(v.host_stalls, l.dram.host_stalls);
        assert_eq!(v.net_drops, l.net.drops);
        assert_eq!(v.net_reorders, l.net.reorders);
        assert_eq!(v.retries, l.pcie.retries);
        assert_eq!(v.exhausted, l.pcie.exhausted);
    }

    #[test]
    fn latency_attribution_math() {
        let mut lat = LatencyCosts::default();
        lat.record(OpClass::Get, [2_000, 1_000, 500, 500]);
        lat.record(OpClass::Get, [4_000, 1_000, 500, 500]);
        assert_eq!(lat.ops(OpClass::Get), 2);
        assert!((lat.mean_ns(OpClass::Get, Component::Network) - 3.0).abs() < 1e-9);
        assert!((lat.total_mean_ns(OpClass::Get) - 5.0).abs() < 1e-9);
        assert!((lat.share(OpClass::Get, Component::Network) - 0.6).abs() < 1e-9);
        assert_eq!(lat.mean_ns(OpClass::Put, Component::Pcie), 0.0);
        assert_eq!(lat.share(OpClass::Put, Component::Pcie), 0.0);
    }
}
