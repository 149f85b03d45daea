//! Replays of a workload's stream through single layers' public
//! functions, outside the timed end-to-end runs.
//!
//! Each replay builds fresh stores with the workload's configuration,
//! preloads them untimed, and then drives the stream through one layer:
//! the store's `execute_one_into` (kvd-core) or the hash table's
//! `get_with_cost` / `put_with_cost` (kvd-hash). Keys route to stores
//! with `shard_of`, as the server and the parallel engine route them.

use std::time::Instant;

use kv_direct::net::shard_of;
use kv_direct::{KvDirectConfig, KvDirectStore, KvRequest, KvResponse, OpCode, OpLedger, Status};

use crate::trace::{SpanId, Tracer};

/// Cost of one span's two clock reads, ns (median of many pairs). Per-op
/// layer times subtract it.
pub fn timer_cost_ns() -> f64 {
    let mut d: Vec<f64> = (0..20_000)
        .map(|_| {
            let t = Instant::now();
            Instant::now().duration_since(t).as_nanos() as f64
        })
        .collect();
    d.sort_by(f64::total_cmp);
    d[d.len() / 2]
}

/// Records a span around one replayed operation, shortened by the timer
/// cost, and returns its duration in ns.
pub fn op_span(
    tracer: &mut Tracer,
    name: &'static str,
    req: u64,
    parent: Option<SpanId>,
    a: Instant,
    b: Instant,
    timer_ns: f64,
) -> u64 {
    let start = tracer.ns(a);
    let end = tracer.ns(b).saturating_sub(timer_ns as u64).max(start);
    tracer.push(name, req, parent, start, end);
    end - start
}

/// Fresh stores for `shards` shards, preloaded with `preload`.
pub fn preloaded_stores(
    cfg: &KvDirectConfig,
    shards: usize,
    preload: &[(Vec<u8>, Vec<u8>)],
) -> Vec<KvDirectStore> {
    let mut stores: Vec<KvDirectStore> = (0..shards)
        .map(|_| KvDirectStore::new(cfg.clone()))
        .collect();
    for (k, v) in preload {
        stores[shard_of(k, shards)]
            .put(k, v)
            .expect("preload fits the store");
    }
    stores
}

/// Result of the store-only replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreReplay {
    /// Whole-stream time of an uninstrumented pass, ns per op.
    pub ns_per_op: f64,
    /// Mean GET execute time of the instrumented pass, ns (timer cost
    /// subtracted).
    pub get_ns: f64,
    /// Mean PUT execute time, ns (timer cost subtracted).
    pub put_ns: f64,
    /// Operations that did not complete Ok (GET misses included).
    pub failed: u64,
}

/// Replays `reqs` through `KvDirectStore::execute_one_into`: one
/// uninstrumented pass for the whole-stream time, then one pass with a
/// `core.execute` span per op whose parent is `parents[i]` (if given).
/// Per-class means come from the spans, so they exclude the timer cost.
pub fn replay_store(
    cfg: &KvDirectConfig,
    shards: usize,
    preload: &[(Vec<u8>, Vec<u8>)],
    reqs: &[KvRequest],
    tracer: &mut Tracer,
    parents: Option<&[SpanId]>,
    timer_ns: f64,
) -> StoreReplay {
    let mut resp = KvResponse {
        status: Status::Ok,
        value: Vec::new(),
    };
    let route: Vec<usize> = reqs.iter().map(|r| shard_of(&r.key, shards)).collect();

    let mut stores = preloaded_stores(cfg, shards, preload);
    let t0 = Instant::now();
    let mut failed = 0u64;
    for (r, &s) in reqs.iter().zip(&route) {
        stores[s].execute_one_into(r.as_ref(), &mut resp);
        failed += u64::from(resp.status != Status::Ok);
    }
    let whole = t0.elapsed().as_nanos() as f64;
    drop(stores);

    let mut stores = preloaded_stores(cfg, shards, preload);
    let (mut get, mut put) = ((0f64, 0u64), (0f64, 0u64));
    for (i, (r, &s)) in reqs.iter().zip(&route).enumerate() {
        let a = Instant::now();
        stores[s].execute_one_into(r.as_ref(), &mut resp);
        let b = Instant::now();
        let d = op_span(
            tracer,
            "core.execute",
            i as u64,
            parents.map(|p| p[i]),
            a,
            b,
            timer_ns,
        );
        let acc = if r.op == OpCode::Put {
            &mut put
        } else {
            &mut get
        };
        acc.0 += d as f64;
        acc.1 += 1;
    }
    StoreReplay {
        ns_per_op: whole / reqs.len().max(1) as f64,
        get_ns: get.0 / get.1.max(1) as f64,
        put_ns: put.0 / put.1.max(1) as f64,
        failed,
    }
}

/// Result of the hash-table replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashReplay {
    /// Mean memory accesses per GET.
    pub accesses_per_get: f64,
    /// Mean memory accesses per PUT.
    pub accesses_per_put: f64,
    /// Stored KV bytes over total memory, averaged over shards.
    pub utilization: f64,
}

/// Replays `reqs` straight into each shard's hash table, reading the
/// per-operation [`OpCost`](kv_direct::hash::OpCost).
pub fn replay_hash(
    cfg: &KvDirectConfig,
    shards: usize,
    preload: &[(Vec<u8>, Vec<u8>)],
    reqs: &[KvRequest],
) -> HashReplay {
    let mut stores = preloaded_stores(cfg, shards, preload);
    let (mut get, mut put) = ((0u64, 0u64), (0u64, 0u64));
    for r in reqs {
        let table = stores[shard_of(&r.key, shards)].processor_mut().table_mut();
        if r.op == OpCode::Put {
            let cost = table
                .put_with_cost(&r.key, &r.value)
                .expect("replayed PUT fits the table");
            put.0 += cost.accesses;
            put.1 += 1;
        } else {
            let (_, cost) = table.get_with_cost(&r.key);
            get.0 += cost.accesses;
            get.1 += 1;
        }
    }
    let utilization = stores
        .iter()
        .map(|s| s.processor().table().memory_utilization())
        .sum::<f64>()
        / shards as f64;
    HashReplay {
        accesses_per_get: get.0 as f64 / get.1.max(1) as f64,
        accesses_per_put: put.0 as f64 / put.1.max(1) as f64,
        utilization,
    }
}

/// Operations the store refused or failed, from its ledger.
pub fn core_failed(l: &OpLedger) -> u64 {
    let c = &l.core;
    c.invalid
        + c.oom
        + c.writeback_failures
        + c.device_errors
        + c.shed_overload
        + c.shed_expired
        + c.shed_read_only
}

/// Fills the ledger-sourced layer metrics shared by every workload
/// (`kvd-mem`, `kvd-pcie`, `kvd-slab`, `kvd-ooo`, `kvd-net`, and the
/// core failure count), normalised by `ops` and `puts`.
pub fn ledger_metrics(m: &mut crate::report::Metrics, l: &OpLedger, ops: u64, puts: u64) {
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.set("core.failed", core_failed(l) as f64);
    let d = &l.dram;
    m.set(
        "mem.dram_hit_rate",
        ratio(d.cache_hits, d.cache_hits + d.cache_misses),
    );
    let c = &l.cache;
    m.set("mem.admitted_fills", c.admitted_fills as f64);
    m.set("mem.rejected_fills", c.rejected_fills as f64);
    m.set("mem.retune_steps", c.retune_steps as f64);
    m.set("mem.sketch_samples_per_op", per_op(c.sketch_samples));
    m.set("mem.evict_dirty_per_op", per_op(c.evict_dirty));
    let p = &l.pcie;
    m.set("pcie.dma_reads_per_op", per_op(p.dma_reads));
    m.set("pcie.dma_writes_per_op", per_op(p.dma_writes));
    m.set("pcie.tag_stalls", p.tag_stalls as f64);
    let s = &l.slab;
    m.set("slab.allocs_per_put", ratio(s.allocs, puts));
    m.set("slab.merges", s.merges as f64);
    m.set("slab.failed_allocs", s.failed_allocs as f64);
    let st = &l.station;
    m.set(
        "ooo.forward_ratio",
        ratio(st.forwarded, st.forwarded + st.issued),
    );
    m.set("ooo.queued_per_op", per_op(st.queued));
    m.set("ooo.high_water", st.high_water as f64);
    let n = &l.net;
    m.set("net.ops_per_batch", ratio(n.batch_ops, n.batches));
    m.set("net.payload_bytes_per_op", per_op(n.payload_bytes));
}
