//! The embedder-facing KV-Direct store.
//!
//! [`KvDirectStore`] wraps one simulated NIC (KV processor + dispatched
//! memory stack) behind the operations of Table 1. Every operation, a
//! point op or a client-batched packet, runs through the processor's one
//! borrowed batch body ([`KvDirectStore::execute_into`] and
//! [`KvDirectStore::execute_one_into`]). The paper's multi-NIC
//! deployment ("10 programmable NIC cards in a commodity server") is
//! client-side key sharding over several such stores, which
//! [`crate::parallel::ParallelSystemSim`] simulates.

use kvd_hash::{HashTable, HashTableConfig};
use kvd_mem::{AdaptiveCacheConfig, DispatchConfig, DispatchedMemory, NicDramConfig};
use kvd_net::{KvRequest, KvRequestRef, KvResponse, OpCode, Status};
use kvd_ooo::StationConfig;
use kvd_sim::{Bandwidth, CostSource, FaultCounters, FaultPlane, FaultRates, OpLedger};

use crate::lambda::{decode_scalar, decode_vector, encode_vector, Lambda, LambdaRegistry};
use crate::overload::OverloadConfig;
use crate::processor::{KvProcessor, ProcessorStats};

/// Errors surfaced by the store API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The store is out of memory.
    OutOfMemory,
    /// Key absent where one was required.
    NotFound,
    /// Malformed request, oversized key/value, or unregistered λ.
    Invalid,
    /// A device-level fault exhausted its retry budget; the operation was
    /// not applied and may be retried.
    DeviceError,
    /// Shed by admission control (or a degraded mode such as read-only);
    /// the operation was not applied. Back off and retry.
    Overloaded,
    /// The request's deadline had already passed; it was dropped without
    /// executing.
    Expired,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfMemory => write!(f, "out of memory"),
            StoreError::NotFound => write!(f, "key not found"),
            StoreError::Invalid => write!(f, "invalid request"),
            StoreError::DeviceError => write!(f, "device error (retriable)"),
            StoreError::Overloaded => write!(f, "shed by admission control"),
            StoreError::Expired => write!(f, "deadline expired"),
        }
    }
}

impl std::error::Error for StoreError {}

fn status_to_err(s: Status) -> StoreError {
    match s {
        Status::Ok => unreachable!("Ok is not an error"),
        Status::NotFound => StoreError::NotFound,
        Status::OutOfMemory => StoreError::OutOfMemory,
        Status::Invalid => StoreError::Invalid,
        Status::DeviceError => StoreError::DeviceError,
        Status::Overloaded => StoreError::Overloaded,
        Status::Expired => StoreError::Expired,
    }
}

/// Configuration of one simulated KV-Direct NIC.
///
/// Defaults preserve the paper's ratios at laptop scale: 64 MiB host KVS
/// standing in for 64 GiB, NIC DRAM at 1/16th of it, hash index ratio and
/// inline threshold tuned for small-KV workloads, load dispatch ratio
/// 0.5.
#[derive(Debug, Clone)]
pub struct KvDirectConfig {
    /// Total KVS memory (hash index + dynamic region).
    pub total_memory: u64,
    /// Hash index ratio (paper §3.3.1).
    pub hash_index_ratio: f64,
    /// Inline threshold in bytes (paper §3.3.1).
    pub inline_threshold: usize,
    /// Load dispatch ratio `l` (paper §3.3.4).
    pub load_dispatch_ratio: f64,
    /// NIC DRAM capacity (paper: host/16).
    pub nic_dram_capacity: u64,
    /// Reservation station geometry (paper: 1024 slots, 256 ops).
    pub station: StationConfig,
    /// Allow values up to 64 KiB (extended slab ladder) instead of the
    /// paper's 512 B.
    pub extended_slabs: bool,
    /// Fault-injection rates for the simulated hardware. `FaultRates::ZERO`
    /// (the default) keeps every model on its fault-free fast path.
    pub fault_rates: FaultRates,
    /// Seed of the deterministic fault schedule; only meaningful when
    /// `fault_rates` is non-zero.
    pub fault_seed: u64,
    /// Overload plane (admission watermarks, deadline expiry, read-only
    /// degradation). Defaults to fully disabled so closed-loop workloads
    /// that legitimately saturate the pipeline are untouched.
    pub overload: OverloadConfig,
    /// Adaptive cache plane: sampled frequency sketch, TinyLFU-style
    /// NIC-DRAM fill admission and online retuning of the load dispatch
    /// ratio from the measured hit rate. `None` (the default) keeps the
    /// paper's static-`l` behaviour bit-identical.
    pub adaptive_cache: Option<AdaptiveCacheConfig>,
    /// Bucket chains the background reaper sweeps after each batch of a
    /// clocked run ([`SystemSim`](crate::SystemSim)). 0 (the default)
    /// disables the reaper: dead entries are then reclaimed lazily by
    /// the probes that trip over them.
    pub reap_buckets_per_batch: u64,
}

impl KvDirectConfig {
    /// A config with the given total memory and paper-default parameters.
    pub fn with_memory(total_memory: u64) -> Self {
        KvDirectConfig {
            total_memory,
            hash_index_ratio: 0.5,
            inline_threshold: 24,
            load_dispatch_ratio: 0.5,
            nic_dram_capacity: total_memory / 16,
            station: StationConfig::default(),
            extended_slabs: false,
            fault_rates: FaultRates::ZERO,
            fault_seed: 0,
            overload: OverloadConfig::default(),
            adaptive_cache: None,
            reap_buckets_per_batch: 0,
        }
    }
}

impl KvDirectConfig {
    /// The paper's offline tuning procedure (§5.2.1: "Before each
    /// benchmark, we tune hash index ratio, inline threshold and load
    /// dispatch ratio according to the KV size, access pattern and
    /// target memory utilization").
    ///
    /// Runs scaled fill experiments (like Figure 10's dashed line) to
    /// pick the inline threshold and the largest hash index ratio that
    /// still reaches `target_utilization`, and solves the §3.3.4 balance
    /// equation for the load dispatch ratio. This is *offline* tuning —
    /// expect it to take a moment proportional to `total_memory`.
    pub fn auto_tuned(
        total_memory: u64,
        kv_size: usize,
        target_utilization: f64,
        long_tail: bool,
    ) -> Self {
        assert!(kv_size > 8, "kv size must exceed the 8-byte tuning key");
        // Inline threshold: prefer inlining this KV size when the target
        // utilization is still achievable; otherwise fall back to
        // smaller thresholds (more slab, more index headroom).
        let candidates = [kv_size.min(kvd_hash::MAX_INLINE_KV), 24, 10];
        let mut chosen = None;
        for &threshold in &candidates {
            if let Some((ratio, _)) = kvd_hash::tuning::optimal_config(
                total_memory,
                threshold,
                kv_size,
                target_utilization,
                0xA070,
            ) {
                chosen = Some((ratio, threshold));
                break;
            }
        }
        let (hash_index_ratio, inline_threshold) = chosen.unwrap_or((0.5, 24)); // unreachable target: paper defaults
        let k = 1.0 / 16.0;
        let lines = (total_memory / 64) as f64;
        let load_dispatch_ratio = if long_tail {
            kvd_mem::dispatch::optimal_ratio_zipf(k, lines, 12.8, 13.2)
        } else {
            kvd_mem::dispatch::optimal_ratio_uniform(k, 12.8, 13.2)
        };
        KvDirectConfig {
            hash_index_ratio,
            inline_threshold,
            load_dispatch_ratio,
            ..KvDirectConfig::with_memory(total_memory)
        }
    }
}

impl Default for KvDirectConfig {
    fn default() -> Self {
        KvDirectConfig::with_memory(64 << 20)
    }
}

/// A single-NIC KV-Direct store.
///
/// # Examples
///
/// ```
/// use kvd_core::{builtin, KvDirectConfig, KvDirectStore};
///
/// let mut store = KvDirectStore::new(KvDirectConfig::with_memory(1 << 20));
/// store.put(b"user:1", b"alice").unwrap();
/// assert_eq!(store.get(b"user:1").unwrap(), b"alice");
/// // Single-key atomics: fetch-and-add on a sequencer.
/// assert_eq!(store.fetch_add(b"seq", 1).unwrap(), 0);
/// assert_eq!(store.fetch_add(b"seq", 1).unwrap(), 1);
/// ```
pub struct KvDirectStore {
    proc: KvProcessor<DispatchedMemory>,
    /// Reused response for [`Self::get_into`]; its value buffer
    /// circulates through the processor's pool instead of being
    /// reallocated per call.
    scratch: KvResponse,
}

impl KvDirectStore {
    /// Builds a store over the full simulated memory stack.
    ///
    /// When `cfg.fault_rates` is non-zero, a root fault plane seeded with
    /// `cfg.fault_seed` is forked into independent per-component streams:
    /// the memory engine (DRAM ECC events, host stalls) and the processor's
    /// DMA transaction path. A zero-rate config wires inert planes, leaving
    /// the store bit-identical to a fault-free build.
    pub fn new(cfg: KvDirectConfig) -> Self {
        let mut root = FaultPlane::new(cfg.fault_rates, cfg.fault_seed);
        let mut mem = DispatchedMemory::with_faults(
            cfg.total_memory,
            NicDramConfig {
                capacity: cfg.nic_dram_capacity,
                bandwidth: Bandwidth::from_gbytes_per_sec(12.8),
            },
            DispatchConfig::new(cfg.load_dispatch_ratio),
            root.fork(1),
        );
        if let Some(ac) = cfg.adaptive_cache.clone() {
            mem.set_adaptive(ac);
        }
        let table = HashTable::new(
            mem,
            HashTableConfig {
                total_memory: cfg.total_memory,
                hash_index_ratio: cfg.hash_index_ratio,
                inline_threshold: cfg.inline_threshold,
                extended_slabs: cfg.extended_slabs,
            },
        );
        let mut proc = KvProcessor::new(table, cfg.station, LambdaRegistry::with_builtins());
        proc.set_fault_plane(root.fork(2));
        proc.set_overload_config(cfg.overload.clone());
        KvDirectStore {
            proc,
            scratch: KvResponse {
                status: Status::Ok,
                value: Vec::new(),
            },
        }
    }

    /// The underlying processor (stats, preloading).
    pub fn processor(&self) -> &KvProcessor<DispatchedMemory> {
        &self.proc
    }

    /// Mutable processor access.
    pub fn processor_mut(&mut self) -> &mut KvProcessor<DispatchedMemory> {
        &mut self.proc
    }

    /// Processor counters.
    pub fn stats(&self) -> ProcessorStats {
        self.proc.stats()
    }

    /// Store-wide rollup of injected faults across every component plane
    /// (processor DMA transactions + memory-engine ECC/stall events) — a
    /// view over the store's op-cost ledger.
    pub fn fault_counters(&self) -> FaultCounters {
        self.ledger().fault_view()
    }

    /// The store's full op-cost ledger: processor request mix and
    /// overload decisions, station occupancy, slab activity, memory
    /// traffic and every fault plane's injections, folded together.
    pub fn ledger(&self) -> OpLedger {
        let mut out = OpLedger::default();
        self.emit_costs(&mut out);
        out
    }

    /// The memory engine's ECC recovery state (corrected/uncorrectable
    /// counts and whether the DRAM-cache bypass breaker has tripped).
    pub fn ecc_stats(&self) -> kvd_mem::EccStats {
        *self.proc.table().mem().ecc()
    }

    /// Whether the store is in read-only degraded mode (writes shed with
    /// [`StoreError::Overloaded`] after slab exhaustion).
    pub fn is_read_only(&self) -> bool {
        self.proc.is_read_only()
    }

    fn one(&mut self, req: KvRequestRef<'_>) -> KvResponse {
        let mut resp = KvResponse {
            status: Status::Ok,
            value: Vec::new(),
        };
        self.proc.execute_one_into(req, &mut resp);
        resp
    }

    /// `get(k) → v`.
    ///
    /// Conflates "not found" and device faults into `None`; use
    /// [`try_get`](Self::try_get) to distinguish them under fault
    /// injection, or [`get_into`](Self::get_into) to reuse a caller-owned
    /// scratch buffer on hot read paths.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let r = self.one(KvRequestRef::get(key));
        match r.status {
            Status::Ok => Some(r.value),
            _ => None,
        }
    }

    /// `get(k)` into a caller-owned scratch buffer; returns the value
    /// length on a hit. `out` is cleared and filled in place, so a read
    /// loop reuses one allocation instead of producing one `Vec` per op.
    pub fn get_into(&mut self, key: &[u8], out: &mut Vec<u8>) -> Option<usize> {
        self.proc
            .execute_one_into(KvRequestRef::get(key), &mut self.scratch);
        match self.scratch.status {
            Status::Ok => {
                out.clear();
                out.extend_from_slice(&self.scratch.value);
                Some(out.len())
            }
            _ => None,
        }
    }

    /// `get(k)` that separates absence (`Ok(None)`) from device faults
    /// (`Err(DeviceError)`).
    pub fn try_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let r = self.one(KvRequestRef::get(key));
        match r.status {
            Status::Ok => Ok(Some(r.value)),
            Status::NotFound => Ok(None),
            s => Err(status_to_err(s)),
        }
    }

    /// `put(k, v) → bool` (inserts or replaces).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let r = self.one(KvRequestRef::put(key, value));
        match r.status {
            Status::Ok => Ok(()),
            s => Err(status_to_err(s)),
        }
    }

    /// `put(k, v)` with an absolute lifecycle stamp (expiry tick;
    /// 0 = never expires). An already-dead stamp still acknowledges the
    /// store but leaves the key observably absent.
    pub fn put_ttl(
        &mut self,
        key: &[u8],
        value: &[u8],
        expiry_tick: u32,
    ) -> Result<(), StoreError> {
        let r = self.one(KvRequestRef::put_ttl(key, value, expiry_tick));
        match r.status {
            Status::Ok => Ok(()),
            s => Err(status_to_err(s)),
        }
    }

    /// Rewrites `key`'s lifecycle stamp (memcache `touch`); returns
    /// whether the key was found live.
    pub fn touch(&mut self, key: &[u8], expiry_tick: u32) -> bool {
        self.proc.touch(key, expiry_tick)
    }

    /// `delete(k) → bool`.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        self.one(KvRequestRef::delete(key)).status == Status::Ok
    }

    /// Atomic fetch-and-add (builtin λ), returning the original value.
    pub fn fetch_add(&mut self, key: &[u8], delta: u64) -> Result<u64, StoreError> {
        self.update_scalar(key, crate::lambda::builtin::ADD, delta)
    }

    /// `update_scalar2scalar(k, Δ, λ) → v`.
    pub fn update_scalar(
        &mut self,
        key: &[u8],
        lambda: u16,
        param: u64,
    ) -> Result<u64, StoreError> {
        let param = param.to_le_bytes();
        let r = self.one(KvRequestRef {
            op: OpCode::UpdateScalar,
            key,
            value: &param,
            lambda,
            deadline_us: 0,
            expiry_tick: 0,
        });
        match r.status {
            Status::Ok => Ok(decode_scalar(Some(&r.value))),
            s => Err(status_to_err(s)),
        }
    }

    /// `update_scalar2vector(k, Δ, λ) → [v]`: applies λ to every element,
    /// returning the original vector.
    pub fn vector_update(
        &mut self,
        key: &[u8],
        lambda: u16,
        param: u64,
    ) -> Result<Vec<u64>, StoreError> {
        let param = param.to_le_bytes();
        let r = self.one(KvRequestRef {
            op: OpCode::UpdateScalarToVector,
            key,
            value: &param,
            lambda,
            deadline_us: 0,
            expiry_tick: 0,
        });
        match r.status {
            Status::Ok => Ok(decode_vector(&r.value)),
            s => Err(status_to_err(s)),
        }
    }

    /// `update_vector2vector(k, [Δ], λ) → [v]`.
    pub fn vector_update_elementwise(
        &mut self,
        key: &[u8],
        lambda: u16,
        params: &[u64],
    ) -> Result<Vec<u64>, StoreError> {
        let value = encode_vector(params);
        let r = self.one(KvRequestRef {
            op: OpCode::UpdateVector,
            key,
            value: &value,
            lambda,
            deadline_us: 0,
            expiry_tick: 0,
        });
        match r.status {
            Status::Ok => Ok(decode_vector(&r.value)),
            s => Err(status_to_err(s)),
        }
    }

    /// `reduce(k, Σ, λ) → Σ`.
    pub fn vector_reduce(&mut self, key: &[u8], lambda: u16, init: u64) -> Result<u64, StoreError> {
        let init = init.to_le_bytes();
        let r = self.one(KvRequestRef {
            op: OpCode::Reduce,
            key,
            value: &init,
            lambda,
            deadline_us: 0,
            expiry_tick: 0,
        });
        match r.status {
            Status::Ok => Ok(decode_scalar(Some(&r.value))),
            s => Err(status_to_err(s)),
        }
    }

    /// `filter(k, λ) → [v]`.
    pub fn vector_filter(&mut self, key: &[u8], lambda: u16) -> Result<Vec<u64>, StoreError> {
        let r = self.one(KvRequestRef {
            op: OpCode::Filter,
            key,
            value: &[],
            lambda,
            deadline_us: 0,
            expiry_tick: 0,
        });
        match r.status {
            Status::Ok => Ok(decode_vector(&r.value)),
            s => Err(status_to_err(s)),
        }
    }

    /// Registers a λ ("compile before use").
    pub fn register_lambda(&mut self, id: u16, lambda: Lambda) {
        self.proc.registry_mut().register(id, lambda);
    }

    /// Executes a batch of borrowed requests — one client packet — into
    /// a caller-owned response vector; retired response buffers are
    /// recycled (see [`KvProcessor::execute_into`]).
    pub fn execute_into(&mut self, reqs: &[KvRequestRef<'_>], out: &mut Vec<KvResponse>) {
        self.proc.execute_into(reqs, out)
    }

    /// Executes one borrowed request into a caller-owned response; the
    /// response's old value buffer is recycled (see
    /// [`KvProcessor::execute_one_into`]).
    pub fn execute_one_into(&mut self, req: KvRequestRef<'_>, resp: &mut KvResponse) {
        self.proc.execute_one_into(req, resp)
    }

    /// Owned-request convenience over [`Self::execute_into`].
    pub fn execute_batch(&mut self, reqs: &[KvRequest]) -> Vec<KvResponse> {
        let refs: Vec<KvRequestRef<'_>> = reqs.iter().map(KvRequest::as_ref).collect();
        let mut out = Vec::with_capacity(reqs.len());
        self.execute_into(&refs, &mut out);
        out
    }
}

impl CostSource for KvDirectStore {
    fn emit_costs(&self, out: &mut OpLedger) {
        self.proc.emit_costs(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambda::builtin;
    use crate::parallel::{ParallelSimConfig, ParallelSystemSim};
    use kvd_mem::MemoryEngine;
    use kvd_net::shard_of;

    fn store() -> KvDirectStore {
        KvDirectStore::new(KvDirectConfig::with_memory(1 << 20))
    }

    #[test]
    fn auto_tuning_matches_paper_procedure() {
        // Small inline KVs at a modest utilization: the tuner should
        // inline them and pick a usable index ratio.
        let cfg = KvDirectConfig::auto_tuned(1 << 19, 16, 0.3, true);
        assert!(cfg.inline_threshold >= 16, "16B KVs should inline");
        assert!((0.1..=0.9).contains(&cfg.hash_index_ratio));
        assert!((0.0..=1.0).contains(&cfg.load_dispatch_ratio));
        // The tuned store actually reaches the target.
        let mut s = KvDirectStore::new(cfg);
        let mut id = 0u64;
        while s.processor().table().memory_utilization() < 0.3 {
            s.put(&id.to_le_bytes(), &[1u8; 8])
                .expect("tuned store fits");
            id += 1;
        }
        // Large KVs force a smaller index ratio than small ones.
        let small = KvDirectConfig::auto_tuned(1 << 19, 16, 0.3, false);
        let large = KvDirectConfig::auto_tuned(1 << 19, 64, 0.3, false);
        assert!(large.hash_index_ratio <= small.hash_index_ratio);
    }

    #[test]
    fn basic_crud() {
        let mut s = store();
        assert_eq!(s.get(b"missing"), None);
        s.put(b"k", b"v1").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v1");
        s.put(b"k", b"v2").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v2");
        assert!(s.delete(b"k"));
        assert!(!s.delete(b"k"));
        assert_eq!(s.get(b"k"), None);
    }

    #[test]
    fn sequencer_semantics() {
        // The paper's distributed-sequencer use case: atomics on one key.
        let mut s = store();
        for expect in 0..100u64 {
            assert_eq!(s.fetch_add(b"seq", 1).unwrap(), expect);
        }
        assert_eq!(
            decode_scalar(s.get(b"seq").as_deref()),
            100,
            "final value visible to plain GET"
        );
    }

    #[test]
    fn scalar_update_builtins() {
        let mut s = store();
        s.put(b"x", &10u64.to_le_bytes()).unwrap();
        assert_eq!(s.update_scalar(b"x", builtin::MAX, 99).unwrap(), 10);
        assert_eq!(s.update_scalar(b"x", builtin::MAX, 5).unwrap(), 99);
        assert_eq!(s.update_scalar(b"x", builtin::MIN, 50).unwrap(), 99);
        assert_eq!(s.update_scalar(b"x", builtin::XCHG, 7).unwrap(), 50);
        assert_eq!(decode_scalar(s.get(b"x").as_deref()), 7);
    }

    #[test]
    fn vector_operations_table1() {
        let mut s = store();
        let v: Vec<u64> = (1..=8).collect();
        s.put(b"vec", &encode_vector(&v)).unwrap();
        // update_scalar2vector returns the original vector.
        let orig = s.vector_update(b"vec", builtin::VADD, 10).unwrap();
        assert_eq!(orig, v);
        let now = decode_vector(&s.get(b"vec").unwrap());
        assert_eq!(now, (11..=18).collect::<Vec<u64>>());
        // reduce: sum with initial value.
        let sum = s.vector_reduce(b"vec", builtin::SUM, 100).unwrap();
        assert_eq!(sum, 100 + (11..=18).sum::<u64>());
        // elementwise vector2vector.
        let params: Vec<u64> = (0..8).collect();
        let orig = s
            .vector_update_elementwise(b"vec", builtin::VVADD, &params)
            .unwrap();
        assert_eq!(orig, (11..=18).collect::<Vec<u64>>());
        let now = decode_vector(&s.get(b"vec").unwrap());
        assert_eq!(now, vec![11, 13, 15, 17, 19, 21, 23, 25]);
        // filter non-zero.
        s.put(b"sparse", &encode_vector(&[0, 5, 0, 7, 0])).unwrap();
        assert_eq!(
            s.vector_filter(b"sparse", builtin::NONZERO).unwrap(),
            vec![5, 7]
        );
    }

    #[test]
    fn vector_update_on_missing_key_is_not_found() {
        let mut s = store();
        assert_eq!(
            s.vector_update(b"nope", builtin::VADD, 1),
            Err(StoreError::NotFound)
        );
        assert_eq!(
            s.vector_reduce(b"nope", builtin::SUM, 0),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn unregistered_lambda_rejected() {
        let mut s = store();
        s.put(b"x", &1u64.to_le_bytes()).unwrap();
        assert_eq!(s.update_scalar(b"x", 999, 1), Err(StoreError::Invalid));
        // Wrong λ type for the opcode is also invalid.
        assert_eq!(
            s.vector_update(b"x", builtin::ADD, 1),
            Err(StoreError::Invalid)
        );
    }

    #[test]
    fn custom_lambda_registration() {
        let mut s = store();
        s.register_lambda(
            200,
            Lambda::Scalar(std::sync::Arc::new(|old, p| old.rotate_left(p as u32))),
        );
        s.put(b"bits", &0x1u64.to_le_bytes()).unwrap();
        assert_eq!(s.update_scalar(b"bits", 200, 4).unwrap(), 1);
        assert_eq!(decode_scalar(s.get(b"bits").as_deref()), 16);
    }

    #[test]
    fn batch_execution_order_preserved() {
        let mut s = store();
        let reqs = vec![
            KvRequest::put(b"a", b"1"),
            KvRequest::get(b"a"),
            KvRequest::put(b"a", b"2"),
            KvRequest::get(b"a"),
            KvRequest::delete(b"a"),
            KvRequest::get(b"a"),
        ];
        let rs = s.execute_batch(&reqs);
        assert_eq!(rs[1].value, b"1", "GET sees preceding PUT in batch");
        assert_eq!(rs[3].value, b"2");
        assert_eq!(rs[4].status, Status::Ok);
        assert_eq!(rs[5].status, Status::NotFound);
    }

    /// The multi-NIC deployment: `n` stores behind client-side sharding.
    fn multinic(n: usize) -> ParallelSystemSim {
        ParallelSystemSim::new(ParallelSimConfig::paper(
            KvDirectConfig::with_memory(1 << 20),
            8,
            n,
        ))
    }

    #[test]
    fn multinic_sharding_roundtrip() {
        let mut s = multinic(4);
        for i in 0..200u32 {
            s.preload_put(format!("key-{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        for i in 0..200u32 {
            let key = format!("key-{i}");
            let shard = shard_of(key.as_bytes(), 4);
            assert_eq!(
                s.shard_store_mut(shard).get(key.as_bytes()).unwrap(),
                i.to_le_bytes()
            );
        }
        // Keys actually spread across NICs.
        let loads: Vec<u64> = (0..4)
            .map(|i| s.shard_store_mut(i).processor().table().len())
            .collect();
        assert!(
            loads.iter().all(|&l| l > 10),
            "unbalanced shards: {loads:?}"
        );
        assert_eq!(loads.iter().sum::<u64>(), 200);
    }

    #[test]
    fn zero_rate_faults_leave_store_bit_identical() {
        // A store built with an explicit zero-rate plane (and a non-zero
        // seed that must never be consumed) matches a plain store on every
        // observable: responses, processor stats, memory traffic.
        let mut plain = store();
        let mut zeroed = KvDirectStore::new(KvDirectConfig {
            fault_rates: FaultRates::ZERO,
            fault_seed: 0xDEAD_BEEF,
            ..KvDirectConfig::with_memory(1 << 20)
        });
        for i in 0..300u64 {
            let k = i.to_le_bytes();
            let v = (i * 3).to_le_bytes();
            assert_eq!(plain.put(&k, &v), zeroed.put(&k, &v));
            assert_eq!(
                plain.get(&(i / 2).to_le_bytes()),
                zeroed.get(&(i / 2).to_le_bytes())
            );
        }
        assert_eq!(plain.stats(), zeroed.stats());
        assert_eq!(
            plain.processor().table().mem().stats(),
            zeroed.processor().table().mem().stats()
        );
        assert_eq!(zeroed.fault_counters().total_faults(), 0);
        assert!(!zeroed.ecc_stats().bypassed);
    }

    #[test]
    fn total_fault_exhaustion_surfaces_device_error_without_state_change() {
        // Every DMA transaction fails: operations must report DeviceError
        // and leave the table untouched (no partial writes).
        let mut s = KvDirectStore::new(KvDirectConfig {
            fault_rates: FaultRates {
                pcie_corrupt: 1.0,
                ..FaultRates::ZERO
            },
            fault_seed: 7,
            ..KvDirectConfig::with_memory(1 << 20)
        });
        assert_eq!(s.put(b"k", b"v"), Err(StoreError::DeviceError));
        assert_eq!(s.processor().table().len(), 0, "failed PUT not applied");
        let st = s.stats();
        assert_eq!(st.device_errors, 1);
        assert!(st.fault_retries > 0, "retries precede exhaustion");
        assert!(s.fault_counters().exhausted > 0);
    }

    #[test]
    fn faulty_store_agrees_with_model_on_ok_responses() {
        // Moderate fault rates: some ops may fail with DeviceError, but
        // every op that reports Ok must match a fault-free HashMap model,
        // and the store must never panic.
        let mut s = KvDirectStore::new(KvDirectConfig {
            fault_rates: FaultRates::uniform(0.05),
            fault_seed: 42,
            ..KvDirectConfig::with_memory(1 << 20)
        });
        let mut model = std::collections::HashMap::new();
        let mut oks = 0u64;
        let mut errs = 0u64;
        for i in 0..500u64 {
            let k = (i % 64).to_le_bytes();
            if i % 3 == 0 {
                match s.put(&k, &i.to_le_bytes()) {
                    Ok(()) => {
                        model.insert(k, i.to_le_bytes().to_vec());
                        oks += 1;
                    }
                    Err(StoreError::DeviceError) => errs += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            } else {
                match s.try_get(&k) {
                    Ok(got) => {
                        assert_eq!(
                            got.as_deref(),
                            model.get(&k).map(Vec::as_slice),
                            "GET diverged from model"
                        );
                        oks += 1;
                    }
                    Err(StoreError::DeviceError) => errs += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        assert!(oks > 400, "most ops should survive 5% rates: {oks}");
        assert!(s.fault_counters().total_faults() > 0, "faults did fire");
        let _ = errs;
    }

    #[test]
    fn store_fault_schedule_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut s = KvDirectStore::new(KvDirectConfig {
                fault_rates: FaultRates::uniform(0.05),
                fault_seed: seed,
                ..KvDirectConfig::with_memory(1 << 20)
            });
            for i in 0..400u64 {
                let k = (i % 32).to_le_bytes();
                let _ = s.put(&k, &i.to_le_bytes());
                let _ = s.get(&k);
            }
            (s.stats(), s.fault_counters(), s.ecc_stats())
        };
        assert_eq!(run(11), run(11), "same seed, same everything");
        let (_, c11, _) = run(11);
        let (_, c12, _) = run(12);
        assert!(c11.total_faults() > 0);
        assert_ne!(c11, c12, "different seeds, different schedules");
    }

    #[test]
    fn external_pressure_sheds_and_recovers_with_hysteresis() {
        let mut s = KvDirectStore::new(KvDirectConfig {
            overload: crate::overload::OverloadConfig::enabled(),
            ..KvDirectConfig::with_memory(1 << 20)
        });
        s.put(b"k", b"v").expect("idle store admits");
        // Pressure above the high watermark: everything sheds.
        s.processor_mut().set_external_pressure(0.9);
        assert_eq!(s.put(b"k", b"v2"), Err(StoreError::Overloaded));
        assert_eq!(s.try_get(b"k"), Err(StoreError::Overloaded));
        // Between the watermarks: hysteresis keeps shedding.
        s.processor_mut().set_external_pressure(0.7);
        assert_eq!(s.put(b"k", b"v2"), Err(StoreError::Overloaded));
        // Below the low watermark: admitted again, value unchanged by the
        // shed attempts.
        s.processor_mut().set_external_pressure(0.3);
        assert_eq!(s.get(b"k").unwrap(), b"v");
        let c = s.ledger().core;
        assert_eq!(c.shed_overload, 3);
        assert_eq!(c.shed_transitions, 2, "one flip in, one out");
        assert!(c.admitted >= 2);
    }

    #[test]
    fn hot_key_shedding_spares_the_spread_traffic() {
        let mut s = KvDirectStore::new(KvDirectConfig {
            overload: crate::overload::OverloadConfig::hot_key_aware(),
            ..KvDirectConfig::with_memory(1 << 20)
        });
        // Warm the rollup with an adversarial mix: one celebrity key is
        // half the traffic, the rest spreads over 64 keys.
        for i in 0..512u64 {
            let spread = (i % 64).to_le_bytes();
            s.put(b"celebrity", b"v").unwrap();
            s.put(&spread, b"v").unwrap();
        }
        // Overloaded but below severe: only the celebrity sheds.
        s.processor_mut().set_external_pressure(0.9);
        assert_eq!(s.try_get(b"celebrity"), Err(StoreError::Overloaded));
        for i in 0..64u64 {
            let spread = i.to_le_bytes();
            assert!(s.try_get(&spread).is_ok(), "spread key {i} was shed");
        }
        let sheds = s.processor().ledger().cache.hot_key_sheds;
        assert!(sheds >= 1, "celebrity shed must be attributed");
        assert_eq!(s.ledger().core.shed_overload, sheds);
        // At severe pressure the carve-out vanishes: everything sheds,
        // and those sheds are NOT attributed to the hot-key defense.
        s.processor_mut().set_external_pressure(0.97);
        assert_eq!(s.try_get(&0u64.to_le_bytes()), Err(StoreError::Overloaded));
        assert_eq!(s.processor().ledger().cache.hot_key_sheds, sheds);
        // Below the low watermark everything — celebrity included — is
        // admitted again.
        s.processor_mut().set_external_pressure(0.3);
        assert!(s.try_get(b"celebrity").is_ok());
    }

    #[test]
    fn expired_requests_dropped_without_effect() {
        // Deadline expiry is always on — it needs no admission config.
        let mut s = store();
        s.processor_mut().set_now(kvd_sim::SimTime::from_us(100));
        let rs = s.execute_batch(&[
            KvRequest::put(b"stale", b"v").with_deadline(50),
            KvRequest::put(b"fresh", b"v").with_deadline(200),
            KvRequest::put(b"untimed", b"v"),
        ]);
        assert_eq!(rs[0].status, Status::Expired);
        assert_eq!(rs[1].status, Status::Ok);
        assert_eq!(rs[2].status, Status::Ok);
        assert_eq!(s.get(b"stale"), None, "expired PUT left no trace");
        assert_eq!(s.ledger().core.shed_expired, 1);
    }

    #[test]
    fn read_only_mode_enters_on_oom_and_exits_after_drain() {
        let mut s = KvDirectStore::new(KvDirectConfig {
            overload: crate::overload::OverloadConfig {
                admission: None,
                read_only_on_oom: true,
                read_only_exit_utilization: 0.15,
                ..Default::default()
            },
            ..KvDirectConfig::with_memory(1 << 20)
        });
        // Fill until the slabs run dry. The filling write itself reports
        // OutOfMemory; the mode flips for everything after it.
        let mut inserted: Vec<u64> = Vec::new();
        let mut i = 0u64;
        loop {
            match s.put(&i.to_le_bytes(), &[0xAB; 200]) {
                Ok(()) => inserted.push(i),
                Err(StoreError::OutOfMemory) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            i += 1;
        }
        assert!(s.is_read_only());
        // Writes shed, reads flow: degraded, not dead.
        assert_eq!(
            s.put(b"more", &[0xCD; 200]),
            Err(StoreError::Overloaded),
            "read-only mode sheds allocating writes"
        );
        assert_eq!(s.get(&inserted[0].to_le_bytes()).unwrap(), [0xAB; 200]);
        // Deletes are admitted — they are the way out. Drain below the
        // exit watermark and the next write is admitted again.
        for k in &inserted {
            if s.processor().table().memory_utilization() < 0.12 {
                break;
            }
            assert!(s.delete(&k.to_le_bytes()));
        }
        s.put(b"after", b"v")
            .expect("recovered store admits writes");
        assert!(!s.is_read_only());
        let c = s.ledger().core;
        assert_eq!(c.read_only_entries, 1);
        assert_eq!(c.read_only_exits, 1);
        assert!(c.shed_read_only >= 1);
    }

    #[test]
    fn disabled_overload_plane_is_inert() {
        // An enabled-but-idle plane (zero pressure, no deadlines, no OOM)
        // must not disturb any response; the default plane keeps OOM
        // semantics exactly as the seed: every failing write reports
        // OutOfMemory, never Overloaded.
        let mut plain = store();
        let mut enabled = KvDirectStore::new(KvDirectConfig {
            overload: crate::overload::OverloadConfig::enabled(),
            ..KvDirectConfig::with_memory(1 << 20)
        });
        for i in 0..300u64 {
            let k = i.to_le_bytes();
            assert_eq!(plain.put(&k, &k), enabled.put(&k, &k));
            assert_eq!(plain.get(&k), enabled.get(&k));
        }
        assert_eq!(plain.stats(), enabled.stats());
        let c = enabled.ledger().core;
        assert_eq!(c.total_shed(), 0);
        assert_eq!(c.admitted, 600);
        assert_eq!(plain.ledger().core.total_shed(), 0);
    }

    #[test]
    fn multinic_batch_scatter_gather() {
        let mut s = multinic(3);
        s.set_record_outcomes(true);
        let reqs: Vec<KvRequest> = (0..50u64)
            .flat_map(|i| {
                vec![
                    KvRequest::put(&i.to_le_bytes(), &(i * 2).to_le_bytes()),
                    KvRequest::get(&i.to_le_bytes()),
                ]
            })
            .collect();
        s.run(&reqs);
        // Each shard answers its routed sub-stream in order: every GET
        // follows its PUT on the same shard.
        let mut next = [0usize; 3];
        for r in &reqs {
            let shard = shard_of(&r.key, 3);
            let (status, value) = &s.shard_outcomes(shard)[next[shard]];
            next[shard] += 1;
            assert_eq!(*status, Status::Ok);
            if r.op == OpCode::Get {
                let i = u64::from_le_bytes(r.key[..].try_into().unwrap());
                assert_eq!(*value, (i * 2).to_le_bytes());
            }
        }
    }
}
