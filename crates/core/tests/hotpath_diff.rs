//! Differential tests: the zero-copy batched hot path is bit-identical to
//! the owned decode path, and a single op is exactly a batch of one.
//!
//! One YCSB-A trace (update-heavy, zipf-skewed — the mix that exercises
//! puts, gets, forwarding and write-backs together) is driven through two
//! identically configured stores:
//!
//! * **owned**: `encode_packet` → `decode_packet` (owned requests, the
//!   reference decoder) → `execute_batch`, which allocates a fresh
//!   response vector per packet;
//! * **zero-copy**: the same packet bytes → `decode_packet_ref` (borrowed
//!   requests) → `execute_into` with a reused response arena.
//!
//! Every response must match, and the merged op-cost ledgers must be
//! *equal as values* — the ledger is the equivalence oracle proving the
//! SWAR probe, scratch reads and buffer pools changed no memory access,
//! no station decision, and no retire outcome.

use kvd_core::{KvDirectConfig, KvDirectStore};
use kvd_net::{decode_packet, decode_packet_ref, encode_packet, KvResponse};
use kvd_sim::{CostSource, OpLedger};
use kvd_workloads::presets::{PresetWorkload, YcsbPreset};

fn store() -> KvDirectStore {
    let mut s = KvDirectStore::new(KvDirectConfig::with_memory(1 << 20));
    s.processor_mut().set_ledger_detail(true);
    s
}

fn merged_ledger(s: &KvDirectStore) -> OpLedger {
    let mut out = OpLedger::default();
    s.emit_costs(&mut out);
    out
}

#[test]
fn zero_copy_batches_match_owned_path() {
    const POP: u64 = 2_000;
    const BATCH: usize = 40;
    const BATCHES: usize = 250;

    let mut owned = store();
    let mut zero_copy = store();

    // Identical preloads through each store's own path under test.
    let mut w = PresetWorkload::new(YcsbPreset::A, POP, 32, 0xD1FF);
    let preload = w.preload();
    for chunk in preload.chunks(BATCH) {
        let bytes = encode_packet(chunk);
        let owned_reqs = decode_packet(&bytes).expect("round-trip");
        owned.execute_batch(&owned_reqs);
        let refs = decode_packet_ref(&bytes).expect("round-trip");
        let mut scratch = Vec::new();
        zero_copy.execute_into(&refs, &mut scratch);
    }

    let mut arena: Vec<KvResponse> = Vec::new();
    for _ in 0..BATCHES {
        let batch = w.batch(BATCH);
        let bytes = encode_packet(&batch);

        let owned_reqs = decode_packet(&bytes).expect("round-trip");
        let owned_resps = owned.execute_batch(&owned_reqs);

        let refs = decode_packet_ref(&bytes).expect("round-trip");
        zero_copy.execute_into(&refs, &mut arena);

        assert_eq!(owned_resps, arena, "responses diverged");
    }

    assert_eq!(
        merged_ledger(&owned),
        merged_ledger(&zero_copy),
        "op-cost ledgers diverged: the zero-copy path changed a memory \
         access, station decision, or retire outcome"
    );
}

#[test]
fn execute_one_into_matches_one_element_batches() {
    const POP: u64 = 500;

    let mut a = store();
    let mut b = store();
    let mut w = PresetWorkload::new(YcsbPreset::A, POP, 24, 0xBEE);
    let mut batch: Vec<KvResponse> = Vec::new();
    let mut resp = KvResponse {
        status: kvd_net::Status::Ok,
        value: Vec::new(),
    };
    for req in w.preload() {
        a.execute_into(&[req.as_ref()], &mut batch);
        b.execute_one_into(req.as_ref(), &mut resp);
    }

    for _ in 0..5_000 {
        let req = w.next_request();
        a.execute_into(&[req.as_ref()], &mut batch);
        b.execute_one_into(req.as_ref(), &mut resp);
        assert_eq!(batch, std::slice::from_ref(&resp), "per-op paths diverged");
    }
    assert_eq!(merged_ledger(&a), merged_ledger(&b), "ledgers diverged");
}
