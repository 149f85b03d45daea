//! Cross-crate integration: wire format → KV processor → memory stack.
//!
//! These tests exercise the full request path the way a client would:
//! encode a packet, decode it NIC-side, execute it on a store backed by
//! the dispatched memory stack (host memory + NIC DRAM cache + PCIe
//! accounting), and check both the responses and the hardware-side
//! counters.

use kv_direct::lambda::{decode_scalar, encode_vector};
use kv_direct::mem::MemoryEngine;
use kv_direct::{
    builtin, decode_packet, encode_packet, KvDirectConfig, KvDirectStore, KvRequest, OpCode, Status,
};

fn store() -> KvDirectStore {
    KvDirectStore::new(KvDirectConfig::with_memory(4 << 20))
}

#[test]
fn packet_roundtrip_through_store() {
    let mut s = store();
    let reqs = vec![
        KvRequest::put(b"alpha", b"1"),
        KvRequest::put(b"beta", b"2"),
        KvRequest::get(b"alpha"),
        KvRequest {
            op: OpCode::UpdateScalar,
            key: b"ctr".to_vec(),
            value: 3u64.to_le_bytes().to_vec(),
            lambda: builtin::ADD,
            deadline_us: 0,
            expiry_tick: 0,
        },
        KvRequest::get(b"ctr"),
        KvRequest::delete(b"beta"),
        KvRequest::get(b"beta"),
    ];
    // Through the wire: encode client-side, decode NIC-side.
    let packet = encode_packet(&reqs);
    let decoded = decode_packet(&packet).expect("well-formed packet");
    assert_eq!(decoded, reqs);
    let rs = s.execute_batch(&decoded);
    assert_eq!(rs[2].value, b"1");
    assert_eq!(decode_scalar(Some(&rs[3].value)), 0, "original value");
    assert_eq!(decode_scalar(Some(&rs[4].value)), 3, "GET sees the add");
    assert_eq!(rs[5].status, Status::Ok);
    assert_eq!(rs[6].status, Status::NotFound);
}

#[test]
fn dispatched_memory_serves_both_devices() {
    // With load dispatch ratio 0.5, a busy store must touch both PCIe
    // and NIC DRAM, and the cache must produce hits on hot keys.
    let mut s = store();
    for i in 0..2000u64 {
        s.put(&i.to_le_bytes(), &i.to_be_bytes()).unwrap();
    }
    // Hot reads over a small working set.
    for _ in 0..10 {
        for i in 0..64u64 {
            assert!(s.get(&i.to_le_bytes()).is_some());
        }
    }
    let m = s.processor().table().mem().stats();
    assert!(m.dma_reads + m.dma_writes > 0, "PCIe untouched");
    assert!(m.dram_reads + m.dram_writes > 0, "NIC DRAM untouched");
    assert!(m.cache_hits > 0, "cache never hit");
}

#[test]
fn station_forwarding_reduces_memory_traffic_end_to_end() {
    let mut s = store();
    s.put(b"hot", b"x").unwrap();
    let before = s.processor().table().mem().stats().accesses();
    // 1000 GETs of one key in one batch: the station forwards all but
    // the first.
    let reqs: Vec<KvRequest> = (0..1000).map(|_| KvRequest::get(b"hot")).collect();
    let rs = s.execute_batch(&reqs);
    assert!(rs.iter().all(|r| r.value == b"x"));
    let after = s.processor().table().mem().stats().accesses();
    assert!(
        after - before <= 2,
        "forwarding failed: {} accesses",
        after - before
    );
}

#[test]
fn vector_pipeline_with_user_lambda() {
    let mut s = store();
    s.register_lambda(
        77,
        kv_direct::Lambda::ScalarToVector(std::sync::Arc::new(|e, p| e.max(p))),
    );
    s.put(b"v", &encode_vector(&[1, 100, 3])).unwrap();
    let orig = s.vector_update(b"v", 77, 50).unwrap();
    assert_eq!(orig, vec![1, 100, 3]);
    let now = kv_direct::lambda::decode_vector(&s.get(b"v").unwrap());
    assert_eq!(now, vec![50, 100, 50]);
}

#[test]
fn slab_reuse_under_churn() {
    // Insert/delete churn of non-inline values must not leak dynamic
    // memory: the Nth generation still fits.
    let mut s = store();
    for gen in 0..20 {
        for i in 0..200u64 {
            let key = i.to_le_bytes();
            s.put(&key, &[gen as u8; 200]).unwrap();
        }
        for i in 0..200u64 {
            assert!(s.delete(&i.to_le_bytes()));
        }
    }
    let a = s.processor().table().allocator().stats();
    assert_eq!(a.allocs, a.frees, "allocator leak: {a:?}");
}

#[test]
fn utilization_metric_consistent_across_stack() {
    let mut s = store();
    for i in 0..500u64 {
        s.put(&i.to_le_bytes(), &[1u8; 16]).unwrap();
    }
    let t = s.processor().table();
    assert_eq!(t.len(), 500);
    assert_eq!(t.stored_bytes(), 500 * 24);
    let u = t.memory_utilization();
    assert!((u - (500.0 * 24.0 / (4 << 20) as f64)).abs() < 1e-12);
}

/// One seeded stream — 60% GET, 30% PUT, 10% DELETE over 500 preloaded
/// keys plus 100 absent ones — must yield the same `(status, value)` per
/// op through every in-process front door: owned packets, single borrowed
/// ops, the timed simulator, and the parallel engine at 1 and 4 shards.
#[test]
fn front_doors_agree_on_one_stream() {
    use kv_direct::net::shard_of;
    use kv_direct::parallel::{ParallelSimConfig, ParallelSystemSim};
    use kv_direct::sim::DetRng;
    use kv_direct::system::{SystemSim, SystemSimConfig};
    use kv_direct::KvResponse;

    const PRELOADED: u64 = 500;
    const ABSENT: u64 = 100;
    const OPS: usize = 6_000;
    const BATCH: usize = 8;
    let cfg = || KvDirectConfig::with_memory(4 << 20);
    let preload = |id: u64| (id.to_le_bytes(), vec![id as u8; 8 + (id % 17) as usize]);

    let mut rng = DetRng::seed(0xF00D_D005);
    let stream: Vec<KvRequest> = (0..OPS)
        .map(|i| {
            let key = rng.u64_below(PRELOADED + ABSENT).to_le_bytes();
            match rng.u64_below(10) {
                0..=5 => KvRequest::get(&key),
                6..=8 => KvRequest::put(&key, &vec![i as u8; 4 + i % 29]),
                _ => KvRequest::delete(&key),
            }
        })
        .collect();
    let outcome = |r: KvResponse| (r.status, r.value);

    // 1. Owned packets of 40.
    let mut s = KvDirectStore::new(cfg());
    for id in 0..PRELOADED {
        let (k, v) = preload(id);
        s.put(&k, &v).unwrap();
    }
    let packets: Vec<(Status, Vec<u8>)> = stream
        .chunks(40)
        .flat_map(|chunk| s.execute_batch(chunk))
        .map(outcome)
        .collect();

    // 2. One borrowed op at a time.
    let mut s = KvDirectStore::new(cfg());
    for id in 0..PRELOADED {
        let (k, v) = preload(id);
        s.put(&k, &v).unwrap();
    }
    let mut resp = KvResponse {
        status: Status::Ok,
        value: Vec::new(),
    };
    let single: Vec<(Status, Vec<u8>)> = stream
        .iter()
        .map(|r| {
            s.execute_one_into(r.as_ref(), &mut resp);
            (resp.status, resp.value.clone())
        })
        .collect();

    // 3. The timed simulator.
    let mut sim = SystemSim::new(SystemSimConfig::paper(cfg(), BATCH));
    for id in 0..PRELOADED {
        let (k, v) = preload(id);
        sim.store_mut().put(&k, &v).unwrap();
    }
    sim.set_record_outcomes(true);
    sim.run(&stream);
    let timed = sim.outcomes().to_vec();

    // 4./5. The parallel engine, outcomes re-interleaved by owning shard.
    let parallel = |shards: usize| {
        let mut sim = ParallelSystemSim::new(ParallelSimConfig::paper(cfg(), BATCH, shards));
        for id in 0..PRELOADED {
            let (k, v) = preload(id);
            sim.preload_put(&k, &v).unwrap();
        }
        sim.set_record_outcomes(true);
        sim.run(&stream);
        let mut next = vec![0usize; shards];
        stream
            .iter()
            .map(|r| {
                let shard = shard_of(&r.key, shards);
                next[shard] += 1;
                sim.shard_outcomes(shard)[next[shard] - 1].clone()
            })
            .collect::<Vec<_>>()
    };
    let par1 = parallel(1);
    let par4 = parallel(4);

    let count = |s: Status| packets.iter().filter(|(st, _)| *st == s).count();
    assert!(count(Status::Ok) > OPS / 2, "most ops succeed");
    assert!(
        count(Status::NotFound) > 100,
        "absent and deleted keys miss"
    );
    assert_eq!(count(Status::Ok) + count(Status::NotFound), OPS);
    for (door, got) in [
        ("execute_one_into", &single),
        ("SystemSim::run", &timed),
        ("ParallelSystemSim 1 shard", &par1),
        ("ParallelSystemSim 4 shards", &par4),
    ] {
        assert_eq!(got.len(), OPS, "{door}: one outcome per op");
        for (i, (want, got)) in packets.iter().zip(got).enumerate() {
            assert_eq!(want, got, "{door} diverged from execute_batch at op {i}");
        }
    }
}

#[test]
fn client_session_full_loop() {
    use kv_direct::net::client::ClientSession;
    use kv_direct::net::{encode_responses, NetConfig};

    let mut server = store();
    let mut session = ClientSession::new(NetConfig::forty_gbe(), 8);

    // The client queues a mixed stream; every full packet crosses the
    // "wire" (real encode/decode), executes on the store, and the
    // responses correlate back to the right handles.
    let mut expected = std::collections::HashMap::new();
    let mut handles = Vec::new();
    for i in 0..50u64 {
        let put = session.submit(KvRequest::put(&i.to_le_bytes(), &i.to_be_bytes()));
        let get = session.submit(KvRequest::get(&i.to_le_bytes()));
        expected.insert(get, i.to_be_bytes().to_vec());
        handles.push((put, get));
        while let Some(pkt) = session.take_packet() {
            let reqs = decode_packet(&pkt.payload).expect("client encoding decodes");
            let resps = server.execute_batch(&reqs);
            for (h, r) in session
                .on_response(pkt.seq, &encode_responses(&resps))
                .expect("in-order responses")
            {
                if let Some(want) = expected.remove(&h) {
                    assert_eq!(r.value, want, "handle {h:?}");
                }
            }
        }
    }
    if let Some(pkt) = session.flush() {
        let reqs = decode_packet(&pkt.payload).expect("decodes");
        let resps = server.execute_batch(&reqs);
        for (h, r) in session
            .on_response(pkt.seq, &encode_responses(&resps))
            .expect("tail responses")
        {
            if let Some(want) = expected.remove(&h) {
                assert_eq!(r.value, want);
            }
        }
    }
    assert!(expected.is_empty(), "every GET response correlated");
    assert_eq!(session.inflight_packets(), 0);
}
