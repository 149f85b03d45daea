//! Criterion micro-benchmarks of the core data structures.
//!
//! These are *implementation* benchmarks (how fast this Rust simulation
//! runs on the host), not paper reproductions; the paper's numbers are
//! regenerated by the figNN/tableN harnesses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kvd_core::{KvDirectConfig, KvDirectStore};
use kvd_hash::{HashTable, HashTableConfig};
use kvd_mem::{DispatchConfig, DispatchedMemory, FlatMemory, MemoryEngine, NicDramConfig};
use kvd_net::{decode_packet, encode_packet, KvRequest, KvRequestRef, KvResponse, Status};
use kvd_ooo::{Admission, KvOpKind, ReservationStation, StationConfig, StationOp};
use kvd_sim::{DetRng, ZipfSampler};
use kvd_slab::{SlabAllocator, SlabConfig};
use std::hint::black_box;

fn bench_hash_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_table");
    g.sample_size(20);

    let mut table = HashTable::new(
        FlatMemory::new(8 << 20),
        HashTableConfig::new(8 << 20, 0.5, 24),
    );
    for i in 0..50_000u64 {
        table.put(&i.to_le_bytes(), &i.to_be_bytes()).expect("fits");
    }
    let mut rng = DetRng::seed(1);
    g.bench_function("get_inline_hit", |b| {
        b.iter(|| {
            let k = rng.u64_below(50_000).to_le_bytes();
            black_box(table.get(&k))
        })
    });
    g.bench_function("put_inline_replace", |b| {
        b.iter(|| {
            let id = rng.u64_below(50_000);
            table
                .put(&id.to_le_bytes(), &id.to_be_bytes())
                .expect("replace")
        })
    });
    g.finish();
}

fn bench_station(c: &mut Criterion) {
    let mut g = c.benchmark_group("reservation_station");
    g.sample_size(20);
    let mut rs = ReservationStation::new(StationConfig::default());
    // Warm the cache for one key.
    match rs.admit(StationOp {
        id: 0,
        key: b"hot".to_vec(),
        kind: KvOpKind::Get,
    }) {
        Admission::Issue { op, .. } => {
            rs.complete(&op.key, Some(b"v".to_vec()));
        }
        _ => unreachable!(),
    }
    g.bench_function("fast_path_get", |b| {
        b.iter(|| {
            match rs.admit(StationOp {
                id: 1,
                key: b"hot".to_vec(),
                kind: KvOpKind::Get,
            }) {
                Admission::Fast(r) => black_box(r),
                _ => unreachable!("cache is warm"),
            }
        })
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_codec");
    g.sample_size(20);
    let ops: Vec<KvRequest> = (0..40u64)
        .map(|i| KvRequest::put(&i.to_le_bytes(), &i.to_be_bytes()))
        .collect();
    g.bench_function("encode_40op_packet", |b| {
        b.iter(|| black_box(encode_packet(&ops)))
    });
    let bytes = encode_packet(&ops);
    g.bench_function("decode_40op_packet", |b| {
        b.iter(|| black_box(decode_packet(&bytes).expect("valid")))
    });
    g.finish();
}

fn bench_slab(c: &mut Criterion) {
    let mut g = c.benchmark_group("slab_allocator");
    g.sample_size(20);
    g.bench_function("alloc_free_cycle", |b| {
        b.iter_batched_ref(
            || SlabAllocator::new(SlabConfig::paper(0, 1 << 20)),
            |a| {
                let s = a.alloc(100).expect("fits");
                a.free(black_box(s));
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_zipf(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.sample_size(20);
    let zipf = ZipfSampler::new(1_000_000, 0.99);
    let mut rng = DetRng::seed(3);
    g.bench_function("zipf_sample", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    g.finish();
}

fn bench_processor(c: &mut Criterion) {
    let mut g = c.benchmark_group("processor");
    g.sample_size(20);
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(8 << 20));
    for i in 0..20_000u64 {
        store.put(&i.to_le_bytes(), &i.to_be_bytes()).expect("fits");
    }
    let mut rng = DetRng::seed(11);
    g.bench_function("batch_40_mixed", |b| {
        b.iter(|| {
            let reqs: Vec<KvRequest> = (0..40)
                .map(|_| {
                    let id = rng.u64_below(20_000);
                    if rng.chance(0.5) {
                        KvRequest::put(&id.to_le_bytes(), &id.to_be_bytes())
                    } else {
                        KvRequest::get(&id.to_le_bytes())
                    }
                })
                .collect();
            black_box(store.execute_batch(&reqs))
        })
    });
    g.finish();
}

/// Before/after measurement for hot-path allocation elimination: the
/// owned-request path (`KvRequest` staging + `Vec` returns) against the
/// borrowed/scratch path (`KvRequestRef` + `get_into`) that the
/// simulator's per-op loop uses.
fn bench_hot_path_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_path_alloc");
    g.sample_size(20);
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(8 << 20));
    for i in 0..20_000u64 {
        store.put(&i.to_le_bytes(), &i.to_be_bytes()).expect("fits");
    }

    let mut rng = DetRng::seed(21);
    g.bench_function("get_owned_vec", |b| {
        b.iter(|| {
            let k = rng.u64_below(20_000).to_le_bytes();
            black_box(store.get(&k))
        })
    });
    let mut scratch = Vec::with_capacity(64);
    g.bench_function("get_into_scratch", |b| {
        b.iter(|| {
            let k = rng.u64_below(20_000).to_le_bytes();
            black_box(store.get_into(&k, &mut scratch))
        })
    });

    g.bench_function("batch_40_owned_staging", |b| {
        b.iter(|| {
            let reqs: Vec<KvRequest> = (0..40)
                .map(|_| KvRequest::get(&rng.u64_below(20_000).to_le_bytes()))
                .collect();
            black_box(store.execute_batch(&reqs))
        })
    });
    let mut resp = KvResponse {
        status: Status::Ok,
        value: Vec::new(),
    };
    g.bench_function("batch_40_borrowed", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for _ in 0..40 {
                let k = rng.u64_below(20_000).to_le_bytes();
                store.execute_one_into(KvRequestRef::get(&k), &mut resp);
                hits += u32::from(!resp.value.is_empty());
            }
            black_box(hits)
        })
    });
    g.finish();
}

/// Zero-overhead guard for the op-cost ledger: the legacy-parity
/// counters are always on (they replaced the old `ProcessorStats`
/// increments one-for-one), and the only extra work `ledger_detail`
/// enables is retired-outcome classification. Both paths must stay
/// within noise of each other — the disabled path is the simulator's
/// hot loop.
fn bench_ledger_detail(c: &mut Criterion) {
    let mut g = c.benchmark_group("ledger_detail");
    g.sample_size(20);
    for (on, label) in [
        (false, "execute_one_detail_off"),
        (true, "execute_one_detail_on"),
    ] {
        let mut store = KvDirectStore::new(KvDirectConfig::with_memory(8 << 20));
        store.processor_mut().set_ledger_detail(on);
        for i in 0..20_000u64 {
            store.put(&i.to_le_bytes(), &i.to_be_bytes()).expect("fits");
        }
        let mut rng = DetRng::seed(31);
        let mut resp = KvResponse {
            status: Status::Ok,
            value: Vec::new(),
        };
        g.bench_function(label, |b| {
            b.iter(|| {
                let k = rng.u64_below(20_000).to_le_bytes();
                store.execute_one_into(KvRequestRef::get(&k), &mut resp);
                black_box(resp.status)
            })
        });
    }
    g.finish();
}

fn bench_dispatched_memory(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatched_memory");
    g.sample_size(20);
    let mut m = DispatchedMemory::new(
        8 << 20,
        NicDramConfig {
            capacity: 1 << 19,
            bandwidth: kvd_sim::Bandwidth::from_gbytes_per_sec(12.8),
        },
        DispatchConfig::new(0.5),
    );
    let mut rng = DetRng::seed(12);
    let mut buf = [0u8; 64];
    g.bench_function("random_64b_read", |b| {
        b.iter(|| {
            let addr = rng.u64_below((8 << 20) - 64);
            m.read(addr, &mut buf);
            black_box(buf[0])
        })
    });
    g.bench_function("random_64b_write", |b| {
        b.iter(|| {
            let addr = rng.u64_below((8 << 20) - 64);
            m.write(addr, &buf)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hash_table,
    bench_station,
    bench_wire,
    bench_slab,
    bench_zipf,
    bench_processor,
    bench_hot_path_alloc,
    bench_ledger_detail,
    bench_dispatched_memory
);
criterion_main!(benches);
