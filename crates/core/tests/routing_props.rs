//! Property tests for client-side shard routing.
//!
//! Two guarantees the multi-NIC deployment rests on: (1) routing is a
//! pure function of the key — the same key always reaches the same
//! shard, and [`ParallelSystemSim`] physically places it on the shard
//! [`shard_of`] names, so clients and the engine agree on ownership; (2) the partition stays usable under the paper's
//! skewed workloads — even Zipf-0.99 traffic (YCSB presets) does not
//! collapse onto one shard, because routing hashes keys rather than
//! ranks.

use kvd_core::{KvDirectConfig, ParallelSimConfig, ParallelSystemSim};
use kvd_net::{shard_of, OpCode};
use kvd_workloads::presets::{PresetWorkload, YcsbPreset};
use proptest::prelude::*;
use std::collections::HashSet;

fn keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 1..24), 1..128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same key → same shard, for any shard count, no matter how often
    /// or from which buffer it is asked.
    #[test]
    fn routing_is_stable(keys in keys(), shards in 1usize..16) {
        for k in &keys {
            let s = shard_of(k, shards);
            prop_assert!(s < shards);
            prop_assert_eq!(s, shard_of(&k.clone(), shards));
            prop_assert_eq!(s, shard_of(k, shards));
        }
    }

    /// `preload_put` places every key on exactly the shard `shard_of`
    /// computes: per-shard table occupancy matches the predicted
    /// partition, and every key is readable back from its shard's store.
    #[test]
    fn store_partition_matches_shard_of(keys in keys(), shards in 1usize..6) {
        let unique: Vec<Vec<u8>> = {
            let mut seen = HashSet::new();
            keys.into_iter().filter(|k| seen.insert(k.clone())).collect()
        };
        let mut sim = ParallelSystemSim::new(ParallelSimConfig::paper(
            KvDirectConfig::with_memory(1 << 20),
            8,
            shards,
        ));
        let mut expected = vec![0u64; shards];
        for (i, k) in unique.iter().enumerate() {
            sim.preload_put(k, &(i as u64).to_le_bytes()).expect("put fits");
            expected[shard_of(k, shards)] += 1;
        }
        for (i, k) in unique.iter().enumerate() {
            let got = sim.shard_store_mut(shard_of(k, shards)).get(k);
            prop_assert_eq!(got.expect("routed key present"), (i as u64).to_le_bytes());
        }
        let actual: Vec<u64> = (0..shards)
            .map(|i| sim.shard_store_mut(i).processor().table().len())
            .collect();
        prop_assert_eq!(actual, expected);
    }

    /// Zipf-0.99 request streams (the YCSB presets) stay spread across a
    /// 10-shard deployment: hashing keys decorrelates popularity rank
    /// from shard id, so even the hottest key only skews its own shard.
    #[test]
    fn zipf_preset_load_stays_balanced(seed in 0u64..1_000_000) {
        let shards = 10usize;
        let total = 20_000usize;
        let mut w = PresetWorkload::new(YcsbPreset::B, 10_000, 8, seed);
        let mut counts = vec![0u64; shards];
        for r in w.batch(total) {
            prop_assert!(matches!(r.op, OpCode::Get | OpCode::Put));
            counts[shard_of(&r.key, shards)] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<u64>(), total as u64);
        for (s, &c) in counts.iter().enumerate() {
            let share = c as f64 / total as f64;
            // Fair share is 10%; the hottest key alone carries ~10% of a
            // Zipf-0.99 stream, so its shard may near double, but no
            // shard may dominate or starve.
            prop_assert!(
                share > 0.03 && share < 0.30,
                "shard {} carries {:.1}% of zipf traffic: {:?}",
                s, share * 100.0, counts
            );
        }
    }
}
