//! Criterion benches for the client-side caches (§6.1: a result-cache hit
//! costs ~1.3 us at p99 — essentially a key hash plus a table lookup).

use criterion::{criterion_group, criterion_main, Criterion};
use rc_core::{ClientInputs, Prediction, ShardedResultCache};
use rc_types::time::Timestamp;
use rc_types::vm::{OsType, Party, ProdTag, SubscriptionId, VmRole};

fn inputs(i: u64) -> ClientInputs {
    ClientInputs {
        subscription: SubscriptionId((i % 1000) as u32),
        party: Party::First,
        role: VmRole::Iaas,
        prod: ProdTag::Production,
        os: OsType::Linux,
        sku_index: (i % 15) as usize,
        deployment_time: Timestamp::from_hours(i % 720),
        deployment_size_hint: (i % 20) as u32,
        service: None,
    }
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_key_hash", |b| {
        let i = inputs(42);
        b.iter(|| std::hint::black_box(i.cache_key("VM_P95UTIL")))
    });

    // The sharded cache behind RcClient: single-thread hit, miss and
    // evicting insert, plus the positional batch probe.
    c.bench_function("sharded_cache_hit", |b| {
        let cache = ShardedResultCache::new(1 << 20, ShardedResultCache::default_shards());
        for k in 0..100_000u64 {
            cache.insert(k, Prediction { value: 1, score: 0.9 });
        }
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 100_000;
            std::hint::black_box(cache.get(k))
        })
    });

    c.bench_function("sharded_cache_miss", |b| {
        let cache = ShardedResultCache::new(1 << 20, ShardedResultCache::default_shards());
        for k in 0..100_000u64 {
            cache.insert(k, Prediction { value: 1, score: 0.9 });
        }
        let mut k = 1_000_000u64;
        b.iter(|| {
            k += 1;
            std::hint::black_box(cache.get(k))
        })
    });

    c.bench_function("sharded_cache_insert_with_eviction", |b| {
        let cache = ShardedResultCache::new(10_000, ShardedResultCache::default_shards());
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            cache.insert(k, Prediction { value: 2, score: 0.8 });
        })
    });

    c.bench_function("sharded_cache_get_batch_64", |b| {
        let cache = ShardedResultCache::new(1 << 20, ShardedResultCache::default_shards());
        for k in 0..100_000u64 {
            cache.insert(k, Prediction { value: 1, score: 0.9 });
        }
        let mut base = 0u64;
        b.iter(|| {
            base = (base + 64) % 100_000;
            let keys: Vec<u64> = (base..base + 64).collect();
            std::hint::black_box(cache.get_batch(&keys))
        })
    });
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
