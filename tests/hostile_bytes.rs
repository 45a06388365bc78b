//! Decoders never panic on hostile bytes. Every payload the client, the
//! control loop or the disk cache decodes — a publish manifest, a model,
//! a feature record (alone or as the disk cache's `features/all` blob),
//! a window sketch, and a framed disk-cache entry — is fed truncated,
//! bit-flipped and random inputs, drawn from seeded property cases.
//!
//! None may panic, and what a decoder accepts must be safe to use the
//! way its reader uses it at once: a model answers the client's probe
//! batch, a sketch computes PSI against a baseline. A checksummed
//! payload must notice tampering: a flipped manifest never decodes to a
//! different manifest, and a flipped or truncated `RCC1` frame always
//! loads as corrupt.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rc_core::pipeline::{run_pipeline, PipelineConfig};
use rc_core::{DiskCache, DiskLoadResult, SubscriptionFeatures, TrainedModel};
use rc_obs::WindowSketch;
use rc_store::{Manifest, Store, StoreBackend, MANIFEST_KEY};
use rc_trace::{Trace, TraceConfig};

/// Random inputs are at most this long.
const MAX_RANDOM_LEN: usize = 4096;

/// Valid encodings of every payload kind: the mutation seeds.
struct Payloads {
    manifest: Vec<u8>,
    models: Vec<Vec<u8>>,
    features: Vec<Vec<u8>>,
    features_blob: Vec<u8>,
    sketch: Vec<u8>,
}

fn payloads() -> &'static Payloads {
    static PAYLOADS: OnceLock<Payloads> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let trace = Trace::generate(&TraceConfig {
            target_vms: 3_000,
            n_subscriptions: 150,
            days: 18,
            ..TraceConfig::small()
        });
        let output = run_pipeline(&trace, &PipelineConfig::fast(18)).expect("pipeline");
        let store = Store::in_memory();
        output.publish(&store, 0.0).expect("publish");
        let get = |key: &str| store.get_latest(key).expect("published key").data.to_vec();
        let manifest_bytes = get(MANIFEST_KEY);
        let manifest = Manifest::from_bytes(&manifest_bytes).expect("valid manifest");
        let models: Vec<Vec<u8>> =
            manifest.models.iter().map(|e| get(&manifest.versioned_key(&e.key))).collect();
        let features: Vec<Vec<u8>> = manifest
            .features
            .iter()
            .take(8)
            .map(|e| get(&manifest.versioned_key(&e.key)))
            .collect();
        let records: Vec<SubscriptionFeatures> = features
            .iter()
            .map(|b| serde_json::from_slice(b).expect("valid feature record"))
            .collect();
        let features_blob = serde_json::to_vec(&records).expect("blob");
        Payloads {
            manifest: manifest_bytes,
            models,
            features,
            features_blob,
            sketch: reference_sketch().to_bytes(),
        }
    })
}

/// A small sketch over two features, also the PSI baseline decoded
/// sketches are compared against.
fn reference_sketch() -> WindowSketch {
    let mut sketch = WindowSketch::new();
    for i in 0..200 {
        sketch.record("cpu", 0.0, 100.0, (i * 7 % 100) as f64);
        sketch.record("lifetime", 0.0, 10.0, (i % 11) as f64);
    }
    sketch
}

/// How one case mutates a valid encoding.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// A strict prefix.
    Truncate,
    /// One to eight flipped bits.
    Flip,
    /// Uniform random bytes, unrelated to the payload.
    Random,
    /// Random characters from JSON's alphabet, which get further into a
    /// parser than uniform bytes do.
    JsonNoise,
}

const MUTATIONS: [Mutation; 4] =
    [Mutation::Truncate, Mutation::Flip, Mutation::Random, Mutation::JsonNoise];

fn mutate(valid: &[u8], mutation: Mutation, rng: &mut StdRng) -> Vec<u8> {
    match mutation {
        Mutation::Truncate => valid[..rng.gen_range(0..valid.len())].to_vec(),
        Mutation::Flip => {
            let mut bytes = valid.to_vec();
            for _ in 0..rng.gen_range(1..9usize) {
                let bit = rng.gen_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            bytes
        }
        Mutation::Random => {
            (0..rng.gen_range(0..MAX_RANDOM_LEN + 1)).map(|_| rng.gen::<u32>() as u8).collect()
        }
        Mutation::JsonNoise => {
            const ALPHABET: &[u8] = b"{}[]\":,.-+0123456789eEtruefalsnl \\";
            (0..rng.gen_range(0..MAX_RANDOM_LEN + 1))
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                .collect()
        }
    }
}

/// A decoded model answers the client's probe batch (all zeros, all
/// halves) without panicking.
fn probe(model: &TrainedModel) {
    let n = model.spec.n_features();
    for row in [vec![0.0; n], vec![0.5; n]] {
        let _ = rc_ml::Classifier::predict(model, &row);
    }
}

/// A fresh directory for one case's disk cache.
fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rc_hostile_bytes_{tag}_{}_{seed:016x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one `.bin` entry a disk cache holds.
fn only_entry(dir: &std::path::Path) -> PathBuf {
    let entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    assert_eq!(entries.len(), 1, "one saved entry");
    entries[0].clone()
}

/// Well-formed JSON of the wrong shape is hostile too: a histogram with
/// more or fewer bins than the sketch defines would index past them in
/// PSI, and one whose total or range disagrees with its bins breaks the
/// invariants `FeatureHistogram::new` and `record` keep.
#[test]
fn window_sketch_rejects_histograms_of_the_wrong_shape() {
    let baseline = reference_sketch();
    let reshaped: [fn(&mut rc_obs::FeatureHistogram); 5] = [
        |h| h.counts.truncate(3),
        |h| h.counts.push(0),
        |h| h.total += 1,
        |h| h.counts[0] = u64::MAX,
        |h| h.hi = h.lo,
    ];
    for (i, reshape) in reshaped.iter().enumerate() {
        let mut sketch = reference_sketch();
        reshape(sketch.features.get_mut("cpu").expect("cpu histogram"));
        let decoded = WindowSketch::from_bytes(&sketch.to_bytes());
        if let Some(decoded) = &decoded {
            let _ = decoded.psi_vs(&baseline);
        }
        assert!(decoded.is_none(), "reshape {i} decoded");
    }
}

proptest! {
    #[test]
    fn manifest_decode_survives_hostile_bytes(seed in any::<u64>()) {
        let valid = &payloads().manifest;
        let original = Manifest::from_bytes(valid).expect("valid manifest");
        let mut rng = StdRng::seed_from_u64(seed);
        for mutation in MUTATIONS {
            let bytes = mutate(valid, mutation, &mut rng);
            let decoded = Manifest::from_bytes(&bytes);
            // A flip may land where it cannot change the value (an
            // insignificant digit of a float), but never where it can
            // change it unnoticed: the self-checksum covers every field.
            if let Some(decoded) = decoded {
                prop_assert_eq!(&decoded, &original, "{:?} accepted a different manifest", mutation);
            }
        }
    }

    #[test]
    fn model_decode_survives_hostile_bytes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let valid = &payloads().models[rng.gen_range(0..payloads().models.len())];
        for mutation in MUTATIONS {
            let bytes = mutate(valid, mutation, &mut rng);
            if let Ok(model) = rc_ml::from_bytes::<TrainedModel>(&bytes) {
                probe(&model);
            }
        }
    }

    #[test]
    fn feature_record_decode_survives_hostile_bytes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let valid = &payloads().features[rng.gen_range(0..payloads().features.len())];
        for mutation in MUTATIONS {
            let record = mutate(valid, mutation, &mut rng);
            let _ = serde_json::from_slice::<SubscriptionFeatures>(&record);
            let blob = mutate(&payloads().features_blob, mutation, &mut rng);
            let _ = serde_json::from_slice::<Vec<SubscriptionFeatures>>(&blob);
        }
    }

    #[test]
    fn window_sketch_decode_survives_hostile_bytes(seed in any::<u64>()) {
        let baseline = reference_sketch();
        let mut rng = StdRng::seed_from_u64(seed);
        for mutation in MUTATIONS {
            let bytes = mutate(&payloads().sketch, mutation, &mut rng);
            if let Some(sketch) = WindowSketch::from_bytes(&bytes) {
                let _ = sketch.min_total();
                let _ = sketch.psi_vs(&baseline);
                let _ = baseline.psi_vs(&sketch);
            }
        }
    }

    #[test]
    fn disk_cache_load_survives_garbage_files(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = &payloads().models[rng.gen_range(0..payloads().models.len())];
        let dir = scratch_dir("disk", seed);
        let disk = DiskCache::new(dir.clone(), Duration::from_secs(3600));
        disk.save("model", "model/X", payload).expect("save");
        let path = only_entry(&dir);
        let frame = std::fs::read(&path).expect("frame");
        for mutation in MUTATIONS {
            let garbage = mutate(&frame, mutation, &mut rng);
            std::fs::write(&path, &garbage).expect("overwrite entry");
            let loaded = disk.load_graced("model", "model/X", Duration::from_secs(60));
            // Random bytes of at least 12 could carry the magic and a
            // matching checksum by chance; a 2^-96 event, never drawn.
            prop_assert_eq!(loaded, DiskLoadResult::Corrupt, "{:?} frame accepted", mutation);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
