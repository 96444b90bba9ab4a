//! Crash-recovery properties for the durable store (`grdf-store`).
//!
//! The durability contract under test:
//!
//! * **Exact surviving-prefix recovery.** Whatever byte the crash lands
//!   on — mid-WAL-record, mid-checkpoint write, between the steps of a
//!   checkpoint rotation — recovery reconstructs exactly the batches that
//!   were acknowledged before the crash: nothing acknowledged is lost,
//!   nothing unacknowledged leaks in.
//! * **Interior corruption fails closed.** A bit flip in a WAL record
//!   that still has valid records after it is not trimmable damage;
//!   recovery refuses with `CorruptInterior` rather than silently
//!   dropping acknowledged history. The torn *tail* (damage with nothing
//!   valid after it) is truncated instead.
//! * The same state recovered from disk entails the same inferences as
//!   the state rebuilt from sources (real-filesystem smoke test).
//!
//! Everything is deterministic: crashes are byte budgets on an injectable
//! [`CrashBackend`], corruption is explicit bit surgery on a
//! [`MemBackend`]. `GRDF_CRASH_QUICK=1` trims the case count for CI smoke
//! runs, and `GRDF_MASTER_SEED` (decimal or `0x`-hex) reseeds the whole
//! generated-case sweep — budgets, batches, flip positions — through the
//! property harness, so CI can run many masters and any failure replays
//! locally with the same env var.

use std::sync::Arc;

use proptest::prelude::*;

use grdf::rdf::graph::Graph;
use grdf::rdf::term::{Term, Triple};
use grdf::store::{
    recover, verify, CrashBackend, DurableStore, FsyncPolicy, LoggedOp, MemBackend, StorageBackend,
    StoreConfig, StoreError,
};

fn cases() -> u32 {
    if std::env::var("GRDF_CRASH_QUICK").is_ok() {
        8
    } else {
        48
    }
}

/// A small closed universe of triples so deletes can hit earlier inserts.
fn triple(s: usize, p: usize, o: usize) -> Triple {
    Triple::new(
        Term::iri(&format!("urn:crash:s{s}")),
        Term::iri(&format!("urn:crash:p{p}")),
        Term::iri(&format!("urn:crash:o{o}")),
    )
}

fn base_graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..4 {
        g.insert(triple(i, 0, 0));
    }
    g
}

type OpSpec = (bool, usize, usize, usize);

fn to_ops(batch: &[OpSpec]) -> Vec<LoggedOp> {
    batch
        .iter()
        .map(|&(insert, s, p, o)| {
            if insert {
                LoggedOp::Insert(triple(s, p, o))
            } else {
                LoggedOp::Delete(triple(s, p, o))
            }
        })
        .collect()
}

fn apply(model: &mut Graph, ops: &[LoggedOp]) {
    for op in ops {
        match op {
            LoggedOp::Insert(t) => {
                model.insert(t.clone());
            }
            LoggedOp::Delete(t) => {
                model.remove(t);
            }
        }
    }
}

/// Seed a store (no crash), then re-open and run `batches` through a
/// [`CrashBackend`] with `budget` bytes. Returns the surviving files and
/// the model graph of acknowledged batches.
fn run_crashy(
    batches: &[Vec<OpSpec>],
    budget: u64,
    checkpoint_threshold: u64,
) -> (MemBackend, Graph) {
    let config = StoreConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_threshold,
    };
    let policy_graph = Graph::new();
    let mut model = base_graph();
    let seed = Arc::new(MemBackend::new());
    DurableStore::create(
        Arc::clone(&seed) as Arc<dyn StorageBackend>,
        config,
        &model,
        &policy_graph,
    )
    .expect("seed store");
    let crashy = Arc::new(CrashBackend::new(
        MemBackend::from_files(seed.clone_files()),
        budget,
    ));
    // Re-open through the crash budget, exactly as a process that boots
    // and then dies mid-write would.
    if let Ok((store, _)) =
        DurableStore::open(Arc::clone(&crashy) as Arc<dyn StorageBackend>, config)
    {
        for batch in batches {
            let ops = to_ops(batch);
            if store.append_batch(&ops).is_err() {
                // Unacknowledged: the crash fired inside this record (or
                // the store is already poisoned). Not part of the model.
                break;
            }
            apply(&mut model, &ops);
            // Rotation failures are not data loss: the old checkpoint +
            // longer WAL remain valid, so errors here are ignored.
            let _ = store.maybe_checkpoint(&model, &policy_graph);
        }
    }
    // else: the crash fired during the boot-counter bump; nothing was
    // acknowledged, the model is the seeded base.
    (MemBackend::from_files(crashy.inner().clone_files()), model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The core crash property: for ANY byte budget, recovery over the
    /// surviving files reconstructs exactly the acknowledged prefix.
    /// Budgets start below the 8-byte boot bump (crash before anything is
    /// acknowledged) and run past the total write volume (no crash at
    /// all), so torn records, torn checkpoint tmp files, and crashes
    /// between rotation steps all occur along the way.
    #[test]
    fn recovery_restores_exactly_the_acknowledged_prefix(
        batches in prop::collection::vec(
            prop::collection::vec((prop::bool::ANY, 0..6usize, 0..3usize, 0..4usize), 1..6),
            1..12,
        ),
        budget in 0u64..6000,
    ) {
        let (survivors, model) = run_crashy(&batches, budget, u64::MAX);
        let recovered = recover(&survivors).expect("crashes only tear tails; recovery must succeed");
        prop_assert_eq!(&recovered.base, &model, "recovered state != acknowledged prefix");
        let report = verify(&survivors).expect("verify walks survivors");
        prop_assert!(report.recoverable);
    }

    /// Same property with an aggressive rotation threshold, so most of
    /// the byte budget range lands inside checkpoint writes and the
    /// multi-step rotation protocol (write → new segment → GC) rather
    /// than inside WAL appends.
    #[test]
    fn recovery_survives_crashes_inside_checkpoint_rotation(
        batches in prop::collection::vec(
            prop::collection::vec((prop::bool::ANY, 0..6usize, 0..3usize, 0..4usize), 1..6),
            1..12,
        ),
        budget in 0u64..8000,
    ) {
        let (survivors, model) = run_crashy(&batches, budget, 96);
        let recovered = recover(&survivors).expect("rotation crashes must stay recoverable");
        prop_assert_eq!(&recovered.base, &model, "recovered state != acknowledged prefix");
    }

    /// Interior corruption: flip one bit of a non-final WAL record and
    /// recovery must refuse outright — acknowledged history after the
    /// damage exists, so truncating would silently lose it, and decoding
    /// around it would fabricate state.
    #[test]
    fn interior_bit_flips_fail_closed(
        flip_byte in 0usize..200,
        flip_bit in 0u8..8,
        extra_batches in 1usize..6,
    ) {
        let config = StoreConfig { fsync: FsyncPolicy::Always, checkpoint_threshold: u64::MAX };
        let mem = Arc::new(MemBackend::new());
        let store = DurableStore::create(
            Arc::clone(&mem) as Arc<dyn StorageBackend>,
            config,
            &base_graph(),
            &Graph::new(),
        ).expect("create");
        for i in 0..=extra_batches {
            store.append_batch(&[LoggedOp::Insert(triple(i, 1, 1))]).expect("append");
        }
        drop(store);
        let wal = "wal-0000000000000000";
        let bytes = mem.read(wal).expect("read wal");
        // Land the flip inside the FIRST record (header or payload), so
        // valid records always follow the damage.
        let first_len = 8 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let pos = flip_byte % first_len;
        mem.flip_bit(wal, pos, 1 << flip_bit);
        match recover(mem.as_ref()) {
            Err(StoreError::CorruptInterior { .. }) => {}
            Err(other) => prop_assert!(false, "expected CorruptInterior, got {other}"),
            Ok(r) => prop_assert!(
                false,
                "recovery returned {} triples through interior corruption",
                r.base.len()
            ),
        }
        let report = verify(mem.as_ref()).expect("verify still walks");
        prop_assert!(!report.recoverable, "verify must agree the store is unrecoverable");
    }
}

/// Real-filesystem smoke test: seed, mutate, checkpoint, "restart", and
/// check that the recovered state entails the same inferences as the
/// state rebuilt from sources. This is the one store test that exercises
/// actual fsync/rename syscalls end to end.
#[test]
fn real_fs_recovery_smoke() {
    use grdf::owl::reasoner::Reasoner;
    use grdf::store::FsBackend;

    let dir = std::env::temp_dir().join(format!("grdf-prop-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let config = StoreConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_threshold: 512,
    };
    let mut model = grdf::core::ontology::grdf_ontology();
    let backend = Arc::new(FsBackend::open(&dir).expect("open fs backend"));
    let store = DurableStore::create(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        config,
        &model,
        &Graph::new(),
    )
    .expect("create store");
    for i in 0..40 {
        let ops = vec![LoggedOp::Insert(triple(i, i % 3, i % 5))];
        store.append_batch(&ops).expect("append");
        apply(&mut model, &ops);
        let _ = store.maybe_checkpoint(&model, &Graph::new());
    }
    drop(store);
    drop(backend);

    // "Restart": everything re-read from real files.
    let backend = FsBackend::open(&dir).expect("reopen fs backend");
    let recovered = recover(&backend).expect("recover from real fs");
    assert_eq!(
        recovered.base, model,
        "recovered base != source-of-truth model"
    );
    let report = verify(&backend).expect("verify real fs");
    assert!(report.recoverable, "{:?}", report.failure);

    // Same entailments either way.
    let mut from_disk = recovered.base.clone();
    let mut from_sources = model.clone();
    Reasoner::default().materialize(&mut from_disk);
    Reasoner::default().materialize(&mut from_sources);
    assert_eq!(
        from_disk, from_sources,
        "recovered state must entail the same inferences"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
