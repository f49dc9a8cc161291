//! Durability laws of the on-disk snapshot format, on randomly generated
//! well-typed programs:
//!
//! 1. **Round trip** — `decode(encode(s))` succeeds, and the decoded
//!    engine answers every query *identically, node for node*: forward
//!    label sets, binder sets, membership, the inverse index, call
//!    targets and the all-sets listing.
//! 2. **Fault injection** — any corruption of the byte stream (random
//!    truncation, random bit and byte flips, header tampering) decodes to
//!    a structured [`PersistError`]: never a panic, and — because every
//!    decode failure means "rebuild from source" — never a wrong answer.
//!
//! Shrunk failures persist to `tests/devkit-regressions.txt`.

use stcfa_core::{Analysis, QueryEngine};
use stcfa_devkit::hash::Fnv1a;
use stcfa_devkit::prelude::*;
use stcfa_lambda::Program;
use stcfa_persist::{decode, encode, PersistError, SnapshotImage};
use stcfa_workloads::synth::{generate, SynthConfig};

fn program_for(seed: u64, target_size: usize) -> Program {
    generate(&SynthConfig {
        seed,
        target_size,
        max_type_depth: 2,
        effect_prob: 0.05,
        max_tuple_width: 3,
        datatypes: true,
    })
}

fn snapshot_bytes(p: &Program, prepare: bool) -> (QueryEngine, Vec<u8>) {
    let a = Analysis::run(p).expect("generated programs are bounded-type");
    let engine = QueryEngine::freeze(&a);
    if prepare {
        engine.prepare();
    }
    let source = p.to_source();
    let bytes = encode(&SnapshotImage {
        digest: Fnv1a::digest_parts(source.as_bytes(), &[1, 0]),
        policy: 1,
        engine_disc: 0,
        source: &source,
        engine: &engine,
        suspicion: None,
        linked: false,
    });
    (engine, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Law 1: encode → decode is the identity up to query answers.
    #[test]
    fn decoded_engine_answers_identically(seed in any::<u64>()) {
        let p = program_for(seed, 140);
        // Both flavors: a swept engine and a demand-only one. Neither
        // writes its summary rows; the decoded engine derives its own.
        for prepare in [false, true] {
            let (cold, bytes) = snapshot_bytes(&p, prepare);
            let warm = match decode(&bytes) {
                Ok(d) => d,
                Err(e) => return Err(TestCaseError::Fail(format!("decode failed: {e} (seed {seed})"))),
            };
            prop_assert_eq!(warm.source, p.to_source(), "seed {}", seed);
            let q = warm.engine;
            for e in p.exprs() {
                prop_assert_eq!(q.labels_of(e), cold.labels_of(e), "at {:?} (seed {})", e, seed);
            }
            for v in p.vars() {
                prop_assert_eq!(q.labels_of_binder(v), cold.labels_of_binder(v), "seed {}", seed);
            }
            for l in p.all_labels() {
                prop_assert_eq!(q.exprs_with_label(l), cold.exprs_with_label(l), "seed {}", seed);
                for e in p.exprs().step_by(7) {
                    prop_assert_eq!(q.label_reaches(e, l), cold.label_reaches(e, l), "seed {}", seed);
                }
            }
            for app in p.app_sites() {
                prop_assert_eq!(q.call_targets(&p, app), cold.call_targets(&p, app), "seed {}", seed);
            }
            prop_assert_eq!(q.all_label_sets(), cold.all_label_sets(), "seed {}", seed);
            // The frozen build statistics survive the trip.
            prop_assert_eq!(q.stats().build_nodes, cold.stats().build_nodes);
            prop_assert_eq!(q.stats().build_edges, cold.stats().build_edges);
        }
    }

    /// Law 2a: every truncation point yields a structured error.
    #[test]
    fn random_truncation_never_panics(seed in any::<u64>()) {
        let p = program_for(seed, 100);
        let (_, bytes) = snapshot_bytes(&p, true);
        let mut rng = Rng::seed_from_u64(seed ^ 0x7ca7);
        for _ in 0..64 {
            let len = rng.gen_range(0..bytes.len());
            match decode(&bytes[..len]) {
                Ok(_) => return Err(TestCaseError::Fail(format!(
                    "prefix of {len}/{} bytes decoded (seed {seed})", bytes.len()
                ))),
                Err(e) => { let _ = e.kind(); let _ = e.to_string(); }
            }
        }
    }

    /// Law 2b: random bit flips and byte stomps yield structured errors.
    #[test]
    fn random_corruption_never_panics(seed in any::<u64>()) {
        let p = program_for(seed, 100);
        let (_, bytes) = snapshot_bytes(&p, seed % 2 == 0);
        let mut rng = Rng::seed_from_u64(seed ^ 0xbadc);
        for round in 0..64 {
            let mut evil = bytes.clone();
            // Escalating damage: single bit, whole byte, then a burst.
            match round % 3 {
                0 => {
                    let i = rng.gen_range(0..evil.len());
                    evil[i] ^= 1u8 << rng.gen_range(0..8u32);
                }
                1 => {
                    let i = rng.gen_range(0..evil.len());
                    evil[i] = evil[i].wrapping_add(rng.gen_range(1..=255u32) as u8);
                }
                _ => {
                    let i = rng.gen_range(0..evil.len());
                    let n = rng.gen_range(1..=16usize).min(evil.len() - i);
                    for b in &mut evil[i..i + n] {
                        *b = rng.next_u64() as u8;
                    }
                }
            }
            if evil == bytes {
                continue;
            }
            match decode(&evil) {
                Ok(_) => return Err(TestCaseError::Fail(format!(
                    "corrupted bytes decoded (seed {seed}, round {round})"
                ))),
                Err(e) => prop_assert!(
                    !matches!(e, PersistError::Io(_)),
                    "in-memory decode reported io (seed {})", seed
                ),
            }
        }
    }
}
