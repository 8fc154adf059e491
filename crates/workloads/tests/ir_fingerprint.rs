//! Pins the IR generator's output bit for bit: every sampled DAG's types,
//! works, children and parents, folded into one FNV-1a digest per
//! (typing, size) over a fixed range of seeds. Any change to the wiring
//! code that alters an RNG draw, its order, or the edge insertion order
//! shows up here, not only in the coarser golden tables downstream.

use fhs_workloads::resources::SystemSize;
use fhs_workloads::{Family, Typing, WorkloadSpec};
use kdag::KDag;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fold_dag(h: &mut Fnv, job: &KDag) {
    h.word(job.num_tasks() as u64);
    for v in job.tasks() {
        h.word(job.rtype(v) as u64);
        h.word(job.work(v));
        // Lengths first, so adjacent lists cannot alias each other.
        h.word(job.children(v).len() as u64);
        for c in job.children(v) {
            h.word(c.index() as u64);
        }
        h.word(job.parents(v).len() as u64);
        for p in job.parents(v) {
            h.word(p.index() as u64);
        }
    }
}

fn digest(typing: Typing, size: SystemSize, seeds: std::ops::Range<u64>) -> u64 {
    let spec = WorkloadSpec::new(Family::Ir, typing, size, 4);
    let mut h = Fnv::new();
    for seed in seeds {
        let (job, _) = spec.sample(seed);
        fold_dag(&mut h, &job);
    }
    h.0
}

#[test]
fn sampled_ir_dags_are_pinned() {
    // (typing, size, seeds, digest); digests recorded under the offline
    // rand shim's streams.
    let cases: [(Typing, SystemSize, std::ops::Range<u64>, u64); 6] = [
        (
            Typing::Layered,
            SystemSize::Small,
            0..256,
            0x7bdd_6ac3_c783_d5ea,
        ),
        (
            Typing::Random,
            SystemSize::Small,
            0..256,
            0x097b_770c_ffb4_77d2,
        ),
        (
            Typing::Layered,
            SystemSize::Medium,
            0..64,
            0xc5d5_1e97_9aba_cf17,
        ),
        (
            Typing::Random,
            SystemSize::Medium,
            0..64,
            0x3d2b_72b5_a109_bc8e,
        ),
        (
            Typing::Layered,
            SystemSize::Large,
            0..4,
            0xa4e7_6bba_738a_40e6,
        ),
        (
            Typing::Random,
            SystemSize::Large,
            0..4,
            0x3e4a_40bb_1f17_a456,
        ),
    ];
    let mut failures = Vec::new();
    for (typing, size, seeds, want) in cases {
        let got = digest(typing, size, seeds.clone());
        if got != want {
            failures.push(format!(
                "{typing:?} {size:?} {seeds:?}: {got:#018x} (pinned {want:#018x})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "IR generator drifted:\n{}",
        failures.join("\n")
    );
}
