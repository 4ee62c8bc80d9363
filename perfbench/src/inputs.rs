//! Seeded job lists for the three workloads.
//!
//! Every workload starts from fixed base draws of the workspace's own
//! generators, and the run seed perturbs every right-hand side `b_i` and
//! objective coefficient `c_j` by a relative factor `1 + ε·u`, `u ~ U(−1, 1)`,
//! with `ε = 1e-6`. The perturbation is enough to change the pivot path (the
//! simplex is chaotic in its data), yet keeps each workload's size and
//! difficulty class fixed. A fresh generator draw per seed was measured and
//! rejected: at m = 768 it moves the pivot count between 870 and 1,704, so
//! run-to-run spread would measure the inputs rather than the program (see
//! the README).

use std::sync::Arc;

use gpu_sim::{DeviceSpec, Gpu};
use lp::{generator, LinearProgram};

/// Relative size of the seeded perturbation of `b` and `c`.
const PERTURBATION: f64 = 1e-6;
/// Generator seed of every base draw except the families'.
const BASE_SEED: u64 = 1;
/// paper_dense sizes (square, `dense_random(m, m, ·)`).
const PAPER_SIZES: [usize; 3] = [256, 512, 768];
/// sparse_pipeline sizes (square, `sparse_random(m, m, 0.005, ·)`).
const SPARSE_SIZES: [usize; 3] = [512, 768, 1024];
/// Nonzero density of the sparse_pipeline models.
const SPARSE_DENSITY: f64 = 0.005;
/// family_batch: generator seeds of the four `perturbed_family` draws.
const FAMILY_SEEDS: [u64; 4] = [1, 2, 3, 4];
/// family_batch: members per family, and the family shape.
const FAMILY_WIDTH: usize = 16;
const FAMILY_M: usize = 128;
/// family_batch: the families' own `b`/`c` perturbation.
const FAMILY_EPS: f64 = 1e-3;
/// family_batch: the 16 singleton shapes, `m = 64 + 12·i`, `n = m + 8`.
const SINGLETONS: usize = 16;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperDense,
    SparsePipeline,
    FamilyBatch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperDense,
        Workload::SparsePipeline,
        Workload::FamilyBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDense => "paper_dense",
            Workload::SparsePipeline => "sparse_pipeline",
            Workload::FamilyBatch => "family_batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's inputs, made from its seed.
pub struct Inputs {
    pub workload: Workload,
    /// paper_dense and family_batch: the models the arms solve.
    /// sparse_pipeline: the same models, kept for checking answers against
    /// (the arms themselves start from `mps`).
    pub models: Vec<LinearProgram>,
    /// sparse_pipeline only: each model serialized to MPS text.
    pub mps: Vec<String>,
}

impl Inputs {
    /// Generate the workload's job list for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed);
        let bases: Vec<LinearProgram> = match workload {
            Workload::PaperDense => PAPER_SIZES
                .iter()
                .map(|&m| generator::dense_random(m, m, BASE_SEED))
                .collect(),
            Workload::SparsePipeline => SPARSE_SIZES
                .iter()
                .map(|&m| generator::sparse_random(m, m, SPARSE_DENSITY, BASE_SEED))
                .collect(),
            Workload::FamilyBatch => family_batch_bases(),
        };
        let models: Vec<LinearProgram> = bases
            .iter()
            .map(|b| perturb(b, &mut rng, PERTURBATION))
            .collect();
        let mps = match workload {
            Workload::SparsePipeline => models.iter().map(lp::mps::write).collect(),
            _ => Vec::new(),
        };
        Inputs {
            workload,
            models,
            mps,
        }
    }
}

/// family_batch base jobs: four same-shape families (64 members in all)
/// followed by 16 singletons of distinct shapes.
fn family_batch_bases() -> Vec<LinearProgram> {
    let mut jobs: Vec<LinearProgram> = FAMILY_SEEDS
        .iter()
        .flat_map(|&s| generator::perturbed_family(FAMILY_WIDTH, FAMILY_M, FAMILY_M, s, FAMILY_EPS))
        .collect();
    jobs.extend((0..SINGLETONS).map(|i| {
        let m = 64 + 12 * i;
        generator::dense_random(m, m + 8, BASE_SEED)
    }));
    jobs
}

/// A copy of `base` with every objective coefficient and right-hand side
/// scaled by `1 + eps·u`. The constraint matrix is untouched, so warm-cache
/// family keys and the sparsity pattern are unchanged.
fn perturb(base: &LinearProgram, rng: &mut SplitMix, eps: f64) -> LinearProgram {
    let mut lp = LinearProgram::new(base.name.clone()).with_sense(base.sense);
    for v in base.vars() {
        lp.add_var(
            v.name.clone(),
            v.lower,
            v.upper,
            v.obj * (1.0 + eps * rng.unit()),
        );
    }
    for c in base.constraints() {
        lp.add_constraint(
            c.name.clone(),
            &c.coeffs,
            c.rel,
            c.rhs * (1.0 + eps * rng.unit()),
        );
    }
    lp
}

/// One simulated GTX 280 for a pass's GPU arm.
pub fn gtx280() -> Arc<Gpu> {
    Arc::new(Gpu::new(DeviceSpec::gtx280()))
}

/// SplitMix64: a small, fully specified generator, so a seed maps to the
/// same inputs on every platform and toolchain.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [−1, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(Workload::FamilyBatch, 7);
        let b = Inputs::generate(Workload::FamilyBatch, 7);
        let c = Inputs::generate(Workload::FamilyBatch, 8);
        assert_eq!(a.models, b.models);
        assert_ne!(a.models, c.models);
        assert_eq!(a.models.len(), 80);
    }

    #[test]
    fn perturbation_keeps_the_constraint_matrix() {
        let base = generator::dense_random(8, 8, 1);
        let p = perturb(&base, &mut SplitMix::new(3), PERTURBATION);
        for (x, y) in base.constraints().iter().zip(p.constraints()) {
            assert_eq!(x.coeffs, y.coeffs);
            assert!((x.rhs - y.rhs).abs() <= PERTURBATION * x.rhs.abs());
        }
    }
}
