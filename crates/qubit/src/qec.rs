//! A minimal quantum-error-correction workload: repetition-code majority
//! decoding.
//!
//! The paper motivates the general-purpose SoC with exactly this kind of
//! task ("complex quantum error correction protocols have to be executed",
//! Sec. I-C / VII). The simplest protocol — the distance-`d` bit-flip
//! repetition code — already exercises the post-classification pipeline:
//! the readout labels of `d` physical qubits are majority-voted into one
//! logical value, and the decoder's runtime adds to the classification
//! deadline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A distance-`d` bit-flip repetition code.
///
/// ```
/// use cryo_qubit::RepetitionCode;
///
/// let code = RepetitionCode::new(3);
/// assert_eq!(code.decode_block(&[1, 0, 1]), 1);
/// // Coding suppresses errors below threshold:
/// let logical = code.logical_error_rate(0.05, 20_000, 1);
/// assert!(logical < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepetitionCode {
    /// Code distance (odd, ≥ 3).
    pub distance: usize,
}

impl RepetitionCode {
    /// Create a code.
    ///
    /// # Panics
    ///
    /// Panics unless `distance` is odd and at least 3.
    #[must_use]
    pub fn new(distance: usize) -> Self {
        assert!(distance >= 3 && distance % 2 == 1, "odd distance >= 3");
        Self { distance }
    }

    /// Majority-vote decode of one block of physical readout labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != distance`.
    #[must_use]
    pub fn decode_block(&self, labels: &[u8]) -> u8 {
        assert_eq!(labels.len(), self.distance, "one label per physical qubit");
        let ones = labels.iter().filter(|&&l| l != 0).count();
        u8::from(ones * 2 > self.distance)
    }

    /// Decode a full round: `labels` holds `logical · distance` physical
    /// labels, blocked per logical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` is not a multiple of the distance.
    #[must_use]
    pub fn decode_round(&self, labels: &[u8]) -> Vec<u8> {
        assert_eq!(labels.len() % self.distance, 0, "whole blocks only");
        labels
            .chunks(self.distance)
            .map(|block| self.decode_block(block))
            .collect()
    }

    /// Logical error probability for physical flip probability `p`,
    /// estimated by Monte-Carlo over `trials` encoded-zero blocks.
    #[must_use]
    pub fn logical_error_rate(&self, p: f64, trials: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failures = 0usize;
        for _ in 0..trials {
            let labels: Vec<u8> = (0..self.distance)
                .map(|_| u8::from(rng.gen::<f64>() < p))
                .collect();
            if self.decode_block(&labels) != 0 {
                failures += 1;
            }
        }
        failures as f64 / trials.max(1) as f64
    }
}

/// RISC-V assembly for the majority decoder: one byte label per physical
/// qubit in `qec_in`, one decoded byte per logical qubit in `out`.
/// Runs `rounds` passes for steady-state timing (see
/// [`cryo_riscv`-style marginal measurement](crate)).
#[must_use]
pub fn decoder_source(code: RepetitionCode, labels: &[u8], rounds: u64) -> String {
    assert!(rounds > 0);
    let d = code.distance;
    let logical = labels.len() / d;
    assert!(
        logical > 0 && labels.len().is_multiple_of(d),
        "whole blocks only"
    );
    let threshold = d / 2; // ones > threshold -> logical 1
    let mut s = format!(
        ".text
    li s0, {rounds}
qec_round:
    la a0, qec_in
    la a1, out
    li a2, {logical}
qec_loop:
    li t0, 0              # ones count
    li t1, {d}
qec_block:
    lbu t2, 0(a0)
    add t0, t0, t2
    addi a0, a0, 1
    addi t1, t1, -1
    bnez t1, qec_block
    li t3, {threshold}
    sltu t4, t3, t0       # 1 if ones > d/2
    sb t4, 0(a1)
    addi a1, a1, 1
    addi a2, a2, -1
    bnez a2, qec_loop
    addi s0, s0, -1
    bnez s0, qec_round
    ecall
.data
qec_in:
"
    );
    for b in labels {
        s.push_str(&format!("    .byte {b}\n"));
    }
    s.push_str(&format!("out:\n    .zero {logical}\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_decoding_basics() {
        let code = RepetitionCode::new(3);
        assert_eq!(code.decode_block(&[0, 0, 0]), 0);
        assert_eq!(code.decode_block(&[1, 0, 0]), 0);
        assert_eq!(code.decode_block(&[1, 1, 0]), 1);
        assert_eq!(code.decode_block(&[1, 1, 1]), 1);
    }

    #[test]
    fn round_decoding_blocks_correctly() {
        let code = RepetitionCode::new(3);
        let labels = [0, 0, 1, 1, 1, 0, 1, 1, 1];
        assert_eq!(code.decode_round(&labels), vec![0, 1, 1]);
    }

    #[test]
    fn higher_distance_suppresses_errors() {
        let p = 0.05;
        let e3 = RepetitionCode::new(3).logical_error_rate(p, 40_000, 1);
        let e5 = RepetitionCode::new(5).logical_error_rate(p, 40_000, 1);
        let e7 = RepetitionCode::new(7).logical_error_rate(p, 40_000, 1);
        assert!(e3 < p, "coding helps below threshold: {e3} vs {p}");
        assert!(e5 < e3, "{e5} !< {e3}");
        assert!(e7 < e5, "{e7} !< {e5}");
    }

    #[test]
    fn above_threshold_coding_hurts() {
        // Repetition-code threshold is p = 0.5; above it, more distance is
        // worse.
        let p = 0.7;
        let e3 = RepetitionCode::new(3).logical_error_rate(p, 40_000, 2);
        let e7 = RepetitionCode::new(7).logical_error_rate(p, 40_000, 2);
        assert!(e7 > e3);
    }

    #[test]
    #[should_panic(expected = "odd distance")]
    fn even_distance_rejected() {
        let _ = RepetitionCode::new(4);
    }

    #[test]
    fn decoder_source_is_valid_assembly_shape() {
        let code = RepetitionCode::new(3);
        let src = decoder_source(code, &[1, 1, 0, 0, 0, 1], 2);
        assert!(src.contains("qec_loop:"));
        assert!(src.contains(".byte 1"));
        assert!(src.contains("out:"));
    }
}
