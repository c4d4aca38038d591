//! The calibration phase: learn per-qubit I/Q centers from prepared shots.
//!
//! "The measurement classifier is trained by the data obtained through
//! preparing and measuring each qubit individually in the |0⟩ and |1⟩
//! basis state" (Sec. II). Calibration here is exactly that: the mean I/Q
//! point per (qubit, state), which both classifiers then consume.

use std::num::NonZeroUsize;

use crate::device::{IqPoint, QuantumDevice, Shot};
use crate::{QubitError, Result};

/// Learned readout centers for every qubit.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    centers: Vec<(IqPoint, IqPoint)>,
}

impl Calibration {
    /// Run the calibration campaign on a device: `shots_per_state` prepared
    /// readouts of |0⟩ and |1⟩ per qubit.
    ///
    /// The qubits are split over up to `available_parallelism()` threads,
    /// at least 256 qubits each. A qubit's centers depend only on its own
    /// shots, so they are the same bits at any thread count.
    ///
    /// # Errors
    ///
    /// [`QubitError::EmptyCalibration`] when `shots_per_state == 0`.
    pub fn train(device: &QuantumDevice, shots_per_state: usize) -> Result<Self> {
        if shots_per_state == 0 {
            return Err(QubitError::EmptyCalibration);
        }
        let jobs = std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(device.len() / MIN_QUBITS_PER_THREAD)
            .max(1);
        Ok(Self {
            centers: centers(device, shots_per_state, jobs),
        })
    }

    /// Build directly from known centers (testing / synthetic sweeps).
    #[must_use]
    pub fn from_centers(centers: Vec<(IqPoint, IqPoint)>) -> Self {
        Self { centers }
    }

    /// Number of calibrated qubits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Whether no qubits are calibrated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Centers `(c0, c1)` of a qubit.
    ///
    /// # Errors
    ///
    /// [`QubitError::QubitOutOfRange`].
    pub fn centers(&self, qubit: usize) -> Result<(IqPoint, IqPoint)> {
        self.centers
            .get(qubit)
            .copied()
            .ok_or(QubitError::QubitOutOfRange {
                qubit,
                count: self.centers.len(),
            })
    }

    /// The centers flattened into the RISC-V kNN kernel's table layout:
    /// `[xc0, yc0, xc1, yc1]` per qubit.
    #[must_use]
    pub fn knn_table(&self) -> Vec<[f64; 4]> {
        self.centers
            .iter()
            .map(|(c0, c1)| [c0.i, c0.q, c1.i, c1.q])
            .collect()
    }

    /// Assignment fidelity of a classifier over labelled shots: fraction
    /// classified as prepared.
    #[must_use]
    pub fn assignment_fidelity<F>(&self, shots: &[Shot], classify: F) -> f64
    where
        F: Fn(usize, IqPoint) -> u8,
    {
        if shots.is_empty() {
            return 0.0;
        }
        let correct = shots
            .iter()
            .filter(|s| classify(s.qubit, s.point) == s.prepared)
            .count();
        correct as f64 / shots.len() as f64
    }
}

/// Fewest qubits a calibration thread takes. On a 2-core x86-64 host one
/// qubit at 128 shots per state costs about 15 µs and a scoped thread
/// about 50 µs to spawn and join, so a 256-qubit chunk (about 4 ms) pays
/// for its thread many times over. Smaller devices, such as
/// [`QuantumDevice::falcon27`], stay on the calling thread.
const MIN_QUBITS_PER_THREAD: usize = 256;

/// The `(c0, c1)` mean points of every qubit, over `jobs` threads.
///
/// The qubits are split into contiguous chunks, one per thread, and the
/// calling thread takes the first. A qubit's means depend only on its own
/// shot streams, and each pair is written into the qubit's own slot, so
/// the result is in qubit order and the same bit for bit at any `jobs`.
fn centers(device: &QuantumDevice, shots: usize, jobs: usize) -> Vec<(IqPoint, IqPoint)> {
    let mut centers = vec![(IqPoint::default(), IqPoint::default()); device.len()];
    // `max(1)`: an empty device has no chunks, but `chunks_mut(0)` panics.
    let chunk = device.len().div_ceil(jobs.max(1)).max(1);
    let fill = |first: usize, slots: &mut [(IqPoint, IqPoint)]| {
        for (qubit, slot) in (first..).zip(slots) {
            let mean = |state| device.readout_mean(qubit, state, shots);
            *slot = (
                mean(0).expect("qubit in range"),
                mean(1).expect("qubit in range"),
            );
        }
    };
    std::thread::scope(|scope| {
        let fill = &fill;
        let mut chunks = centers.chunks_mut(chunk).enumerate();
        let own = chunks.next();
        for (k, slots) in chunks {
            scope.spawn(move || fill(k * chunk, slots));
        }
        if let Some((_, slots)) = own {
            fill(0, slots);
        }
    });
    centers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_recovers_true_centers() {
        let d = QuantumDevice::new(5, 21);
        let cal = Calibration::train(&d, 300).unwrap();
        assert_eq!(cal.len(), 5);
        for q in 0..5 {
            let (c0, c1) = cal.centers(q).unwrap();
            let t0 = d.true_center(q, 0).unwrap();
            assert!(c0.dist2(t0).sqrt() < 0.1, "qubit {q} c0 off");
            // c1 is biased slightly toward c0 by relaxation but stays close.
            let t1 = d.true_center(q, 1).unwrap();
            assert!(c1.dist2(t1).sqrt() < 0.2, "qubit {q} c1 off");
        }
    }

    #[test]
    fn centers_do_not_depend_on_the_thread_count() {
        // 27 qubits over 7 threads and 1000 over 3, 7 or 64 leave a
        // shorter last chunk; 64 threads is more than 0, 1 or 27 qubits.
        let bits = |c: &[(IqPoint, IqPoint)]| -> Vec<[u64; 4]> {
            c.iter()
                .map(|(c0, c1)| [c0.i, c0.q, c1.i, c1.q].map(f64::to_bits))
                .collect()
        };
        for n in [0, 1, 27, 1000] {
            let d = QuantumDevice::new(n, 13);
            let serial = centers(&d, 16, 1);
            assert_eq!(serial.len(), n);
            for jobs in [2, 3, 7, 64] {
                assert_eq!(
                    bits(&centers(&d, 16, jobs)),
                    bits(&serial),
                    "{n} qubits at {jobs} jobs"
                );
            }
        }
    }

    #[test]
    fn zero_shots_is_an_error() {
        let d = QuantumDevice::new(2, 1);
        assert!(matches!(
            Calibration::train(&d, 0),
            Err(QubitError::EmptyCalibration)
        ));
    }

    #[test]
    fn knn_table_layout() {
        let cal = Calibration::from_centers(vec![(IqPoint::new(1.0, 2.0), IqPoint::new(3.0, 4.0))]);
        assert_eq!(cal.knn_table(), vec![[1.0, 2.0, 3.0, 4.0]]);
    }

    #[test]
    fn fidelity_of_perfect_oracle_is_one() {
        let d = QuantumDevice::new(3, 2);
        let cal = Calibration::train(&d, 50).unwrap();
        let mut shots = d.readout(0, 0, 20).unwrap();
        shots.extend(d.readout(0, 1, 20).unwrap());
        let f = cal.assignment_fidelity(&shots, |_, _| 0);
        assert!((f - 0.5).abs() < 1e-9, "half the shots are |0>");
        let oracle = cal.assignment_fidelity(&shots, |q, p| {
            let (c0, c1) = cal.centers(q).unwrap();
            u8::from(p.dist2(c1) < p.dist2(c0))
        });
        assert!(oracle > 0.9, "distance classifier is accurate: {oracle}");
    }
}
