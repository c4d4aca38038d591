//! The virtual quantum device: per-qubit dispersive-readout model.

use std::iter::Take;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{QubitError, Result};

/// A point in the readout I/Q plane (arbitrary units, as in Fig. 2a).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IqPoint {
    /// In-phase component.
    pub i: f64,
    /// Quadrature component.
    pub q: f64,
}

impl IqPoint {
    /// Construct a point.
    #[must_use]
    pub fn new(i: f64, q: f64) -> Self {
        Self { i, q }
    }

    /// Squared Euclidean distance (the paper's radicand — the square root
    /// is never taken).
    #[must_use]
    pub fn dist2(self, other: Self) -> f64 {
        let di = self.i - other.i;
        let dq = self.q - other.q;
        di * di + dq * dq
    }
}

/// One readout shot: the measured I/Q value and the state that was
/// prepared (ground truth for accuracy studies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shot {
    /// Qubit index.
    pub qubit: usize,
    /// Prepared basis state (0 or 1).
    pub prepared: u8,
    /// Measured I/Q point.
    pub point: IqPoint,
}

/// Per-qubit readout parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QubitReadout {
    c0: IqPoint,
    c1: IqPoint,
    /// Gaussian blob sigma.
    sigma: f64,
    /// Probability that a prepared |1⟩ relaxes mid-readout (appears along
    /// the c1→c0 chord).
    relax: f64,
}

/// An `n`-qubit readout model with seeded shot generation.
#[derive(Debug, Clone)]
pub struct QuantumDevice {
    qubits: Vec<QubitReadout>,
    seed: u64,
    /// State decoherence time constant, seconds (Fig. 2b; ≈110 µs on the
    /// paper's IBM Falcon).
    pub t2: f64,
}

impl QuantumDevice {
    /// The paper's 27-qubit IBM-Falcon-class device.
    #[must_use]
    pub fn falcon27(seed: u64) -> Self {
        Self::new(27, seed)
    }

    /// Build an `n`-qubit device; readout geometry varies per qubit as on
    /// real hardware (Fig. 2a shows 27 distinct center pairs).
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA1C_0027);
        let qubits = (0..n)
            .map(|_| {
                // Centers scattered over roughly [-1.5, 1.5]² with a
                // separation comfortably above the blob sigma.
                let c0 = IqPoint::new(rng.gen_range(-1.4..1.4), rng.gen_range(-1.4..1.4));
                let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let sep: f64 = rng.gen_range(0.8..1.5);
                let c1 = IqPoint::new(c0.i + sep * angle.cos(), c0.q + sep * angle.sin());
                QubitReadout {
                    c0,
                    c1,
                    sigma: rng.gen_range(0.10..0.18),
                    relax: rng.gen_range(0.01..0.04),
                }
            })
            .collect();
        Self {
            qubits,
            seed,
            t2: 110e-6,
        }
    }

    /// Number of qubits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.qubits.len()
    }

    /// Whether the device has no qubits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.qubits.is_empty()
    }

    /// True (noise-free) center of a qubit's state blob.
    ///
    /// # Errors
    ///
    /// [`QubitError::QubitOutOfRange`].
    pub fn true_center(&self, qubit: usize, state: u8) -> Result<IqPoint> {
        let q = self.params(qubit)?;
        Ok(if state == 0 { q.c0 } else { q.c1 })
    }

    fn params(&self, qubit: usize) -> Result<QubitReadout> {
        self.qubits
            .get(qubit)
            .copied()
            .ok_or(QubitError::QubitOutOfRange {
                qubit,
                count: self.qubits.len(),
            })
    }

    /// The shot stream of `qubit` prepared in `state`, integrated over
    /// `window` times the nominal window. `mix` enters the seed alongside
    /// the qubit and the state.
    fn stream(&self, qubit: usize, state: u8, window: f64, mix: u64) -> Result<ShotStream> {
        let q = self.params(qubit)?;
        Ok(ShotStream {
            rng: StdRng::seed_from_u64(
                self.seed
                    ^ (qubit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (u64::from(state) << 60)
                    ^ mix,
            ),
            center: if state == 0 { q.c0 } else { q.c1 },
            sigma: q.sigma / window.sqrt(),
            chord: (state == 1).then_some((q.c0, q.c1)),
            relax: (q.relax * window).min(0.9),
        })
    }

    /// The points of [`QuantumDevice::readout`]: the nominal window, where
    /// `sigma / sqrt(1.0)` and `relax * 1.0` are the qubit's own values bit
    /// for bit (`relax` is below 0.04, so the 0.9 cap never applies).
    fn points(&self, qubit: usize, state: u8, shots: usize) -> Result<Take<ShotStream>> {
        Ok(self
            .stream(qubit, state, 1.0, (shots as u64).rotate_left(17))?
            .take(shots))
    }

    /// Mean point of [`QuantumDevice::readout`]`(qubit, state, shots)`, bit
    /// for bit, without storing a shot: the points are summed in shot order
    /// from `Iterator::sum`'s start value for floats, `-0.0`.
    pub(crate) fn readout_mean(&self, qubit: usize, state: u8, shots: usize) -> Result<IqPoint> {
        let (i, q) = self
            .points(qubit, state, shots)?
            .fold((-0.0, -0.0), |(i, q), p| (i + p.i, q + p.q));
        let n = shots.max(1) as f64;
        Ok(IqPoint::new(i / n, q / n))
    }

    /// Generate `shots` readout shots of `qubit` prepared in `state`.
    ///
    /// # Errors
    ///
    /// [`QubitError::QubitOutOfRange`].
    pub fn readout(&self, qubit: usize, state: u8, shots: usize) -> Result<Vec<Shot>> {
        Ok(self
            .points(qubit, state, shots)?
            .map(|point| Shot {
                qubit,
                prepared: state,
                point,
            })
            .collect())
    }

    /// Readout with an explicit integration window (the paper's boxcar
    /// integrator, Sec. II): longer integration averages down the amplifier
    /// noise (`sigma ∝ 1/sqrt(t)`) but exposes the qubit to more relaxation
    /// (`p_relax ∝ t`). `window` is relative to the nominal window: 1.0 has
    /// [`QuantumDevice::readout`]'s noise and relaxation, but the window
    /// enters the seed, so it draws a different stream of shots.
    ///
    /// # Errors
    ///
    /// [`QubitError::QubitOutOfRange`]; also if `window` is not positive.
    pub fn readout_windowed(
        &self,
        qubit: usize,
        state: u8,
        shots: usize,
        window: f64,
    ) -> Result<Vec<Shot>> {
        if window <= 0.0 || !window.is_finite() {
            return Err(QubitError::InvalidWindow { window });
        }
        let mix = ((window * 4096.0) as u64).rotate_left(23) ^ (shots as u64).rotate_left(17);
        Ok(self
            .stream(qubit, state, window, mix)?
            .take(shots)
            .map(|point| Shot {
                qubit,
                prepared: state,
                point,
            })
            .collect())
    }

    /// One labelled measurement per qubit (a "readout round"): qubit `i`'s
    /// prepared state alternates pseudo-randomly with the round index.
    ///
    /// # Panics
    ///
    /// Never (internal qubit indices are in range).
    #[must_use]
    pub fn measurement_round(&self, round: u64) -> Vec<Shot> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03));
        (0..self.len())
            .map(|qubit| {
                let state = u8::from(rng.gen::<bool>());
                let mut point = self
                    .points(qubit, state, 1)
                    .expect("qubit in range")
                    .next()
                    .expect("one shot");
                // Per-round jitter so repeated rounds differ slightly.
                let jit: f64 = rng.gen_range(-1e-9..1e-9);
                point.i += jit;
                Shot {
                    qubit,
                    prepared: state,
                    point,
                }
            })
            .collect()
    }
}

/// The I/Q points of one `(qubit, state)` shot stream, drawn on demand.
///
/// Every shot draws two uniforms for Box–Muller noise around the prepared
/// state's center. A prepared |1⟩ then draws once more to decide whether
/// it relaxed mid-readout, and a relaxed shot draws where it landed on the
/// c0–c1 chord.
struct ShotStream {
    rng: StdRng,
    center: IqPoint,
    sigma: f64,
    /// `(c0, c1)` for a prepared |1⟩; `None` for a state that cannot relax.
    chord: Option<(IqPoint, IqPoint)>,
    relax: f64,
}

impl Iterator for ShotStream {
    type Item = IqPoint;

    fn next(&mut self) -> Option<IqPoint> {
        let (u1, u2): (f64, f64) = (self.rng.gen_range(1e-12..1.0), self.rng.gen_range(0.0..1.0));
        // Relaxation during readout drags some |1⟩ shots toward c0.
        if let Some((c0, c1)) = self.chord {
            if self.rng.gen::<f64>() < self.relax {
                let f: f64 = self.rng.gen();
                return Some(IqPoint::new(
                    c0.i + f * (c1.i - c0.i),
                    c0.q + f * (c1.q - c0.q),
                ));
            }
        }
        // Box-Muller Gaussian noise.
        let r = (-2.0 * u1.ln()).sqrt() * self.sigma;
        let theta = std::f64::consts::TAU * u2;
        Some(IqPoint::new(
            self.center.i + r * theta.cos(),
            self.center.q + r * theta.sin(),
        ))
    }

    /// Endless, so `take(shots)` collects into an exactly sized `Vec`.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn falcon_has_27_qubits() {
        let d = QuantumDevice::falcon27(1);
        assert_eq!(d.len(), 27);
        assert!(!d.is_empty());
    }

    #[test]
    fn shots_are_deterministic_per_seed() {
        let d = QuantumDevice::new(4, 9);
        let a = d.readout(2, 1, 16).unwrap();
        let b = d.readout(2, 1, 16).unwrap();
        assert_eq!(a, b);
        let d2 = QuantumDevice::new(4, 10);
        let c = d2.readout(2, 1, 16).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn blobs_cluster_near_true_centers() {
        let d = QuantumDevice::new(3, 5);
        for state in [0u8, 1] {
            let shots = d.readout(1, state, 400).unwrap();
            let c = d.true_center(1, state).unwrap();
            let mean_i = shots.iter().map(|s| s.point.i).sum::<f64>() / 400.0;
            let mean_q = shots.iter().map(|s| s.point.q).sum::<f64>() / 400.0;
            let err = IqPoint::new(mean_i, mean_q).dist2(c).sqrt();
            assert!(err < 0.12, "state {state} mean error {err}");
        }
    }

    #[test]
    fn out_of_range_is_reported() {
        let d = QuantumDevice::new(2, 1);
        assert!(matches!(
            d.readout(5, 0, 1),
            Err(QubitError::QubitOutOfRange { qubit: 5, count: 2 })
        ));
        assert!(d.true_center(3, 0).is_err());
    }

    #[test]
    fn readout_window_trades_noise_for_relaxation() {
        // Short windows: noisy blobs. Long windows: heavy relaxation tail.
        // Classified fidelity of prepared |1> peaks at an interior window.
        let d = QuantumDevice::new(1, 77);
        let c0 = d.true_center(0, 0).unwrap();
        let c1 = d.true_center(0, 1).unwrap();
        let fidelity_at = |w: f64| -> f64 {
            let shots = d.readout_windowed(0, 1, 600, w).unwrap();
            let ok = shots
                .iter()
                .filter(|s| s.point.dist2(c1) < s.point.dist2(c0))
                .count();
            ok as f64 / 600.0
        };
        let short = fidelity_at(0.05);
        let mid = fidelity_at(1.0);
        let long = fidelity_at(25.0);
        assert!(mid > short, "integration beats noise: {mid} vs {short}");
        assert!(
            mid > long,
            "relaxation punishes long windows: {mid} vs {long}"
        );
    }

    #[test]
    fn unit_window_matches_nominal_statistics() {
        let d = QuantumDevice::new(2, 9);
        let a = d.readout_windowed(1, 0, 200, 1.0).unwrap();
        let c = d.true_center(1, 0).unwrap();
        let mean_i = a.iter().map(|s| s.point.i).sum::<f64>() / 200.0;
        assert!((mean_i - c.i).abs() < 0.1);
    }

    #[test]
    fn invalid_window_is_rejected() {
        let d = QuantumDevice::new(1, 1);
        assert!(d.readout_windowed(0, 0, 1, 0.0).is_err());
        assert!(d.readout_windowed(0, 0, 1, -1.0).is_err());
    }

    #[test]
    fn measurement_rounds_vary() {
        let d = QuantumDevice::new(8, 3);
        let r1 = d.measurement_round(1);
        let r2 = d.measurement_round(2);
        assert_eq!(r1.len(), 8);
        assert_ne!(
            r1.iter().map(|s| s.prepared).collect::<Vec<_>>(),
            r2.iter().map(|s| s.prepared).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn default_t2_matches_paper() {
        let d = QuantumDevice::falcon27(0);
        assert!((d.t2 - 110e-6).abs() < 1e-9);
    }
}
