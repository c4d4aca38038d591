//! Figure-of-merit extraction from I–V sweeps.
//!
//! The calibration flow and the Fig. 3 reproduction both work on transfer
//! curves (`Ids` vs `Vgs` at fixed `Vds`). This module defines the curve and
//! dataset containers plus the standard extraction recipes: constant-current
//! threshold voltage, subthreshold swing, and on/off currents.

use serde::{Deserialize, Serialize};

use crate::model::FinFet;
use crate::params::Polarity;
use crate::{DeviceError, Result};

/// One transfer characteristic: `Ids(Vgs)` at fixed `Vds` and temperature.
///
/// Voltages are stored polarity-normalised (always positive magnitudes) so
/// that n- and p-type curves share the extraction code; currents are stored
/// as magnitudes in amperes per device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvCurve {
    /// Drain-source bias magnitude in volts.
    pub vds: f64,
    /// Temperature in kelvin.
    pub temp: f64,
    /// `(|Vgs|, |Ids|)` samples, strictly increasing in `Vgs`.
    pub points: Vec<(f64, f64)>,
}

impl IvCurve {
    /// Sweep a [`FinFet`] model into a curve matching this crate's
    /// measurement conventions.
    #[must_use]
    pub fn sweep(dev: &FinFet, vds_mag: f64, vgs_stop: f64, steps: usize) -> Self {
        let s = dev.card().polarity.sign();
        let points = (0..=steps)
            .map(|i| {
                let vgs = vgs_stop * i as f64 / steps as f64;
                let ids = dev.ids(s * vgs, s * vds_mag).abs();
                (vgs, ids)
            })
            .collect();
        Self {
            vds: vds_mag,
            temp: dev.temp(),
            points,
        }
    }

    /// Interpolate `|Ids|` at an arbitrary `|Vgs|` (linear in log-current
    /// where possible, linear otherwise).
    #[must_use]
    pub fn current_at(&self, vgs: f64) -> f64 {
        let pts = &self.points;
        if pts.is_empty() {
            return 0.0;
        }
        if vgs <= pts[0].0 {
            return pts[0].1;
        }
        if vgs >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        let idx = pts.partition_point(|p| p.0 < vgs);
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        let t = (vgs - x0) / (x1 - x0);
        if y0 > 0.0 && y1 > 0.0 {
            (y0.ln() * (1.0 - t) + y1.ln() * t).exp()
        } else {
            y0 * (1.0 - t) + y1 * t
        }
    }

    /// Gate voltage at which the current magnitude crosses `icrit`
    /// (constant-current Vth method). Returns `None` if the curve never
    /// reaches `icrit`.
    #[must_use]
    pub fn vgs_at_current(&self, icrit: f64) -> Option<f64> {
        let pts = &self.points;
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if y0 <= icrit && y1 >= icrit && y1 > y0 {
                if y0 > 0.0 {
                    let t = (icrit.ln() - y0.ln()) / (y1.ln() - y0.ln());
                    return Some(x0 + t * (x1 - x0));
                }
                let t = (icrit - y0) / (y1 - y0);
                return Some(x0 + t * (x1 - x0));
            }
        }
        None
    }

    /// Minimum subthreshold swing in mV/decade over the current window
    /// `[i_lo, i_hi]`. Returns `None` if fewer than two samples fall in the
    /// window.
    #[must_use]
    pub fn subthreshold_swing(&self, i_lo: f64, i_hi: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if y0 >= i_lo && y1 <= i_hi && y1 > y0 * 1.0001 && y0 > 0.0 {
                let ss = (x1 - x0) / (y1.log10() - y0.log10()) * 1000.0;
                best = Some(best.map_or(ss, |b: f64| b.min(ss)));
            }
        }
        best
    }

    /// Maximum gate voltage of the sweep.
    #[must_use]
    pub fn vgs_max(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.0)
    }
}

/// A set of transfer curves for one device flavour, as produced by a
/// measurement campaign or a model sweep: typically linear (`Vds` = 50 mV)
/// and saturation (`Vds` = 750 mV) curves at each temperature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvDataset {
    /// Device polarity the curves belong to.
    pub polarity: Polarity,
    /// The curves, in no particular order.
    pub curves: Vec<IvCurve>,
}

impl IvDataset {
    /// Create an empty dataset for `polarity`.
    #[must_use]
    pub fn new(polarity: Polarity) -> Self {
        Self {
            polarity,
            curves: Vec::new(),
        }
    }

    /// Find the curve closest to the requested `(temp, vds)` condition.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MissingSweep`] when the dataset holds no curve
    /// within 1 K and 10 mV of the request.
    pub fn curve(&self, temp: f64, vds: f64) -> Result<&IvCurve> {
        self.curves
            .iter()
            .find(|c| (c.temp - temp).abs() < 1.0 && (c.vds - vds).abs() < 0.01)
            .ok_or(DeviceError::MissingSweep {
                what: "no curve near requested (temp, vds) condition",
            })
    }

    /// All distinct temperatures present, sorted ascending.
    #[must_use]
    pub fn temperatures(&self) -> Vec<f64> {
        let mut ts: Vec<f64> = self.curves.iter().map(|c| c.temp).collect();
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ts.dedup_by(|a, b| (*a - *b).abs() < 0.5);
        ts
    }
}

/// Model-card scalars evaluated directly at one `(VDD, T)` operating
/// corner — the device-layer feature vector the library surrogate trains
/// on. Unlike [`DeviceMetrics`] these come straight from the compact model
/// (no sweep, no extraction), so building them is microseconds and they are
/// available for corners no SPICE run has ever visited.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CornerScalars {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Temperature, kelvin.
    pub temp: f64,
    /// n-FinFET temperature-adjusted threshold voltage, volts.
    pub vth_n: f64,
    /// p-FinFET temperature-adjusted threshold voltage (magnitude), volts.
    pub vth_p: f64,
    /// n-FinFET subthreshold ideality factor at `|Vds| = VDD`.
    pub nfactor_n: f64,
    /// p-FinFET subthreshold ideality factor at `|Vds| = VDD`.
    pub nfactor_p: f64,
    /// n-FinFET on-current magnitude per fin at `Vgs = Vds = VDD`, amperes.
    pub ion_n: f64,
    /// p-FinFET on-current magnitude per fin, amperes.
    pub ion_p: f64,
    /// n-FinFET off-current magnitude per fin at `Vgs = 0, Vds = VDD`, amperes.
    pub ioff_n: f64,
    /// p-FinFET off-current magnitude per fin, amperes.
    pub ioff_p: f64,
}

impl CornerScalars {
    /// Evaluate both polarities of a card pair at `(vdd, temp)`.
    #[must_use]
    pub fn at(
        nfet: &crate::params::ModelCard,
        pfet: &crate::params::ModelCard,
        vdd: f64,
        temp: f64,
    ) -> Self {
        let n = FinFet::new(nfet, temp, 1);
        let p = FinFet::new(pfet, temp, 1);
        CornerScalars {
            vdd,
            temp,
            vth_n: n.vth(),
            vth_p: p.vth(),
            nfactor_n: n.nfactor(vdd),
            nfactor_p: p.nfactor(vdd),
            ion_n: n.ids(vdd, vdd).abs(),
            ion_p: p.ids(-vdd, -vdd).abs(),
            ioff_n: n.ids(0.0, vdd).abs(),
            ioff_p: p.ids(0.0, -vdd).abs(),
        }
    }
}

/// Classic device figures of merit extracted from a linear + saturation curve
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceMetrics {
    /// Constant-current threshold voltage magnitude, volts.
    pub vth: f64,
    /// Minimum subthreshold swing, mV/decade.
    pub ss_mv_dec: f64,
    /// On-current magnitude at `Vgs = Vds = Vdd`, amperes.
    pub ion: f64,
    /// Off-current magnitude at `Vgs = 0, Vds = Vdd`, amperes.
    pub ioff: f64,
}

impl DeviceMetrics {
    /// Extract metrics from a saturation-region transfer curve.
    ///
    /// `icrit` is the constant-current threshold criterion in amperes (per
    /// device, i.e. already scaled by fin count).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MissingSweep`] when the curve never crosses
    /// `icrit` or has no usable subthreshold region.
    pub fn extract(sat_curve: &IvCurve, icrit: f64) -> Result<Self> {
        let vth = sat_curve
            .vgs_at_current(icrit)
            .ok_or(DeviceError::MissingSweep {
                what: "curve never crosses the constant-current Vth criterion",
            })?;
        let ioff = sat_curve.current_at(0.0);
        let ss = sat_curve
            .subthreshold_swing(ioff.max(1e-14) * 3.0, icrit)
            .ok_or(DeviceError::MissingSweep {
                what: "no resolvable subthreshold region",
            })?;
        let ion = sat_curve.current_at(sat_curve.vgs_max());
        Ok(Self {
            vth,
            ss_mv_dec: ss,
            ion,
            ioff,
        })
    }

    /// Ion/Ioff ratio (dimensionless).
    #[must_use]
    pub fn on_off_ratio(&self) -> f64 {
        if self.ioff > 0.0 {
            self.ion / self.ioff
        } else {
            f64::INFINITY
        }
    }
}

/// RMS error between model and reference currents, in decades of current.
///
/// The metric matches how device modellers judge transfer-curve fits: equal
/// weight per decade, evaluated on the reference bias points. Points below
/// `floor` amperes in both curves are skipped (instrument noise).
#[must_use]
pub fn log_current_rms(reference: &IvCurve, model: &IvCurve, floor: f64) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &(vgs, i_ref) in &reference.points {
        let i_mod = model.current_at(vgs);
        if i_ref < floor && i_mod < floor {
            continue;
        }
        let d = (i_ref.max(floor)).log10() - (i_mod.max(floor)).log10();
        sum += d * d;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelCard;

    fn sat_curve(temp: f64) -> IvCurve {
        let dev = FinFet::new(&ModelCard::nominal(Polarity::N), temp, 1);
        IvCurve::sweep(&dev, 0.75, 0.75, 150)
    }

    #[test]
    fn sweep_produces_monotone_curve() {
        let c = sat_curve(300.0);
        assert_eq!(c.points.len(), 151);
        for w in c.points.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn interpolation_is_exact_on_samples() {
        let c = sat_curve(300.0);
        for &(v, i) in c.points.iter().step_by(17) {
            assert!((c.current_at(v) - i).abs() <= 1e-12 * i.max(1e-18));
        }
    }

    #[test]
    fn vth_extraction_matches_model() {
        let c = sat_curve(300.0);
        let m = DeviceMetrics::extract(&c, 300e-9).unwrap();
        // Constant-current Vth lands near (but not exactly on) the model
        // card VTH0 minus the DIBL shift.
        assert!(m.vth > 0.05 && m.vth < 0.30, "vth = {}", m.vth);
    }

    #[test]
    fn cryo_metrics_shift_as_the_paper_reports() {
        let c300 = sat_curve(300.0);
        let c10 = sat_curve(10.0);
        let m300 = DeviceMetrics::extract(&c300, 300e-9).unwrap();
        let m10 = DeviceMetrics::extract(&c10, 300e-9).unwrap();
        assert!(m10.vth > m300.vth * 1.2, "Vth increases when cold");
        assert!(
            m10.ss_mv_dec < m300.ss_mv_dec * 0.4,
            "SS tightens: {} -> {}",
            m300.ss_mv_dec,
            m10.ss_mv_dec
        );
        assert!(m10.ioff < m300.ioff * 1e-2, "leakage collapses");
        assert!(m10.on_off_ratio() > m300.on_off_ratio() * 10.0);
    }

    #[test]
    fn dataset_lookup() {
        let mut ds = IvDataset::new(Polarity::N);
        ds.curves.push(sat_curve(300.0));
        ds.curves.push(sat_curve(10.0));
        assert!(ds.curve(300.0, 0.75).is_ok());
        assert!(ds.curve(77.0, 0.75).is_err());
        assert_eq!(ds.temperatures(), vec![10.0, 300.0]);
    }

    #[test]
    fn log_rms_zero_for_identical_curves() {
        let c = sat_curve(300.0);
        assert!(log_current_rms(&c, &c, 1e-14) < 1e-12);
    }

    #[test]
    fn log_rms_counts_decades() {
        let c = sat_curve(300.0);
        let mut off = c.clone();
        for p in &mut off.points {
            p.1 *= 10.0;
        }
        let rms = log_current_rms(&c, &off, 1e-14);
        assert!((rms - 1.0).abs() < 0.05, "one decade of error, got {rms}");
    }

    #[test]
    fn subthreshold_swing_of_ideal_exponential() {
        // Ids = 1e-9 * 10^(vgs/0.060) -> SS = 60 mV/dec exactly.
        let points: Vec<(f64, f64)> = (0..=100)
            .map(|i| {
                let v = i as f64 * 0.003;
                (v, 1e-9 * 10f64.powf(v / 0.060))
            })
            .collect();
        let c = IvCurve {
            vds: 0.05,
            temp: 300.0,
            points,
        };
        let ss = c.subthreshold_swing(2e-9, 1e-7).unwrap();
        assert!((ss - 60.0).abs() < 0.5, "ss = {ss}");
    }
}
