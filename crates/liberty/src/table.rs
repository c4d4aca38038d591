//! Two-dimensional NLDM lookup tables.

use serde::{Deserialize, Serialize};

use crate::{LibertyError, Result};

/// A 2-D non-linear delay model table.
///
/// ```
/// use cryo_liberty::Lut2;
///
/// let lut = Lut2::new(
///     vec![1e-12, 10e-12],          // input slew axis
///     vec![1e-15, 10e-15],          // output load axis
///     vec![2e-12, 5e-12, 3e-12, 8e-12],
/// )?;
/// // Bilinear interpolation inside the grid:
/// let d = lut.lookup(5.5e-12, 5.5e-15);
/// assert!(d > 2e-12 && d < 8e-12);
/// # Ok::<(), cryo_liberty::LibertyError>(())
/// ```
///
/// `index1` is the input transition time (seconds) and `index2` the output
/// load capacitance (farads), matching Liberty's
/// `(input_net_transition, total_output_net_capacitance)` template. Lookups
/// interpolate bilinearly inside the grid and extrapolate linearly outside
/// it, which is how signoff STA tools treat out-of-grid slews and loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lut2 {
    index1: Vec<f64>,
    index2: Vec<f64>,
    /// Row-major: `values[i1 * index2.len() + i2]`.
    values: Vec<f64>,
}

impl Lut2 {
    /// Build a table.
    ///
    /// # Errors
    ///
    /// [`LibertyError::MalformedTable`] if either axis is empty or unsorted,
    /// or the value count differs from `index1.len() * index2.len()`.
    pub fn new(index1: Vec<f64>, index2: Vec<f64>, values: Vec<f64>) -> Result<Self> {
        if index1.is_empty() || index2.is_empty() {
            return Err(LibertyError::MalformedTable {
                reason: "empty axis".to_string(),
            });
        }
        for axis in [&index1, &index2] {
            if axis.windows(2).any(|w| w[1] <= w[0]) {
                return Err(LibertyError::MalformedTable {
                    reason: "axis not strictly increasing".to_string(),
                });
            }
        }
        if values.len() != index1.len() * index2.len() {
            return Err(LibertyError::MalformedTable {
                reason: format!(
                    "expected {} values, got {}",
                    index1.len() * index2.len(),
                    values.len()
                ),
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(LibertyError::MalformedTable {
                reason: "non-finite table value".to_string(),
            });
        }
        Ok(Self {
            index1,
            index2,
            values,
        })
    }

    /// A degenerate 1×1 table holding a single value (used for arcs measured
    /// at one condition, e.g. SRAM macro interfaces).
    #[must_use]
    pub fn constant(value: f64) -> Self {
        Self {
            index1: vec![0.0],
            index2: vec![0.0],
            values: vec![value],
        }
    }

    /// Input-slew axis, seconds.
    #[must_use]
    pub fn index1(&self) -> &[f64] {
        &self.index1
    }

    /// Output-load axis, farads.
    #[must_use]
    pub fn index2(&self) -> &[f64] {
        &self.index2
    }

    /// Raw values, row-major over `(index1, index2)`.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Bilinear lookup at `(slew, load)` with linear extrapolation outside
    /// the characterized grid: [`Lut2::interpolate`] at [`Lut2::locate`].
    #[inline]
    #[must_use]
    pub fn lookup(&self, slew: f64, load: f64) -> f64 {
        self.interpolate(self.locate(slew, load))
    }

    /// Locate `(slew, load)` on this table's axes: the bracketing segment
    /// and fractional position on each. Fractions outside `[0, 1]` produce
    /// linear extrapolation.
    #[inline]
    #[must_use]
    pub fn locate(&self, slew: f64, load: f64) -> Located {
        let (i, fi) = locate_on(&self.index1, slew);
        let (j, fj) = locate_on(&self.index2, load);
        Located { i, fi, j, fj }
    }

    /// Interpolate at a point located on this table or on any table with
    /// the same axes ([`Lut2::same_axes`]): one [`Lut2::locate`] then
    /// serves several tables, each bit for bit as its own
    /// [`Lut2::lookup`].
    ///
    /// # Panics
    ///
    /// May panic on a point located on a table with more grid points.
    #[inline]
    #[must_use]
    pub fn interpolate(&self, at: Located) -> f64 {
        let Located { i, fi, j, fj } = at;
        let n2 = self.index2.len();
        let at = |a: usize, b: usize| self.values[a * n2 + b];
        if self.index1.len() == 1 && n2 == 1 {
            return self.values[0];
        }
        if self.index1.len() == 1 {
            return at(0, j) * (1.0 - fj) + at(0, j + 1) * fj;
        }
        if n2 == 1 {
            return at(i, 0) * (1.0 - fi) + at(i + 1, 0) * fi;
        }
        let v00 = at(i, j);
        let v01 = at(i, j + 1);
        let v10 = at(i + 1, j);
        let v11 = at(i + 1, j + 1);
        v00 * (1.0 - fi) * (1.0 - fj)
            + v01 * (1.0 - fi) * fj
            + v10 * fi * (1.0 - fj)
            + v11 * fi * fj
    }

    /// Whether `other` has exactly this table's axes, bit for bit, so a
    /// point located on one interpolates the other exactly.
    #[must_use]
    pub fn same_axes(&self, other: &Lut2) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        same(&self.index1, &other.index1) && same(&self.index2, &other.index2)
    }

    /// Mean of all table values (used for library-level statistics).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Maximum table value.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Scale every value by `factor`, returning a new table (used for
    /// derating studies).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            index1: self.index1.clone(),
            index2: self.index2.clone(),
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }
}

/// A lookup point located on a table's axes by [`Lut2::locate`].
#[derive(Debug, Clone, Copy)]
pub struct Located {
    i: usize,
    fi: f64,
    j: usize,
    fj: f64,
}

/// Find the bracketing segment and fractional position of `x` on `axis`.
#[inline]
fn locate_on(axis: &[f64], x: f64) -> (usize, f64) {
    if axis.len() == 1 {
        return (0, 0.0);
    }
    let mut i = axis.partition_point(|&a| a < x);
    i = i.clamp(1, axis.len() - 1);
    let (a, b) = (axis[i - 1], axis[i]);
    ((i - 1), (x - a) / (b - a))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn table() -> Lut2 {
        // delay = 1e-12 + 2e-12 * slew_norm + 3e-12 * load_norm (separable),
        // sampled on a 3×3 grid.
        let s = [1e-12, 2e-12, 3e-12];
        let l = [1e-15, 2e-15, 3e-15];
        let mut vals = Vec::new();
        for si in s {
            for li in l {
                vals.push(1e-12 + 2.0 * si + 3e3 * li);
            }
        }
        Lut2::new(s.to_vec(), l.to_vec(), vals).unwrap()
    }

    #[test]
    fn exact_on_grid_points() {
        let t = table();
        assert!((t.lookup(2e-12, 2e-15) - (1e-12 + 4e-12 + 6e-12)).abs() < 1e-24);
    }

    #[test]
    fn bilinear_between_points() {
        let t = table();
        // Linear function is reproduced exactly by bilinear interpolation.
        let v = t.lookup(1.5e-12, 2.5e-15);
        let expect = 1e-12 + 2.0 * 1.5e-12 + 3e3 * 2.5e-15;
        assert!((v - expect).abs() < 1e-24);
    }

    #[test]
    fn linear_extrapolation_outside_grid() {
        let t = table();
        let v = t.lookup(5e-12, 6e-15);
        let expect = 1e-12 + 2.0 * 5e-12 + 3e3 * 6e-15;
        assert!((v - expect).abs() < 1e-24);
        let v_low = t.lookup(0.0, 0.0);
        assert!((v_low - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn constant_table() {
        let t = Lut2::constant(7e-12);
        assert_eq!(t.lookup(1e-9, 1e-12), 7e-12);
        assert_eq!(t.mean(), 7e-12);
        assert_eq!(t.max(), 7e-12);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Lut2::new(vec![], vec![1.0], vec![]).is_err());
        assert!(Lut2::new(vec![1.0, 1.0], vec![1.0], vec![0.0, 0.0]).is_err());
        assert!(Lut2::new(vec![1.0, 2.0], vec![1.0], vec![0.0]).is_err());
        assert!(Lut2::new(vec![1.0], vec![1.0], vec![f64::NAN]).is_err());
    }

    #[test]
    fn scaling() {
        let t = table().scaled(2.0);
        assert!((t.lookup(2e-12, 2e-15) - 2.0 * (1e-12 + 4e-12 + 6e-12)).abs() < 1e-24);
    }

    /// An axis from its first point and the positive steps after it.
    fn axis(start: f64, steps: &[f64]) -> Vec<f64> {
        let mut x = start;
        let mut out = vec![x];
        for s in steps {
            x += s;
            out.push(x);
        }
        out
    }

    proptest! {
        #[test]
        fn one_locate_serves_every_table_on_the_same_axes(
            (s0, l0) in (0.0f64..1e-11, 0.0f64..1e-14),
            s_steps in prop::collection::vec(1e-13f64..1e-11, 0..7),
            l_steps in prop::collection::vec(1e-16f64..1e-14, 0..7),
            (va, vb) in (
                prop::collection::vec(-1e-9f64..1e-9, 49),
                prop::collection::vec(-1e-9f64..1e-9, 49),
            ),
            (slew, load) in (-1e-10f64..2e-10, -1e-13f64..2e-13),
            (pick, k) in (0usize..2, 0usize..7),
        ) {
            let (i1, i2) = (axis(s0, &s_steps), axis(l0, &l_steps));
            let n = i1.len() * i2.len();
            let a = Lut2::new(i1.clone(), i2.clone(), va[..n].to_vec()).unwrap();
            let b = Lut2::new(i1.clone(), i2.clone(), vb[..n].to_vec()).unwrap();
            prop_assert!(a.same_axes(&b));
            let at = a.locate(slew, load);
            prop_assert_eq!(b.interpolate(at).to_bits(), b.lookup(slew, load).to_bits());
            prop_assert_eq!(a.interpolate(at).to_bits(), a.lookup(slew, load).to_bits());

            // Move one axis value up by one ulp: still a valid table, no
            // longer the same axes.
            let (mut j1, mut j2) = (i1, i2);
            let moved = if pick == 0 { &mut j1 } else { &mut j2 };
            let k = k % moved.len();
            moved[k] = moved[k].next_up();
            let c = Lut2::new(j1, j2, vb[..n].to_vec()).unwrap();
            prop_assert!(!a.same_axes(&c) && !c.same_axes(&a));
        }
    }

    #[test]
    fn axes_of_another_length_differ() {
        let t = table();
        let short = Lut2::new(vec![1e-12, 2e-12], vec![1e-15, 2e-15, 3e-15], vec![0.0; 6]).unwrap();
        assert!(!t.same_axes(&short) && !short.same_axes(&t));
        assert!(t.same_axes(&t.scaled(3.0)));
        assert!(!Lut2::constant(1.0).same_axes(&t));
    }

    #[test]
    fn serde_round_trip() {
        let t = table();
        let json = serde_json::to_string(&t).unwrap();
        let back: Lut2 = serde_json::from_str(&json).unwrap();
        assert_eq!(t.index1(), back.index1());
        assert_eq!(t.index2(), back.index2());
        for (a, b) in t.values().iter().zip(back.values()) {
            assert!(
                (a - b).abs() <= 1e-15 * a.abs().max(1e-30),
                "{a:e} vs {b:e}"
            );
        }
    }
}
