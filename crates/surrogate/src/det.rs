//! Bit-deterministic transcendental functions.
//!
//! The surrogate's golden model hash is an FNV-64 digest over the exact bit
//! patterns of the trained weights, checked in CI against a blessed value.
//! `f64::exp`/`ln`/`tanh` route through the platform libm, whose last-bit
//! behaviour varies across libc versions — enough to break a bit-exact
//! hash. These replacements use only IEEE-754 add/mul/div and integer bit
//! manipulation, which are fully specified, so the same inputs produce the
//! same bits on every toolchain. Accuracy (relative error well under 1e-12
//! on the ranges training visits) is far beyond what a learned model needs;
//! determinism is the point.

/// ln 2, split into a high part exact in the top bits and a low correction,
/// so `x - k*LN2_HI` is exact for the |k| range reduction produces.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const LOG2_E: f64 = std::f64::consts::LOG2_E;

/// Scale `x` by `2^k` exactly via exponent-bit construction, in two steps
/// so intermediate factors stay normal.
fn scale2(x: f64, k: i32) -> f64 {
    let step = |e: i32| f64::from_bits(((1023 + e) as u64) << 52);
    if k > 1023 {
        x * step(1023) * step((k - 1023).min(1023))
    } else if k < -1022 {
        x * step(-1022) * step((k + 1022).max(-1022))
    } else {
        x * step(k)
    }
}

/// Deterministic e^x.
#[must_use]
pub fn exp(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > 709.0 {
        return f64::INFINITY;
    }
    if x < -745.0 {
        return 0.0;
    }
    // x = k·ln2 + r with |r| ≤ ln2/2; e^x = 2^k · e^r.
    let k = (x * LOG2_E).round();
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Taylor series for e^r: |r| ≤ 0.347 ⇒ term 14 is below 1e-17·e^r.
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..=14u32 {
        term *= r / f64::from(i);
        sum += term;
    }
    scale2(sum, k as i32)
}

/// Deterministic natural logarithm (x must be positive and finite; other
/// inputs return NaN or infinities matching `f64::ln`'s edge behaviour).
#[must_use]
pub fn ln(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x == f64::INFINITY {
        return f64::INFINITY;
    }
    // Normalize subnormals so the exponent-bit decomposition below works.
    let (x, sub_adj) = if x < 2.2250738585072014e-308 {
        (scale2(x, 64), -64)
    } else {
        (x, 0)
    };
    // x = m·2^e with m ∈ [1, 2); shift to m ∈ [√½, √2) for a small series arg.
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    // ln m via the atanh series: t = (m-1)/(m+1), ln m = 2·Σ t^(2i+1)/(2i+1).
    // |t| ≤ 0.1716 ⇒ t^19 term is below 1e-16.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut sum = 0.0;
    let mut pow = t;
    for i in 0..=9u32 {
        sum += pow / f64::from(2 * i + 1);
        pow *= t2;
    }
    let e = f64::from(e + sub_adj);
    2.0 * sum + e * LN2_HI + e * LN2_LO
}

/// Deterministic hyperbolic tangent.
#[must_use]
pub fn tanh(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > 20.0 {
        return 1.0;
    }
    if x < -20.0 {
        return -1.0;
    }
    if x.abs() < 1e-9 {
        // Below the series' resolution; tanh x = x - x³/3 + … ≈ x exactly.
        return x;
    }
    let e2x = exp(2.0 * x);
    (e2x - 1.0) / (e2x + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-300)
    }

    #[test]
    fn exp_matches_libm_closely() {
        for &x in &[
            -700.0, -20.5, -1.0, -1e-12, 0.0, 1e-12, 0.5, 1.0, 3.7, 42.0, 700.0,
        ] {
            assert!(
                close(exp(x), x.exp(), 1e-12),
                "exp({x}): {} vs {}",
                exp(x),
                x.exp()
            );
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(800.0), f64::INFINITY);
        assert_eq!(exp(-800.0), 0.0);
    }

    #[test]
    fn ln_matches_libm_closely() {
        for &x in &[
            1e-300,
            1e-15,
            0.1,
            0.5,
            1.0,
            std::f64::consts::E,
            10.0,
            1e12,
            1e300,
        ] {
            assert!(
                close(ln(x), x.ln(), 1e-12),
                "ln({x}): {} vs {}",
                ln(x),
                x.ln()
            );
        }
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
        // Subnormal inputs go through the rescale path.
        let sub = f64::from_bits(1u64 << 20);
        assert!(close(ln(sub), sub.ln(), 1e-12));
    }

    #[test]
    fn ln_exp_round_trip() {
        for &x in &[-50.0, -2.0, -0.1, 0.0, 0.1, 2.0, 50.0] {
            assert!(close(ln(exp(x)), x, 1e-12) || x == 0.0 && ln(exp(x)).abs() < 1e-15);
        }
    }

    #[test]
    fn tanh_matches_libm_closely_and_saturates() {
        for &x in &[-19.0, -2.0, -0.5, -1e-10, 0.0, 1e-10, 0.5, 2.0, 19.0] {
            assert!(close(tanh(x), x.tanh(), 1e-11), "tanh({x})");
        }
        assert_eq!(tanh(25.0), 1.0);
        assert_eq!(tanh(-25.0), -1.0);
        assert!(tanh(0.3) < 1.0 && tanh(0.3) > 0.0);
    }
}
