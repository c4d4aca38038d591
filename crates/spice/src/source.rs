//! Independent source waveform descriptions.

/// Waveform of an independent voltage source.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Constant value, volts.
    Dc(f64),
    /// SPICE-style pulse.
    Pulse {
        /// Initial level, volts.
        v0: f64,
        /// Pulsed level, volts.
        v1: f64,
        /// Delay before the first edge, seconds.
        delay: f64,
        /// Rise time (0 → 1 transition), seconds.
        rise: f64,
        /// Fall time (1 → 0 transition), seconds.
        fall: f64,
        /// Pulse width at `v1`, seconds.
        width: f64,
        /// Repetition period; `f64::INFINITY` for a single pulse.
        period: f64,
    },
    /// Piecewise-linear waveform: `(time, value)` points sorted by time.
    Pwl(Vec<(f64, f64)>),
}

impl Source {
    /// Constant source.
    #[must_use]
    pub fn dc(value: f64) -> Self {
        Source::Dc(value)
    }

    /// A single rising or falling ramp from `v_from` to `v_to`, starting at
    /// `t0` and lasting `slew_time` seconds — the canonical characterization
    /// stimulus.
    #[must_use]
    pub fn ramp(v_from: f64, v_to: f64, t0: f64, slew_time: f64) -> Self {
        Source::Pwl(vec![(0.0, v_from), (t0, v_from), (t0 + slew_time, v_to)])
    }

    /// Evaluate the source at time `t` (seconds).
    #[must_use]
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Source::Dc(v) => *v,
            Source::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v0;
                }
                let tp = if period.is_finite() && *period > 0.0 {
                    (t - delay) % period
                } else {
                    t - delay
                };
                if tp < *rise {
                    v0 + (v1 - v0) * tp / rise.max(1e-18)
                } else if tp < rise + width {
                    *v1
                } else if tp < rise + width + fall {
                    v1 + (v0 - v1) * (tp - rise - width) / fall.max(1e-18)
                } else {
                    *v0
                }
            }
            Source::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let idx = points.partition_point(|p| p.0 < t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                v0 + (v1 - v0) * (t - t0) / (t1 - t0).max(1e-18)
            }
        }
    }

    /// Value at `t = 0`, used as the DC operating-point level.
    #[must_use]
    pub fn initial(&self) -> f64 {
        self.value(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_flat() {
        let s = Source::dc(0.7);
        assert_eq!(s.value(0.0), 0.7);
        assert_eq!(s.value(1.0), 0.7);
    }

    #[test]
    fn ramp_interpolates() {
        let s = Source::ramp(0.0, 0.7, 1e-9, 2e-9);
        assert_eq!(s.value(0.0), 0.0);
        assert_eq!(s.value(1e-9), 0.0);
        assert!((s.value(2e-9) - 0.35).abs() < 1e-12);
        assert_eq!(s.value(4e-9), 0.7);
    }

    #[test]
    fn pulse_shape() {
        let s = Source::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1.0,
            rise: 0.5,
            fall: 0.5,
            width: 2.0,
            period: f64::INFINITY,
        };
        assert_eq!(s.value(0.5), 0.0);
        assert!((s.value(1.25) - 0.5).abs() < 1e-12);
        assert_eq!(s.value(2.0), 1.0);
        assert!((s.value(3.75) - 0.5).abs() < 1e-12);
        assert_eq!(s.value(5.0), 0.0);
    }

    #[test]
    fn pulse_repeats_with_period() {
        let s = Source::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 0.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.4,
            period: 1.0,
        };
        assert!((s.value(0.25) - s.value(1.25)).abs() < 1e-12);
        assert!((s.value(0.75) - s.value(2.75)).abs() < 1e-12);
    }

    #[test]
    fn pwl_clamps_outside_range() {
        let s = Source::Pwl(vec![(1.0, 2.0), (2.0, 4.0)]);
        assert_eq!(s.value(0.0), 2.0);
        assert_eq!(s.value(3.0), 4.0);
        assert!((s.value(1.5) - 3.0).abs() < 1e-12);
    }
}
