//! Daily piecewise-constant speed profiles.

use pwl::time::MINUTES_PER_DAY;
use pwl::{Interval, MonotonePwl, Pwl};

use crate::{Result, TrafficError};

/// One piece of a daily speed profile: constant speed from `start`
/// (minutes since midnight) until the next piece begins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePiece {
    /// Start of the piece, minutes since midnight, in `[0, 1440)`.
    pub start: f64,
    /// Speed in miles per minute; finite and strictly positive.
    pub speed: f64,
}

/// A daily speed profile: piecewise-constant speed over the 24-hour
/// day, extended periodically for trips that cross midnight.
///
/// Invariants: the first piece starts at minute `0`, starts are
/// strictly increasing and below `1440`, and all speeds are finite and
/// positive. The paper's example "workday: \[0:00–7:00\): 1 mpm,
/// \[7:00–9:00\): 1/2 mpm, \[9:00–24:00\): 1 mpm" is three pieces.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedProfile {
    pieces: Vec<ProfilePiece>,
}

impl SpeedProfile {
    /// Build from pieces, validating the invariants.
    pub fn new(pieces: Vec<ProfilePiece>) -> Result<Self> {
        if pieces.is_empty() {
            return Err(TrafficError::BadPieces("no pieces".into()));
        }
        if pieces[0].start != 0.0 {
            return Err(TrafficError::BadPieces(format!(
                "first piece must start at minute 0, got {}",
                pieces[0].start
            )));
        }
        for w in pieces.windows(2) {
            if w[1].start <= w[0].start {
                return Err(TrafficError::BadPieces(format!(
                    "piece starts not increasing: {} then {}",
                    w[0].start, w[1].start
                )));
            }
        }
        let last = pieces[pieces.len() - 1].start;
        if last >= MINUTES_PER_DAY {
            return Err(TrafficError::BadPieces(format!(
                "piece start {last} beyond the 24-hour day"
            )));
        }
        for p in &pieces {
            if !p.speed.is_finite() || p.speed <= 0.0 {
                return Err(TrafficError::BadSpeed(p.speed));
            }
            if !p.start.is_finite() {
                return Err(TrafficError::BadPieces(format!(
                    "non-finite start {}",
                    p.start
                )));
            }
        }
        Ok(SpeedProfile { pieces })
    }

    /// A constant-speed profile (`speed` in miles per minute).
    pub fn constant(speed: f64) -> Result<Self> {
        Self::new(vec![ProfilePiece { start: 0.0, speed }])
    }

    /// Convenience constructor from `(start_minute, speed_mpm)` pairs.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Result<Self> {
        Self::new(
            pairs
                .iter()
                .map(|&(start, speed)| ProfilePiece { start, speed })
                .collect(),
        )
    }

    /// A profile with `base` speed everywhere except `[from, to)` where
    /// the speed is `reduced` — the common "rush-hour window" shape of
    /// Table 1. `from < to` must both lie within the day.
    pub fn with_rush_window(base: f64, reduced: f64, from: f64, to: f64) -> Result<Self> {
        if !(0.0..MINUTES_PER_DAY).contains(&from) || to <= from || to > MINUTES_PER_DAY {
            return Err(TrafficError::BadPieces(format!(
                "bad rush window [{from}, {to})"
            )));
        }
        let mut pieces = Vec::with_capacity(3);
        if from > 0.0 {
            pieces.push(ProfilePiece {
                start: 0.0,
                speed: base,
            });
            pieces.push(ProfilePiece {
                start: from,
                speed: reduced,
            });
        } else {
            pieces.push(ProfilePiece {
                start: 0.0,
                speed: reduced,
            });
        }
        if to < MINUTES_PER_DAY {
            pieces.push(ProfilePiece {
                start: to,
                speed: base,
            });
        }
        Self::new(pieces)
    }

    /// The pieces, in order of start time.
    pub fn pieces(&self) -> &[ProfilePiece] {
        &self.pieces
    }

    /// Speed (miles per minute) at time `t` (any finite minutes value;
    /// the profile repeats every 24 hours).
    pub fn speed_at(&self, t: f64) -> f64 {
        let tod = t.rem_euclid(MINUTES_PER_DAY);
        let idx = self.pieces.partition_point(|p| p.start <= tod);
        self.pieces[idx.saturating_sub(1)].speed
    }

    /// Maximum speed over the day.
    pub fn max_speed(&self) -> f64 {
        self.pieces
            .iter()
            .map(|p| p.speed)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum speed over the day.
    pub fn min_speed(&self) -> f64 {
        self.pieces
            .iter()
            .map(|p| p.speed)
            .fold(f64::INFINITY, f64::min)
    }

    /// The profile with time running backwards: speed at time `t`
    /// becomes the original speed at `1440 − t` (reflection around
    /// midnight, compatible with the periodic extension).
    ///
    /// This powers the arrival-interval query reduction: traversing an
    /// edge *backwards in time* from its head sees exactly the
    /// mirrored profile.
    // The mirror keeps every speed, starts at 0, and reverses strictly
    // increasing starts inside the day into strictly increasing ones.
    #[allow(clippy::expect_used)]
    pub fn time_mirrored(&self) -> SpeedProfile {
        // A piece [s, e) at speed v maps to [1440−e, 1440−s) at v.
        // The piece that contains midnight stays anchored at 0.
        let mut pieces: Vec<ProfilePiece> = Vec::with_capacity(self.pieces.len());
        for (i, p) in self.pieces.iter().enumerate().rev() {
            let end = self.pieces.get(i + 1).map_or(MINUTES_PER_DAY, |q| q.start);
            let start = if end >= MINUTES_PER_DAY {
                0.0
            } else {
                MINUTES_PER_DAY - end
            };
            pieces.push(ProfilePiece {
                start,
                speed: p.speed,
            });
        }
        SpeedProfile::new(pieces).expect("mirror of a valid profile is valid")
    }

    /// The first speed-change instant strictly after `t` (periodic
    /// across days). With a single constant piece this is the next
    /// midnight (a change point in form, though not in value).
    pub fn next_change_after(&self, t: f64) -> f64 {
        let day = (t / MINUTES_PER_DAY).floor();
        let base = day * MINUTES_PER_DAY;
        let tod = t - base;
        let idx = self.pieces.partition_point(|p| p.start <= tod);
        let candidate = match self.pieces.get(idx) {
            Some(p) => base + p.start,
            None => base + MINUTES_PER_DAY,
        };
        if candidate > t {
            candidate
        } else {
            // Float rounding: `base + start` reproduced a boundary at or
            // before `t` (tod was computed as `t - base`, which can land
            // an ulp past the piece start). Skip to the following change;
            // real piece gaps dwarf rounding error, so this is strictly
            // ahead of `t`.
            match self.pieces.get(idx + 1) {
                Some(p) => base + p.start,
                None => base + MINUTES_PER_DAY,
            }
        }
    }

    /// All speed-change instants inside the open interval
    /// `(window.lo, window.hi)`, unrolled across day boundaries.
    pub fn breakpoints_within(&self, window: &Interval) -> Vec<f64> {
        let mut out = Vec::new();
        let first_day = (window.lo() / MINUTES_PER_DAY).floor() as i64;
        let last_day = (window.hi() / MINUTES_PER_DAY).ceil() as i64;
        for day in first_day..=last_day {
            let base = (day as f64) * MINUTES_PER_DAY;
            for p in &self.pieces {
                let t = base + p.start;
                if t > window.lo() && t < window.hi() {
                    out.push(t);
                }
            }
        }
        out
    }

    /// The cumulative distance function `D(t) = ∫_{window.lo}^{t} v`
    /// over `window` (miles as a function of minutes) — continuous,
    /// strictly increasing, piecewise linear with one piece per
    /// constant-speed stretch.
    pub fn cumulative_distance(&self, window: &Interval) -> Result<MonotonePwl> {
        let mut xs = vec![window.lo()];
        xs.extend(self.breakpoints_within(window));
        xs.push(window.hi());

        let mut pts = Vec::with_capacity(xs.len());
        let mut dist = 0.0;
        pts.push((xs[0], 0.0));
        for w in xs.windows(2) {
            let v = self.speed_at(0.5 * (w[0] + w[1]));
            dist += v * (w[1] - w[0]);
            pts.push((w[1], dist));
        }
        Ok(MonotonePwl::new(Pwl::from_points(&pts)?)?)
    }
}

impl std::fmt::Display for SpeedProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (i, p) in self.pieces.iter().enumerate() {
            let end = self.pieces.get(i + 1).map_or(MINUTES_PER_DAY, |n| n.start);
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(
                f,
                "[{}-{}): {:.3} mpm",
                pwl::time::fmt_minutes(p.start),
                pwl::time::fmt_minutes(end),
                p.speed
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwl::approx_eq;
    use pwl::time::hm;

    fn workday_example() -> SpeedProfile {
        // Paper §2.1: 1 mpm except [7:00, 9:00) at 1/2 mpm.
        SpeedProfile::with_rush_window(1.0, 0.5, hm(7, 0), hm(9, 0)).unwrap()
    }

    #[test]
    fn validation() {
        assert!(SpeedProfile::new(vec![]).is_err());
        assert!(SpeedProfile::from_pairs(&[(5.0, 1.0)]).is_err()); // must start at 0
        assert!(SpeedProfile::from_pairs(&[(0.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(SpeedProfile::from_pairs(&[(0.0, 0.0)]).is_err()); // zero speed
        assert!(SpeedProfile::from_pairs(&[(0.0, -1.0)]).is_err());
        assert!(SpeedProfile::from_pairs(&[(0.0, 1.0), (1500.0, 2.0)]).is_err());
        assert!(SpeedProfile::from_pairs(&[(0.0, 1.0), (60.0, 2.0)]).is_ok());
    }

    #[test]
    fn rush_window_shapes() {
        let p = workday_example();
        assert_eq!(p.pieces().len(), 3);
        assert_eq!(p.speed_at(hm(6, 59)), 1.0);
        assert_eq!(p.speed_at(hm(7, 0)), 0.5);
        assert_eq!(p.speed_at(hm(8, 59)), 0.5);
        assert_eq!(p.speed_at(hm(9, 0)), 1.0);
        // window starting at midnight
        let q = SpeedProfile::with_rush_window(1.0, 0.5, 0.0, 120.0).unwrap();
        assert_eq!(q.pieces().len(), 2);
        assert_eq!(q.speed_at(30.0), 0.5);
        // window ending at midnight
        let r = SpeedProfile::with_rush_window(1.0, 0.5, 1380.0, MINUTES_PER_DAY).unwrap();
        assert_eq!(r.pieces().len(), 2);
        assert_eq!(r.speed_at(1400.0), 0.5);
        assert_eq!(r.speed_at(10.0), 1.0);
    }

    #[test]
    fn periodic_wrap() {
        let p = workday_example();
        assert_eq!(p.speed_at(hm(7, 30) + MINUTES_PER_DAY), 0.5);
        assert_eq!(p.speed_at(hm(7, 30) + 3.0 * MINUTES_PER_DAY), 0.5);
        assert_eq!(p.speed_at(-MINUTES_PER_DAY + hm(7, 30)), 0.5);
        assert_eq!(p.max_speed(), 1.0);
        assert_eq!(p.min_speed(), 0.5);
    }

    #[test]
    fn breakpoints_unroll_across_days() {
        let p = workday_example();
        let w = Interval::of(hm(6, 0), hm(10, 0));
        let bps = p.breakpoints_within(&w);
        assert_eq!(bps, vec![hm(7, 0), hm(9, 0)]);
        // across midnight into the next day
        let w2 = Interval::of(hm(23, 0), MINUTES_PER_DAY + hm(8, 0));
        let bps2 = p.breakpoints_within(&w2);
        assert_eq!(bps2, vec![MINUTES_PER_DAY, MINUTES_PER_DAY + hm(7, 0)]);
    }

    #[test]
    fn cumulative_distance_integrates() {
        let p = workday_example();
        let d = p
            .cumulative_distance(&Interval::of(hm(6, 0), hm(10, 0)))
            .unwrap();
        // 6:00–7:00 at 1 mpm = 60 mi; 7:00–9:00 at 0.5 = 60 mi; 9:00–10:00 = 60 mi
        assert!(approx_eq(d.eval(hm(6, 0)), 0.0));
        assert!(approx_eq(d.eval(hm(7, 0)), 60.0));
        assert!(approx_eq(d.eval(hm(8, 0)), 90.0));
        assert!(approx_eq(d.eval(hm(9, 0)), 120.0));
        assert!(approx_eq(d.eval(hm(10, 0)), 180.0));
        // inverse answers "when has the object covered x miles?"
        assert!(approx_eq(d.inverse_at(90.0).unwrap(), hm(8, 0)));
    }

    #[test]
    fn cumulative_distance_across_midnight() {
        let p = workday_example();
        let d = p
            .cumulative_distance(&Interval::of(hm(23, 0), MINUTES_PER_DAY + hm(1, 0)))
            .unwrap();
        assert!(approx_eq(d.eval(MINUTES_PER_DAY + hm(1, 0)), 120.0));
    }

    #[test]
    fn time_mirror_reflects_speeds() {
        let p = workday_example();
        let m = p.time_mirrored();
        // speed at t in the mirror equals speed at 1440 − t originally
        // (probing away from piece boundaries, whose half-openness flips)
        for t in [
            0.0,
            hm(6, 59),
            hm(7, 0),
            hm(8, 30),
            hm(9, 0),
            hm(15, 30),
            hm(23, 59),
        ] {
            assert_eq!(
                m.speed_at(t),
                p.speed_at(MINUTES_PER_DAY - t),
                "mismatch at {t}"
            );
        }
        // rush window [7:00, 9:00) maps to (15:00, 17:00]
        assert_eq!(m.speed_at(hm(15, 30)), 0.5);
        assert_eq!(m.speed_at(hm(14, 59)), 1.0);
        assert_eq!(m.speed_at(hm(17, 1)), 1.0);
        // involution
        assert_eq!(m.time_mirrored(), p);
        // constants are fixed points
        let c = SpeedProfile::constant(0.7).unwrap();
        assert_eq!(c.time_mirrored(), c);
    }

    #[test]
    fn display_is_readable() {
        let p = workday_example();
        let s = p.to_string();
        assert!(s.contains("[7:00-9:00): 0.500 mpm"), "{s}");
    }
}
