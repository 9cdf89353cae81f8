//! Road classes and the Table 1 pattern schema.
//!
//! The paper's experiments classify Suffolk County road segments into
//! four classes and assign each a CapeCod pattern ("based on our
//! unofficial driving experience") — reproduced here verbatim:
//!
//! | class | non-workday | workday |
//! |---|---|---|
//! | inbound highways  | 65 MPH | 20 MPH 7am–10am, 65 MPH otherwise |
//! | outbound highways | 65 MPH | 30 MPH 4pm–7pm, 65 MPH otherwise |
//! | local in Boston   | 40 MPH | 20 MPH 7–10am & 4–7pm, 40 MPH otherwise |
//! | local outside     | 40 MPH | 40 MPH |

use pwl::time::{hm, mph_to_mpm};

use crate::{CapeCodPattern, DayCategory, Result, SpeedProfile};

/// The four road classes of the paper's experimental setup (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RoadClass {
    /// Highway segments oriented toward the city core.
    InboundHighway,
    /// Highway segments oriented away from the city core.
    OutboundHighway,
    /// Local roads inside the urban core ("local roads in Boston").
    LocalBoston,
    /// Local roads outside the urban core.
    LocalOutside,
}

impl RoadClass {
    /// All classes, in stable order.
    pub const ALL: [RoadClass; 4] = [
        RoadClass::InboundHighway,
        RoadClass::OutboundHighway,
        RoadClass::LocalBoston,
        RoadClass::LocalOutside,
    ];

    /// Stable index of the class (used for storage encoding).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RoadClass::InboundHighway => 0,
            RoadClass::OutboundHighway => 1,
            RoadClass::LocalBoston => 2,
            RoadClass::LocalOutside => 3,
        }
    }

    /// Inverse of [`RoadClass::index`].
    pub fn from_index(i: usize) -> Option<RoadClass> {
        RoadClass::ALL.get(i).copied()
    }

    /// The posted speed limit in miles per hour (the speed the
    /// "commercial navigation system" baseline assumes at all times).
    pub fn speed_limit_mph(self) -> f64 {
        match self {
            RoadClass::InboundHighway | RoadClass::OutboundHighway => 65.0,
            RoadClass::LocalBoston | RoadClass::LocalOutside => 40.0,
        }
    }
}

impl std::fmt::Display for RoadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RoadClass::InboundHighway => "inbound-highway",
            RoadClass::OutboundHighway => "outbound-highway",
            RoadClass::LocalBoston => "local-boston",
            RoadClass::LocalOutside => "local-outside",
        };
        f.write_str(s)
    }
}

/// A mapping from road class to CapeCod pattern — the network-wide
/// "pattern table". Edges store a [`RoadClass`]; queries resolve the
/// class through the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSchema {
    patterns: [CapeCodPattern; 4],
}

impl PatternSchema {
    /// Build from one pattern per class, in [`RoadClass::ALL`] order.
    pub fn new(patterns: [CapeCodPattern; 4]) -> Self {
        PatternSchema { patterns }
    }

    /// **Table 1** of the paper, exactly. Category 0 is *workday*,
    /// category 1 is *non-workday*.
    pub fn table1() -> Result<Self> {
        let mph = mph_to_mpm;

        // Inbound highways: workday 20 MPH 7–10am, else 65.
        let inbound_wd = SpeedProfile::with_rush_window(mph(65.0), mph(20.0), hm(7, 0), hm(10, 0))?;
        let inbound_nwd = SpeedProfile::constant(mph(65.0))?;

        // Outbound highways: workday 30 MPH 4–7pm, else 65.
        let outbound_wd =
            SpeedProfile::with_rush_window(mph(65.0), mph(30.0), hm(16, 0), hm(19, 0))?;
        let outbound_nwd = SpeedProfile::constant(mph(65.0))?;

        // Local Boston: workday 20 MPH 7–10am and 4–7pm, else 40.
        let local_boston_wd = SpeedProfile::from_pairs(&[
            (0.0, mph(40.0)),
            (hm(7, 0), mph(20.0)),
            (hm(10, 0), mph(40.0)),
            (hm(16, 0), mph(20.0)),
            (hm(19, 0), mph(40.0)),
        ])?;
        let local_boston_nwd = SpeedProfile::constant(mph(40.0))?;

        // Local outside: 40 MPH always.
        let local_outside = SpeedProfile::constant(mph(40.0))?;

        Ok(PatternSchema::new([
            CapeCodPattern::new(vec![inbound_wd, inbound_nwd])?,
            CapeCodPattern::new(vec![outbound_wd, outbound_nwd])?,
            CapeCodPattern::new(vec![local_boston_wd, local_boston_nwd])?,
            CapeCodPattern::new(vec![local_outside.clone(), local_outside])?,
        ]))
    }

    /// Pattern for `class`.
    #[inline]
    pub fn pattern(&self, class: RoadClass) -> &CapeCodPattern {
        &self.patterns[class.index()]
    }

    /// Profile for `class` under `category`.
    pub fn profile(&self, class: RoadClass, category: DayCategory) -> Result<&SpeedProfile> {
        self.pattern(class).profile(category)
    }

    /// Maximum speed anywhere in the schema (the naive estimator's
    /// `v_max`), miles per minute.
    pub fn max_speed(&self) -> f64 {
        self.patterns
            .iter()
            .map(CapeCodPattern::max_speed)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum speed anywhere in the schema, miles per minute.
    pub fn min_speed(&self) -> f64 {
        self.patterns
            .iter()
            .map(CapeCodPattern::min_speed)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwl::approx_eq;

    #[test]
    fn class_round_trip() {
        for c in RoadClass::ALL {
            assert_eq!(RoadClass::from_index(c.index()), Some(c));
        }
        assert_eq!(RoadClass::from_index(4), None);
    }

    #[test]
    fn table1_workday_speeds() {
        let s = PatternSchema::table1().unwrap();
        let wd = DayCategory::WORKDAY;
        // 8am: inbound crawls, outbound flows
        let t = hm(8, 0);
        assert!(approx_eq(
            s.profile(RoadClass::InboundHighway, wd)
                .unwrap()
                .speed_at(t),
            mph_to_mpm(20.0)
        ));
        assert!(approx_eq(
            s.profile(RoadClass::OutboundHighway, wd)
                .unwrap()
                .speed_at(t),
            mph_to_mpm(65.0)
        ));
        assert!(approx_eq(
            s.profile(RoadClass::LocalBoston, wd).unwrap().speed_at(t),
            mph_to_mpm(20.0)
        ));
        assert!(approx_eq(
            s.profile(RoadClass::LocalOutside, wd).unwrap().speed_at(t),
            mph_to_mpm(40.0)
        ));
        // 5pm: outbound crawls, inbound flows
        let t = hm(17, 0);
        assert!(approx_eq(
            s.profile(RoadClass::InboundHighway, wd)
                .unwrap()
                .speed_at(t),
            mph_to_mpm(65.0)
        ));
        assert!(approx_eq(
            s.profile(RoadClass::OutboundHighway, wd)
                .unwrap()
                .speed_at(t),
            mph_to_mpm(30.0)
        ));
        assert!(approx_eq(
            s.profile(RoadClass::LocalBoston, wd).unwrap().speed_at(t),
            mph_to_mpm(20.0)
        ));
        // noon: everything at base speed
        let t = hm(12, 0);
        for c in RoadClass::ALL {
            assert!(approx_eq(
                s.profile(c, wd).unwrap().speed_at(t),
                mph_to_mpm(c.speed_limit_mph())
            ));
        }
    }

    #[test]
    fn table1_nonworkday_is_flat() {
        let s = PatternSchema::table1().unwrap();
        let nwd = DayCategory::NON_WORKDAY;
        for c in RoadClass::ALL {
            let p = s.profile(c, nwd).unwrap();
            assert_eq!(p.pieces().len(), 1);
            assert!(approx_eq(
                p.speed_at(hm(8, 0)),
                mph_to_mpm(c.speed_limit_mph())
            ));
        }
    }

    #[test]
    fn schema_extremes() {
        let s = PatternSchema::table1().unwrap();
        assert!(approx_eq(s.max_speed(), mph_to_mpm(65.0)));
        assert!(approx_eq(s.min_speed(), mph_to_mpm(20.0)));
    }
}
