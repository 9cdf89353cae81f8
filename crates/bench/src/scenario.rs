//! Experiment scenarios: the network under test and the query backend
//! driving it.

use allfp::{Engine, PathfindBackend};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::{NetworkSource, NetworkStats, RoadNetwork};

/// How large a network to run the experiments on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ≈0.5k nodes — smoke-test scale.
    Small,
    /// ≈3–4k nodes over the full 8×8-mile extent — the default; same
    /// trip distances as the paper with shorter runtimes.
    Medium,
    /// ≈14–15k nodes — the paper's dataset magnitude (Suffolk County:
    /// 14,456 nodes).
    Full,
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            // "large" is the colloquial name the hierarchy speedup gate
            // uses for the paper-magnitude network; accept both.
            "full" | "large" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (small|medium|full|large)")),
        }
    }
}

/// Which query strategy an experiment drives: the flat best-first
/// engine, or the time-dependent contraction hierarchy built on top
/// of it (`fp-hierarchy`). Both answer bit-identically; only the work
/// per query differs, which is exactly what the figures measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Best-first interval search over the original network.
    #[default]
    Flat,
    /// Up–down search over a contracted overlay, answers re-composed
    /// through the flat pipeline (so they stay bit-identical).
    Ch,
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flat" => Ok(BackendKind::Flat),
            "ch" | "hierarchy" => Ok(BackendKind::Ch),
            other => Err(format!("unknown backend '{other}' (flat|ch)")),
        }
    }
}

impl BackendKind {
    /// Short name for table titles and report rows.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Flat => "flat",
            BackendKind::Ch => "ch",
        }
    }

    /// Wrap an already-configured flat engine in the chosen backend.
    /// `Ch` runs preprocessing here, so wrap once per engine, not per
    /// query.
    pub fn wrap<'a, S: NetworkSource>(
        self,
        engine: Engine<'a, S>,
    ) -> allfp::Result<Box<dyn PathfindBackend + 'a>> {
        Ok(match self {
            BackendKind::Flat => Box::new(engine),
            BackendKind::Ch => Box::new(HierarchyEngine::with_flat(
                engine,
                HierarchyConfig::default(),
            )?),
        })
    }
}

/// A generated network plus its provenance, shared by all runners.
pub struct Scenario {
    /// The network under test.
    pub net: RoadNetwork,
    /// Scale used.
    pub scale: Scale,
    /// Seed used.
    pub seed: u64,
}

impl Scenario {
    /// Generate the scenario network.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let cfg = match scale {
            Scale::Small => MetroConfig::small(seed),
            Scale::Medium => MetroConfig::medium(seed),
            Scale::Full => MetroConfig {
                seed,
                ..MetroConfig::default()
            },
        };
        let net = suffolk_like(&cfg).expect("generator succeeds");
        Scenario { net, scale, seed }
    }

    /// Human-readable description, printed at the top of every run.
    pub fn describe(&self) -> String {
        format!(
            "scenario: {:?} scale, seed {}\n{}",
            self.scale,
            self.seed,
            NetworkStats::of(&self.net)
        )
    }

    /// Maximum query distance (miles) that the scenario's extent can
    /// support with a healthy sample population.
    pub fn max_query_miles(&self) -> usize {
        match self.scale {
            Scale::Small => 3,
            Scale::Medium | Scale::Full => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!("small".parse::<Scale>().unwrap(), Scale::Small);
        assert_eq!("full".parse::<Scale>().unwrap(), Scale::Full);
        assert!("big".parse::<Scale>().is_err());
    }

    #[test]
    fn small_scenario_generates() {
        let s = Scenario::new(Scale::Small, 9);
        assert!(s.net.n_nodes() > 300);
        assert!(s.describe().contains("Small"));
        assert_eq!(s.max_query_miles(), 3);
    }
}
