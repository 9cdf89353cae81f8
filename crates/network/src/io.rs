//! Plain-text network interchange format.
//!
//! Lets users load real road data (e.g. a TIGER/Line extract they are
//! licensed to use) instead of the synthetic generators, and lets
//! experiments pin a generated network to disk for exact replay.
//!
//! Format (line-oriented, `#` comments, whitespace-separated):
//!
//! ```text
//! capecod-network v1
//! pattern <n_profiles> { <n_pieces> <start speed>... }...
//! node <x> <y>
//! edge <from> <to> <distance> <class 0..=3> <pattern>
//! ```
//!
//! Nodes and patterns are implicitly numbered in order of appearance.
//! Speeds are miles/minute, times minutes-of-day, distances miles —
//! the same units as the in-memory model.

use std::fmt::Write as _;
use std::path::Path;

use traffic::{CapeCodPattern, ProfilePiece, RoadClass, SpeedProfile};

use crate::{NetworkError, NodeId, PatternId, Result, RoadNetwork};

/// Serialize `net` to the text format.
// Every node id comes from `net.node_ids()` and every category is below
// its pattern's `n_categories()`, so no lookup can fail.
#[allow(clippy::expect_used)]
pub fn to_string(net: &RoadNetwork) -> String {
    let mut out = String::new();
    out.push_str("capecod-network v1\n");
    for pat in net.patterns() {
        let _ = write!(out, "pattern {}", pat.n_categories());
        for c in 0..pat.n_categories() {
            let profile = pat
                .profile(traffic::DayCategory(c as u8))
                .expect("category < n_categories");
            let _ = write!(out, " {}", profile.pieces().len());
            for p in profile.pieces() {
                let _ = write!(out, " {} {}", p.start, p.speed);
            }
        }
        out.push('\n');
    }
    for n in net.node_ids() {
        let p = net.point(n).expect("valid id");
        let _ = writeln!(out, "node {} {}", p.x, p.y);
    }
    for n in net.node_ids() {
        for e in net.neighbors(n).expect("valid id") {
            let _ = writeln!(
                out,
                "edge {} {} {} {} {}",
                n.0,
                e.to.0,
                e.distance,
                e.class.index(),
                e.pattern.0
            );
        }
    }
    out
}

/// Parse the text format back into a network.
pub fn from_str(text: &str) -> Result<RoadNetwork> {
    fn parse_err(line_no: usize, msg: impl Into<String>) -> NetworkError {
        NetworkError::Parse {
            line: line_no,
            message: msg.into(),
        }
    }

    let mut lines = text.lines().enumerate();
    let header = lines
        .next()
        .map(|(_, l)| l.trim())
        .ok_or_else(|| parse_err(0, "empty input"))?;
    if header != "capecod-network v1" {
        return Err(parse_err(1, format!("bad header '{header}'")));
    }

    let mut net = RoadNetwork::empty();
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        let mut tok = line.split_whitespace();
        // A blank (or comment-only) line has no first token.
        let Some(kind) = tok.next() else {
            continue;
        };
        let mut next_f64 = |what: &str| -> Result<f64> {
            tok.next()
                .ok_or_else(|| parse_err(line_no, format!("missing {what}")))?
                .parse::<f64>()
                .map_err(|e| parse_err(line_no, format!("bad {what}: {e}")))
        };
        match kind {
            "pattern" => {
                let n_profiles = next_f64("profile count")? as usize;
                let mut profiles = Vec::with_capacity(n_profiles);
                for _ in 0..n_profiles {
                    let n_pieces = next_f64("piece count")? as usize;
                    let mut pieces = Vec::with_capacity(n_pieces);
                    for _ in 0..n_pieces {
                        let start = next_f64("piece start")?;
                        let speed = next_f64("piece speed")?;
                        pieces.push(ProfilePiece { start, speed });
                    }
                    profiles.push(SpeedProfile::new(pieces)?);
                }
                net.add_pattern(CapeCodPattern::new(profiles)?);
            }
            "node" => {
                let x = next_f64("x")?;
                let y = next_f64("y")?;
                net.add_node(x, y)?;
            }
            "edge" => {
                let from = next_f64("from")? as u32;
                let to = next_f64("to")? as u32;
                let distance = next_f64("distance")?;
                let class_idx = next_f64("class")? as usize;
                let pattern = next_f64("pattern")? as u16;
                let class = RoadClass::from_index(class_idx)
                    .ok_or_else(|| parse_err(line_no, format!("bad class {class_idx}")))?;
                net.add_edge(
                    NodeId(from),
                    NodeId(to),
                    distance,
                    class,
                    PatternId(pattern),
                )?;
            }
            other => return Err(parse_err(line_no, format!("unknown record '{other}'"))),
        }
        if tok.next().is_some() {
            return Err(parse_err(line_no, "trailing tokens"));
        }
    }
    Ok(net)
}

/// Write `net` to `path`.
pub fn save(net: &RoadNetwork, path: &Path) -> Result<()> {
    std::fs::write(path, to_string(net)).map_err(|e| NetworkError::Parse {
        line: 0,
        message: format!("write failed: {e}"),
    })
}

/// Load a network from `path`.
pub fn load(path: &Path) -> Result<RoadNetwork> {
    let text = std::fs::read_to_string(path).map_err(|e| NetworkError::Parse {
        line: 0,
        message: format!("read failed: {e}"),
    })?;
    from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{suffolk_like, MetroConfig};
    use crate::NetworkStats;

    #[test]
    fn round_trips_the_running_example() {
        let (net, _) = crate::examples::paper_running_example();
        let text = to_string(&net);
        let back = from_str(&text).unwrap();
        assert_eq!(back.n_nodes(), net.n_nodes());
        assert_eq!(back.n_edges(), net.n_edges());
        assert_eq!(back.patterns(), net.patterns());
        for n in net.node_ids() {
            assert_eq!(back.point(n).unwrap(), net.point(n).unwrap());
            assert_eq!(back.neighbors(n).unwrap(), net.neighbors(n).unwrap());
        }
    }

    #[test]
    fn round_trips_a_metro() {
        let net = suffolk_like(&MetroConfig::small(5)).unwrap();
        let back = from_str(&to_string(&net)).unwrap();
        let a = NetworkStats::of(&net);
        let b = NetworkStats::of(&back);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("").is_err());
        assert!(from_str("wrong header").is_err());
        assert!(from_str("capecod-network v1\nfrobnicate 1 2").is_err());
        assert!(from_str("capecod-network v1\nnode 1").is_err()); // missing y
        assert!(from_str("capecod-network v1\nnode 0 0\nnode 1 0\nedge 0 1 1.0 9 0").is_err()); // bad class
        assert!(from_str("capecod-network v1\nnode 0 0 7").is_err()); // trailing
                                                                      // geometric invariant still enforced on load
        let short = "capecod-network v1\npattern 1 1 0 1\nnode 0 0\nnode 5 0\nedge 0 1 1.0 3 0";
        assert!(from_str(short).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ok() {
        let text = "capecod-network v1\n# a comment\n\npattern 1 1 0 1\nnode 0 0 # inline\nnode 1 0\nedge 0 1 1.0 3 0\n";
        let net = from_str(text).unwrap();
        assert_eq!(net.n_nodes(), 2);
        assert_eq!(net.n_edges(), 1);
    }

    #[test]
    fn file_round_trip() {
        let net = suffolk_like(&MetroConfig::small(2)).unwrap();
        let dir = std::env::temp_dir().join(format!("fp-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.txt");
        save(&net, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(NetworkStats::of(&net), NetworkStats::of(&back));
        std::fs::remove_dir_all(&dir).ok();
    }
}
