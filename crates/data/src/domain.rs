//! The four evaluation domains and their calibrated scene distributions.
//!
//! Table I of the paper characterizes each dataset by crowd density and
//! per-axis velocity/acceleration statistics. Each [`DomainId`] maps to a
//! [`ScenarioConfig`] + [`ForceParams`] pair chosen so that synthesized
//! trajectories reproduce the *relative* structure of those statistics:
//!
//! | Domain  | character (from the paper)                                  |
//! |---------|-------------------------------------------------------------|
//! | ETH&UCY | outdoor walkways; horizontal flows, groups, leader–follower |
//! | L-CAS   | indoor corridor; slow motion, low density, trolleys/children |
//! | SYI     | station concourse; dense, fast **vertical** flow, stationary crowd groups (v(y) ≈ 26× L-CAS) |
//! | SDD     | university campus; mixed headings, high speed variance (bikes + pedestrians), large scale |

use adaptraj_sim::{FlowAxis, ForceParams, ScenarioConfig};

/// One of the paper's four dataset domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DomainId {
    EthUcy,
    LCas,
    Syi,
    Sdd,
}

impl DomainId {
    /// All domains in the paper's column order.
    pub const ALL: [DomainId; 4] = [
        DomainId::EthUcy,
        DomainId::LCas,
        DomainId::Syi,
        DomainId::Sdd,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DomainId::EthUcy => "ETH&UCY",
            DomainId::LCas => "L-CAS",
            DomainId::Syi => "SYI",
            DomainId::Sdd => "SDD",
        }
    }

    /// Lower-case tag naming the domain on the CLI, in CSV files and in
    /// predict requests.
    pub fn tag(self) -> &'static str {
        match self {
            DomainId::EthUcy => "eth_ucy",
            DomainId::LCas => "l_cas",
            DomainId::Syi => "syi",
            DomainId::Sdd => "sdd",
        }
    }

    /// Inverse of [`DomainId::tag`], case-insensitive, that also accepts
    /// the paper's spellings (`ethucy`, `eth&ucy`, `lcas`, `l-cas`).
    pub fn from_tag(tag: &str) -> Option<DomainId> {
        match tag.to_ascii_lowercase().as_str() {
            "eth_ucy" | "ethucy" | "eth&ucy" => Some(DomainId::EthUcy),
            "l_cas" | "lcas" | "l-cas" => Some(DomainId::LCas),
            "syi" => Some(DomainId::Syi),
            "sdd" => Some(DomainId::Sdd),
            _ => None,
        }
    }

    /// Stable small integer (used as the domain-classifier label and for
    /// seeding).
    pub fn index(self) -> usize {
        match self {
            DomainId::EthUcy => 0,
            DomainId::LCas => 1,
            DomainId::Syi => 2,
            DomainId::Sdd => 3,
        }
    }

    /// The calibrated scene distribution for this domain.
    pub fn scenario(self) -> ScenarioConfig {
        match self {
            // Moderate outdoor walkway: horizontal flows, some groups and
            // chains, medium density/speed.
            DomainId::EthUcy => ScenarioConfig {
                extent: 10.0,
                num_walkers: 6,
                num_groups: 1,
                group_size: 3,
                num_chains: 1,
                chain_len: 2,
                num_stationary_groups: 0,
                stationary_group_size: 0,
                speed_mean: 1.1,
                speed_std: 0.35,
                flow_axis: FlowAxis::Horizontal,
                flow_bias: 0.85,
                corridor_half_width: None,
                entry_stagger: 0,
            },
            // Slow indoor corridor, sparse.
            DomainId::LCas => ScenarioConfig {
                extent: 8.0,
                num_walkers: 5,
                num_groups: 1,
                group_size: 2,
                num_chains: 0,
                chain_len: 0,
                num_stationary_groups: 0,
                stationary_group_size: 0,
                speed_mean: 0.45,
                speed_std: 0.15,
                flow_axis: FlowAxis::Horizontal,
                flow_bias: 0.8,
                corridor_half_width: Some(4.0),
                entry_stagger: 0,
            },
            // Dense station concourse: fast vertical flow + stationary
            // crowd groups.
            DomainId::Syi => ScenarioConfig {
                extent: 26.0,
                num_walkers: 24,
                num_groups: 2,
                group_size: 3,
                num_chains: 1,
                chain_len: 3,
                num_stationary_groups: 1,
                stationary_group_size: 4,
                speed_mean: 2.7,
                speed_std: 0.4,
                flow_axis: FlowAxis::Vertical,
                flow_bias: 0.92,
                corridor_half_width: None,
                entry_stagger: 0,
            },
            // Campus: mixed headings, bimodal-ish speeds (cyclists), larger
            // extent.
            DomainId::Sdd => ScenarioConfig {
                extent: 18.0,
                num_walkers: 12,
                num_groups: 2,
                group_size: 2,
                num_chains: 1,
                chain_len: 2,
                num_stationary_groups: 1,
                stationary_group_size: 3,
                speed_mean: 1.5,
                speed_std: 0.7,
                flow_axis: FlowAxis::Mixed,
                flow_bias: 0.5,
                corridor_half_width: None,
                entry_stagger: 0,
            },
        }
    }

    /// Force-model parameters per domain. Indoor scenes react more
    /// strongly to walls; dense scenes carry more motion noise
    /// (acceleration spread in Table I grows with density).
    pub fn force_params(self) -> ForceParams {
        let mut p = ForceParams::default();
        match self {
            DomainId::EthUcy => {
                p.noise_std = 0.08;
            }
            DomainId::LCas => {
                p.noise_std = 0.12;
                p.wall_strength = 4.0;
                p.relaxation_time = 0.7;
            }
            DomainId::Syi => {
                p.noise_std = 0.5;
                p.repulsion_strength = 7.0;
                p.relaxation_time = 0.4;
            }
            DomainId::Sdd => {
                p.noise_std = 0.18;
            }
        }
        p
    }
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_parse_aliases_any_case_and_are_written_to_csv() {
        let cases: [(&str, Option<DomainId>); 14] = [
            ("eth_ucy", Some(DomainId::EthUcy)),
            ("EthUcy", Some(DomainId::EthUcy)),
            ("ETH&UCY", Some(DomainId::EthUcy)),
            ("l_cas", Some(DomainId::LCas)),
            ("LCAS", Some(DomainId::LCas)),
            ("L-CAS", Some(DomainId::LCas)),
            ("syi", Some(DomainId::Syi)),
            ("Sdd", Some(DomainId::Sdd)),
            ("mars", None),
            ("", None),
            ("eth ucy", None),
            ("l_cas ", None),
            ("sd", None),
            ("syi,sdd", None),
        ];
        for (tag, want) in cases {
            assert_eq!(DomainId::from_tag(tag), want, "tag {tag:?}");
        }
        for d in DomainId::ALL {
            assert_eq!(DomainId::from_tag(d.tag()), Some(d));
            assert_eq!(DomainId::from_tag(d.name()), Some(d), "{}", d.name());
            let focal: Vec<[f32; 2]> = (0..crate::trajectory::T_TOTAL)
                .map(|t| [t as f32, 0.0])
                .collect();
            let w = crate::trajectory::TrajWindow::from_world(&focal, &[], d);
            let mut csv = Vec::new();
            crate::io::write_csv(std::slice::from_ref(&w), &mut csv).unwrap();
            let line = String::from_utf8(csv).unwrap();
            assert!(line.contains(&format!(",{},", d.tag())), "{line}");
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(DomainId::EthUcy.name(), "ETH&UCY");
        assert_eq!(DomainId::Sdd.to_string(), "SDD");
    }

    #[test]
    fn calibration_orderings_match_table_one() {
        // SYI has the fastest flow, L-CAS the slowest.
        let speeds: Vec<f32> = DomainId::ALL
            .iter()
            .map(|d| d.scenario().speed_mean)
            .collect();
        assert!(
            speeds[2] > speeds[0] && speeds[2] > speeds[3],
            "SYI fastest"
        );
        assert!(
            speeds[1] < speeds[0] && speeds[1] < speeds[3],
            "L-CAS slowest"
        );
        // SYI is the densest scene, L-CAS the sparsest.
        let density: Vec<usize> = DomainId::ALL
            .iter()
            .map(|d| d.scenario().expected_agents())
            .collect();
        assert!(density[2] > density[0] && density[2] > density[3]);
        assert!(density[1] <= *density.iter().min().unwrap());
        // SYI flows vertically; ETH&UCY and L-CAS horizontally.
        assert_eq!(DomainId::Syi.scenario().flow_axis, FlowAxis::Vertical);
        assert_eq!(DomainId::EthUcy.scenario().flow_axis, FlowAxis::Horizontal);
        // SDD has the widest speed spread (mixed cyclists/pedestrians).
        let stds: Vec<f32> = DomainId::ALL
            .iter()
            .map(|d| d.scenario().speed_std)
            .collect();
        assert!(
            stds[3]
                >= *stds
                    .iter()
                    .take(3)
                    .fold(&0.0f32, |m, s| if s > m { s } else { m })
        );
    }

    #[test]
    fn lcas_is_indoor() {
        assert!(DomainId::LCas.scenario().corridor_half_width.is_some());
        assert!(DomainId::EthUcy.scenario().corridor_half_width.is_none());
    }
}
