//! Training-method selection and the paper's validity constraints.

use crate::sam::{max_checkpoints, max_skippable_percentile};
use serde::{Deserialize, Serialize};
use skipper_snn::SpikingNetwork;
use std::fmt;

/// Which training regime to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Method {
    /// Baseline SNN-BPTT: full graph over all timesteps.
    Bptt,
    /// Temporal activation checkpointing with `checkpoints` segments.
    Checkpointed {
        /// `C`: number of checkpoints / time segments.
        checkpoints: usize,
    },
    /// Checkpointing + time-skipping (the paper's contribution).
    Skipper {
        /// `C`: number of checkpoints / time segments.
        checkpoints: usize,
        /// `p`: percentile of timesteps skipped per segment (0–100).
        percentile: f32,
    },
    /// Truncated BPTT with windows of `window` timesteps.
    Tbptt {
        /// `trW`: truncation window length.
        window: usize,
    },
    /// TBPTT with locally supervised blocks (Guo et al. \[28\]).
    TbpttLbp {
        /// `trW`: truncation window length.
        window: usize,
        /// Module indices after which gradients are cut and a local
        /// classifier attached (ascending, exclusive upper bounds).
        taps: Vec<usize>,
    },
}

/// Why a method configuration is invalid for a given network and horizon.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodError {
    /// `C` must satisfy `1 ≤ C ≤ T` and each segment must be non-empty.
    BadCheckpointCount {
        /// Offending `C`.
        checkpoints: usize,
        /// Horizon.
        timesteps: usize,
    },
    /// Section V-A: `T/C ≥ L_n` so information reaches every layer within
    /// a segment.
    SegmentShorterThanDepth {
        /// Segment length `T/C`.
        segment: usize,
        /// Spiking depth `L_n`.
        layers: usize,
    },
    /// Eq. 7: `(1 − p/100)·T/C ≥ L_n`.
    TooManySkips {
        /// Requested percentile.
        percentile: f32,
        /// The Eq. 7 bound for this configuration.
        max_percentile: f32,
    },
    /// Percentile must lie in `[0, 100)`.
    BadPercentile {
        /// Offending value.
        percentile: f32,
    },
    /// Window must satisfy `1 ≤ trW ≤ T`.
    BadWindow {
        /// Offending window.
        window: usize,
        /// Horizon.
        timesteps: usize,
    },
    /// Taps must be ascending and inside the module list.
    BadTaps,
}

impl fmt::Display for MethodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodError::BadCheckpointCount {
                checkpoints,
                timesteps,
            } => write!(
                f,
                "invalid checkpoint count {checkpoints} for T={timesteps}"
            ),
            MethodError::SegmentShorterThanDepth { segment, layers } => write!(
                f,
                "segment length {segment} is shorter than the spiking depth {layers}"
            ),
            MethodError::TooManySkips {
                percentile,
                max_percentile,
            } => write!(
                f,
                "skip percentile {percentile} exceeds the Eq. 7 bound {max_percentile:.1}"
            ),
            MethodError::BadPercentile { percentile } => {
                write!(f, "percentile {percentile} outside [0, 100)")
            }
            MethodError::BadWindow { window, timesteps } => {
                write!(f, "invalid truncation window {window} for T={timesteps}")
            }
            MethodError::BadTaps => write!(f, "taps must be ascending module indices"),
        }
    }
}

impl std::error::Error for MethodError {}

impl Method {
    /// Short label used in tables and figures (e.g. `"C=5 & p=52"`).
    pub fn label(&self) -> String {
        match self {
            Method::Bptt => "baseline".to_owned(),
            Method::Checkpointed { checkpoints } => format!("C={checkpoints}"),
            Method::Skipper {
                checkpoints,
                percentile,
            } => format!("C={checkpoints} & p={percentile:.0}"),
            Method::Tbptt { window } => format!("trW={window}"),
            Method::TbpttLbp { window, .. } => format!("LBP trW={window}"),
        }
    }

    /// Check the paper's validity constraints for training `net` over
    /// `timesteps`: everything [`Method::validate_structure`] checks, then
    /// the semantic bounds `T/C ≥ L_n` (Section V-A) and Eq. 7.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint (see [`MethodError`]).
    pub fn validate(&self, net: &SpikingNetwork, timesteps: usize) -> Result<(), MethodError> {
        self.validate_structure(net, timesteps)?;
        let (checkpoints, percentile) = match self {
            Method::Checkpointed { checkpoints } => (*checkpoints, 0.0),
            Method::Skipper {
                checkpoints,
                percentile,
            } => (*checkpoints, *percentile),
            _ => return Ok(()),
        };
        let layers = net.spiking_layer_count();
        if checkpoints > max_checkpoints(timesteps, layers) {
            return Err(MethodError::SegmentShorterThanDepth {
                segment: timesteps / checkpoints,
                layers,
            });
        }
        let max_percentile = max_skippable_percentile(timesteps, checkpoints, layers);
        if percentile > max_percentile {
            return Err(MethodError::TooManySkips {
                percentile,
                max_percentile,
            });
        }
        Ok(())
    }

    /// The structural subset of [`Method::validate`]: only the conditions
    /// that would make a training step panic outright (zero or oversized
    /// `C`/`trW`, a percentile outside `[0, 100)`, malformed taps).
    ///
    /// The paper's *semantic* bounds — Section V-A's `T/C ≥ L_n` and
    /// Eq. 7's skip limit — are deliberately not checked here: a
    /// configuration that violates them still executes (the gradients are
    /// merely degraded), and the edge-case suite exercises exactly that.
    /// [`crate::SessionBuilder::build`] applies the full check up front;
    /// this one guards `try_train_batch` at runtime.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural constraint.
    pub fn validate_structure(
        &self,
        net: &SpikingNetwork,
        timesteps: usize,
    ) -> Result<(), MethodError> {
        match self {
            Method::Bptt => Ok(()),
            Method::Checkpointed { checkpoints } | Method::Skipper { checkpoints, .. } => {
                if *checkpoints == 0 || *checkpoints > timesteps {
                    return Err(MethodError::BadCheckpointCount {
                        checkpoints: *checkpoints,
                        timesteps,
                    });
                }
                if let Method::Skipper { percentile, .. } = self {
                    if !(0.0..100.0).contains(percentile) {
                        return Err(MethodError::BadPercentile {
                            percentile: *percentile,
                        });
                    }
                }
                Ok(())
            }
            Method::Tbptt { window } => {
                if *window == 0 || *window > timesteps {
                    Err(MethodError::BadWindow {
                        window: *window,
                        timesteps,
                    })
                } else {
                    Ok(())
                }
            }
            Method::TbpttLbp { window, taps } => {
                if *window == 0 || *window > timesteps {
                    return Err(MethodError::BadWindow {
                        window: *window,
                        timesteps,
                    });
                }
                let modules = net.modules().len();
                let ascending = taps.windows(2).all(|w| w[0] < w[1]);
                if taps.is_empty() || !ascending || taps.iter().any(|&t| t == 0 || t >= modules) {
                    return Err(MethodError::BadTaps);
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Segment boundaries for `C` checkpoints over `T` timesteps:
/// `C + 1` values `0 = b_0 < b_1 < … < b_C = T` with near-equal spacing.
///
/// # Panics
///
/// Panics if `checkpoints` is zero or exceeds `timesteps`.
pub fn segment_bounds(timesteps: usize, checkpoints: usize) -> Vec<usize> {
    assert!(
        checkpoints >= 1 && checkpoints <= timesteps,
        "need 1 ≤ C ≤ T"
    );
    (0..=checkpoints)
        .map(|k| k * timesteps / checkpoints)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_snn::{custom_net, ModelConfig};

    fn net() -> SpikingNetwork {
        custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        }) // L_n = 3
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(Method::Bptt.label(), "baseline");
        assert_eq!(Method::Checkpointed { checkpoints: 5 }.label(), "C=5");
        assert_eq!(
            Method::Skipper {
                checkpoints: 5,
                percentile: 52.0
            }
            .label(),
            "C=5 & p=52"
        );
        assert_eq!(Method::Tbptt { window: 25 }.label(), "trW=25");
    }

    #[test]
    fn checkpoint_bounds_enforced() {
        let n = net();
        assert!(Method::Checkpointed { checkpoints: 4 }
            .validate(&n, 24)
            .is_ok());
        assert!(matches!(
            Method::Checkpointed { checkpoints: 0 }.validate(&n, 24),
            Err(MethodError::BadCheckpointCount { .. })
        ));
        // T/C = 24/12 = 2 < L_n = 3.
        assert!(matches!(
            Method::Checkpointed { checkpoints: 12 }.validate(&n, 24),
            Err(MethodError::SegmentShorterThanDepth { .. })
        ));
    }

    #[test]
    fn eq7_limits_skipping() {
        let n = net(); // L_n = 3
                       // T=24, C=2 → segment 12, bound = (1 − 3/12)·100 = 75 %.
        assert!(Method::Skipper {
            checkpoints: 2,
            percentile: 70.0
        }
        .validate(&n, 24)
        .is_ok());
        assert!(matches!(
            Method::Skipper {
                checkpoints: 2,
                percentile: 80.0
            }
            .validate(&n, 24),
            Err(MethodError::TooManySkips { .. })
        ));
    }

    #[test]
    fn tbptt_window_checked() {
        let n = net();
        assert!(Method::Tbptt { window: 8 }.validate(&n, 24).is_ok());
        assert!(Method::Tbptt { window: 25 }.validate(&n, 24).is_err());
        assert!(Method::Tbptt { window: 0 }.validate(&n, 24).is_err());
    }

    #[test]
    fn lbp_taps_checked() {
        let n = net();
        let ok = Method::TbpttLbp {
            window: 8,
            taps: vec![1, 2],
        };
        assert!(ok.validate(&n, 24).is_ok());
        let bad = Method::TbpttLbp {
            window: 8,
            taps: vec![2, 1],
        };
        assert!(matches!(bad.validate(&n, 24), Err(MethodError::BadTaps)));
    }

    #[test]
    fn structural_check_is_a_strict_subset_of_full_validation() {
        let n = net(); // L_n = 3
                       // Structurally sound but Eq. 7-invalid: C = T (every segment is a
                       // single step, shorter than the depth). Full validation rejects,
                       // the structural check lets it run.
        let c_eq_t = Method::Checkpointed { checkpoints: 24 };
        assert!(c_eq_t.validate(&n, 24).is_err());
        assert!(c_eq_t.validate_structure(&n, 24).is_ok());
        // Structurally broken configs fail both.
        let zero = Method::Checkpointed { checkpoints: 0 };
        assert!(zero.validate(&n, 24).is_err());
        assert!(zero.validate_structure(&n, 24).is_err());
        assert!(matches!(
            Method::Skipper {
                checkpoints: 2,
                percentile: 100.0
            }
            .validate_structure(&n, 24),
            Err(MethodError::BadPercentile { .. })
        ));
        assert!(matches!(
            Method::Tbptt { window: 0 }.validate_structure(&n, 24),
            Err(MethodError::BadWindow { .. })
        ));
    }

    #[test]
    fn segment_bounds_cover_horizon() {
        assert_eq!(segment_bounds(20, 2), vec![0, 10, 20]);
        assert_eq!(segment_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(segment_bounds(5, 5), vec![0, 1, 2, 3, 4, 5]);
    }
}
