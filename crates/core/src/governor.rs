//! Memory-budget governor: adaptive checkpoint/skip configuration under a
//! byte budget.
//!
//! The paper picks `C = √T` offline (Eq. 3) and a skip percentile subject
//! to the Eq. 7 bound. On a device with a hard memory ceiling, a static
//! choice can still blow the budget (larger batch, wider layers, other
//! tenants). The governor closes the loop: after every iteration it
//! compares the measured peak tensor bytes against the user's budget and,
//! on pressure, moves the method one step toward the cheaper end of the
//! paper's own knobs —
//!
//! 1. plain BPTT is converted to temporal checkpointing;
//! 2. the checkpoint count `C` is stepped toward the target the session
//!    passes in: [`AnalyticModel::best_checkpoint_count`], the memory
//!    minimum within the Section V-A `C ≤ T/L_n` rule;
//! 3. once `C` is at the target, a Skipper method's percentile is raised
//!    in 5-point steps toward the Eq. 7 maximum.
//!
//! Every adjustment is logged as a [`GovernorAction`] so harnesses can
//! audit what the governor did and when.
//!
//! [`AnalyticModel::best_checkpoint_count`]: crate::AnalyticModel::best_checkpoint_count

use crate::method::Method;
use crate::sam::max_skippable_percentile;

/// One adjustment the governor made.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorAction {
    /// Iteration whose measurement triggered the adjustment.
    pub iteration: u64,
    /// Peak tensor bytes measured in that iteration.
    pub peak_bytes: u64,
    /// The budget that was exceeded.
    pub budget_bytes: u64,
    /// Method before the adjustment.
    pub from: Method,
    /// Method after the adjustment (in effect from the next iteration).
    pub to: Method,
}

impl GovernorAction {
    /// Publish this adjustment to the observability layer: an Info-level
    /// `governor.action` event plus the `governor.actions` counter. The
    /// terminal sees it under the `SKIPPER_OBS` knob (the old ad-hoc
    /// stderr logging is gone). No-op while tracing is disabled.
    pub fn emit(&self) {
        skipper_obs::counter_add("governor.actions", 1.0);
        skipper_obs::instant!(
            skipper_obs::Level::Info,
            "governor.action",
            iteration = self.iteration,
            peak_bytes = self.peak_bytes,
            budget_bytes = self.budget_bytes,
            from = self.from.to_string(),
            to = self.to.to_string(),
        );
    }
}

impl std::fmt::Display for GovernorAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "iter {}: peak {} B > budget {} B, {} -> {}",
            self.iteration, self.peak_bytes, self.budget_bytes, self.from, self.to
        )
    }
}

/// One step of `c` toward `target` (which is already admissible).
fn step_toward(c: usize, target: usize) -> usize {
    match c.cmp(&target) {
        std::cmp::Ordering::Less => c + 1,
        std::cmp::Ordering::Greater => c - 1,
        std::cmp::Ordering::Equal => c,
    }
}

/// Propose the next-cheaper method configuration under memory pressure,
/// or `None` if every knob is exhausted (or the method has none). `target`
/// is the admissible checkpoint count with the least memory.
pub(crate) fn relieve_pressure(
    method: &Method,
    timesteps: usize,
    layers: usize,
    target: usize,
) -> Option<Method> {
    match method {
        Method::Bptt => Some(Method::Checkpointed {
            checkpoints: target,
        }),
        Method::Checkpointed { checkpoints } => {
            let next = step_toward(*checkpoints, target);
            (next != *checkpoints).then_some(Method::Checkpointed { checkpoints: next })
        }
        Method::Skipper {
            checkpoints,
            percentile,
        } => {
            let next = step_toward(*checkpoints, target);
            if next != *checkpoints {
                return Some(Method::Skipper {
                    checkpoints: next,
                    percentile: *percentile,
                });
            }
            let cap = max_skippable_percentile(timesteps, *checkpoints, layers);
            let raised = (percentile + 5.0).min(cap);
            (raised > *percentile).then_some(Method::Skipper {
                checkpoints: *checkpoints,
                percentile: raised,
            })
        }
        // Window shrinking changes the training dynamics far more than the
        // paper's knobs do; leave truncated methods alone.
        Method::Tbptt { .. } | Method::TbpttLbp { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // T = 16 and L_n = 2 throughout, with the target at the `√T` optimum, 4.

    #[test]
    fn bptt_converts_to_sqrt_checkpointing() {
        let next = relieve_pressure(&Method::Bptt, 16, 2, 4).unwrap();
        assert_eq!(next, Method::Checkpointed { checkpoints: 4 });
    }

    #[test]
    fn checkpoints_step_toward_sqrt_from_both_sides() {
        let low = relieve_pressure(&Method::Checkpointed { checkpoints: 1 }, 16, 2, 4).unwrap();
        assert_eq!(low, Method::Checkpointed { checkpoints: 2 });
        let high = relieve_pressure(&Method::Checkpointed { checkpoints: 7 }, 16, 2, 4).unwrap();
        assert_eq!(high, Method::Checkpointed { checkpoints: 6 });
        // At the optimum there is nothing left to do.
        assert!(relieve_pressure(&Method::Checkpointed { checkpoints: 4 }, 16, 2, 4).is_none());
    }

    #[test]
    fn skipper_raises_percentile_once_c_is_optimal() {
        let m = Method::Skipper {
            checkpoints: 4,
            percentile: 25.0,
        };
        let next = relieve_pressure(&m, 16, 2, 4).unwrap();
        assert_eq!(
            next,
            Method::Skipper {
                checkpoints: 4,
                percentile: 30.0
            }
        );
    }

    #[test]
    fn percentile_is_capped_by_eq7() {
        let cap = max_skippable_percentile(16, 4, 2);
        let m = Method::Skipper {
            checkpoints: 4,
            percentile: cap,
        };
        assert!(relieve_pressure(&m, 16, 2, 4).is_none());
    }

    #[test]
    fn truncated_methods_are_left_alone() {
        assert!(relieve_pressure(&Method::Tbptt { window: 4 }, 16, 2, 4).is_none());
    }
}
