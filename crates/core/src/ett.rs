//! Estimated-trigger-time (ETT) prediction (paper §4.2).
//!
//! FlowKV combines statically known window semantics with the dynamically
//! observed tuple timestamps to predict when each window will be read:
//!
//! - fixed/sliding/global windows trigger exactly at their end time;
//! - a session window with gap `g` cannot trigger before `t_max + g`,
//!   where `t_max` is the largest timestamp seen in the window — the safe
//!   lower bound that makes predictive batch read miss-free until new
//!   data arrives;
//! - count windows trigger on arrival counts, which event time cannot
//!   bound, so they are unpredictable and the prefetcher degrades
//!   gracefully (paper §4.2, "Trigger Time Estimation");
//! - custom window functions may supply a user predictor (paper §8).

use flowkv_common::backend::WindowKind;
use flowkv_common::types::{Timestamp, WindowId};

use crate::config::CustomEttFn;

/// A trigger-time predictor derived from the operator's window function.
#[derive(Clone)]
pub enum EttPredictor {
    /// The window triggers exactly at its end time.
    WindowEnd,
    /// Session semantics: the window cannot trigger before
    /// `max_ts + gap`.
    SessionGap {
        /// The session gap in event-time milliseconds.
        gap: i64,
    },
    /// No safe estimate exists (count windows, unknown custom windows).
    Unpredictable,
    /// A user-supplied predictor for custom window functions.
    Custom(CustomEttFn),
}

impl EttPredictor {
    /// Maps a window-function signature to its predictor; `custom` is
    /// consulted for [`WindowKind::Custom`].
    pub fn for_window_kind(kind: WindowKind, custom: Option<CustomEttFn>) -> Self {
        match kind {
            WindowKind::Fixed { .. } | WindowKind::Sliding { .. } | WindowKind::Global => {
                EttPredictor::WindowEnd
            }
            WindowKind::Session { gap } => EttPredictor::SessionGap { gap },
            WindowKind::Count { .. } => EttPredictor::Unpredictable,
            WindowKind::Custom => match custom {
                Some(f) => EttPredictor::Custom(f),
                None => EttPredictor::Unpredictable,
            },
        }
    }

    /// Predicts the trigger time of `window` for `key` after observing a
    /// maximum tuple timestamp of `max_ts`, or `None` when no safe
    /// estimate exists.
    pub fn predict(&self, key: &[u8], window: WindowId, max_ts: Timestamp) -> Option<Timestamp> {
        match self {
            EttPredictor::WindowEnd => Some(window.end),
            EttPredictor::SessionGap { gap } => Some(max_ts.saturating_add(*gap)),
            EttPredictor::Unpredictable => None,
            EttPredictor::Custom(f) => f(key, window, max_ts),
        }
    }

    /// Returns `true` when predictions from this predictor are safe lower
    /// bounds (the window cannot trigger earlier), the property that
    /// makes predictive batch read miss-free (paper §4.2).
    pub fn is_safe_lower_bound(&self) -> bool {
        matches!(
            self,
            EttPredictor::WindowEnd | EttPredictor::SessionGap { .. }
        )
    }
}

/// One predicted-vs-actual trigger-time pair, the unit of prefetch
/// accuracy accounting.
///
/// The AUR store emits one observation per consumed window that carried
/// an estimate: `predicted` is the Stat table's ETT at consume time and
/// `actual` is the store's view of stream time when the read happened.
/// Each one is recorded in the `store_ett_*` metric families, from
/// which the JSONL snapshots carry the error distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EttObservation {
    /// The estimated trigger time.
    pub predicted: Timestamp,
    /// The stream time at which the window was actually read.
    pub actual: Timestamp,
}

impl EttObservation {
    /// Signed prediction error, `actual - predicted` (saturating).
    ///
    /// Positive: the window triggered later than estimated (a safe
    /// lower-bound prediction that cost prefetch-buffer residency).
    /// Negative: the window triggered before its estimate — an unsafe
    /// prediction that forces a miss.
    pub fn error(&self) -> i64 {
        self.actual.saturating_sub(self.predicted)
    }

    /// Absolute prediction error.
    pub fn abs_error(&self) -> i64 {
        self.error().saturating_abs()
    }

    /// True when the estimate was a correct lower bound (the window did
    /// not trigger before it).
    pub fn was_safe(&self) -> bool {
        self.predicted <= self.actual
    }
}

impl std::fmt::Debug for EttPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EttPredictor::WindowEnd => f.write_str("WindowEnd"),
            EttPredictor::SessionGap { gap } => write!(f, "SessionGap({gap})"),
            EttPredictor::Unpredictable => f.write_str("Unpredictable"),
            EttPredictor::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn aligned_windows_predict_window_end() {
        let p = EttPredictor::for_window_kind(WindowKind::Fixed { size: 100 }, None);
        assert_eq!(p.predict(b"k", WindowId::new(0, 100), 42), Some(100));
        assert!(p.is_safe_lower_bound());
    }

    #[test]
    fn session_predicts_max_ts_plus_gap() {
        let p = EttPredictor::for_window_kind(WindowKind::Session { gap: 30 }, None);
        assert_eq!(p.predict(b"k", WindowId::new(0, 50), 45), Some(75));
        assert!(p.is_safe_lower_bound());
    }

    #[test]
    fn count_windows_are_unpredictable() {
        let p = EttPredictor::for_window_kind(WindowKind::Count { size: 5 }, None);
        assert_eq!(p.predict(b"k", WindowId::new(0, 50), 45), None);
        assert!(!p.is_safe_lower_bound());
    }

    #[test]
    fn custom_without_predictor_is_unpredictable() {
        let p = EttPredictor::for_window_kind(WindowKind::Custom, None);
        assert_eq!(p.predict(b"k", WindowId::new(0, 50), 45), None);
    }

    #[test]
    fn custom_with_user_predictor() {
        let f: CustomEttFn = Arc::new(|_k, w, max_ts| Some(w.end.min(max_ts + 10)));
        let p = EttPredictor::for_window_kind(WindowKind::Custom, Some(f));
        assert_eq!(p.predict(b"k", WindowId::new(0, 100), 5), Some(15));
        assert!(!p.is_safe_lower_bound());
    }

    #[test]
    fn session_prediction_saturates() {
        let p = EttPredictor::SessionGap { gap: i64::MAX };
        assert_eq!(p.predict(b"k", WindowId::new(0, 10), 5), Some(i64::MAX));
    }

    #[test]
    fn observation_error_and_safety() {
        let late = EttObservation {
            predicted: 100,
            actual: 130,
        };
        assert_eq!(late.error(), 30);
        assert_eq!(late.abs_error(), 30);
        assert!(late.was_safe());

        let early = EttObservation {
            predicted: 100,
            actual: 80,
        };
        assert_eq!(early.error(), -20);
        assert_eq!(early.abs_error(), 20);
        assert!(!early.was_safe());

        let extreme = EttObservation {
            predicted: i64::MAX,
            actual: i64::MIN,
        };
        assert_eq!(extreme.error(), i64::MIN);
        assert_eq!(extreme.abs_error(), i64::MAX);
    }
}
