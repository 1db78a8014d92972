//! Window assigners: splitting unbounded streams into bounded windows
//! (paper §2.1, "Window Functions").

use std::sync::Arc;

use flowkv_common::backend::WindowKind;
use flowkv_common::types::{Timestamp, WindowId};

/// A user-defined window function (paper §8, "Custom Window
/// Operations"): maps a timestamp to the windows the tuple belongs to.
///
/// The store cannot see inside this function, so FlowKV classifies such
/// operators as unaligned-read and relies on an optional user-supplied
/// trigger-time predictor ([`flowkv::config::CustomEttFn`]) for
/// predictive batch reads.
pub type CustomAssignFn = Arc<dyn Fn(Timestamp) -> Vec<WindowId> + Send + Sync>;

/// Assigns tuples to windows by timestamp (and, for session and count
/// windows, per-key state kept by the operator).
#[derive(Clone)]
pub enum WindowAssigner {
    /// Tumbling windows of `size` milliseconds.
    Fixed {
        /// Window length.
        size: i64,
    },
    /// Overlapping windows of `size` every `slide` milliseconds.
    Sliding {
        /// Window length.
        size: i64,
        /// Sliding interval; tuples land in `size / slide` windows.
        slide: i64,
    },
    /// Per-key sessions delimited by `gap` of inactivity.
    Session {
        /// Session gap.
        gap: i64,
    },
    /// One window over all of event time.
    Global,
    /// Per-key windows of `size` tuples.
    Count {
        /// Tuples per window.
        size: u64,
    },
    /// A user-defined window function with deterministic, timestamp-
    /// derived boundaries (paper §8).
    Custom {
        /// The assignment function.
        assign: CustomAssignFn,
    },
}

impl std::fmt::Debug for WindowAssigner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowAssigner::Fixed { size } => write!(f, "Fixed({size})"),
            WindowAssigner::Sliding { size, slide } => write!(f, "Sliding({size}, {slide})"),
            WindowAssigner::Session { gap } => write!(f, "Session({gap})"),
            WindowAssigner::Global => f.write_str("Global"),
            WindowAssigner::Count { size } => write!(f, "Count({size})"),
            WindowAssigner::Custom { .. } => f.write_str("Custom(..)"),
        }
    }
}

impl WindowAssigner {
    /// The launch-time window-function signature seen by the store.
    pub fn kind(&self) -> WindowKind {
        match self {
            WindowAssigner::Fixed { size } => WindowKind::Fixed { size: *size },
            WindowAssigner::Sliding { size, slide } => WindowKind::Sliding {
                size: *size,
                slide: *slide,
            },
            WindowAssigner::Session { gap } => WindowKind::Session { gap: *gap },
            WindowAssigner::Global => WindowKind::Global,
            WindowAssigner::Count { size } => WindowKind::Count { size: *size },
            WindowAssigner::Custom { .. } => WindowKind::Custom,
        }
    }

    /// Windows assigned to a tuple with timestamp `ts`.
    ///
    /// Session windows return their *proto window* `[ts, ts + gap)`,
    /// which the operator merges with overlapping open sessions; count
    /// windows return nothing here because assignment depends on per-key
    /// arrival counts.
    pub fn assign(&self, ts: Timestamp) -> Vec<WindowId> {
        let mut windows = Vec::new();
        self.assign_into(ts, &mut windows);
        windows
    }

    /// [`assign`](Self::assign) into a reused list: replaces the contents
    /// of `windows`, allocating nothing once it has room (a custom
    /// function still returns its own list).
    pub(crate) fn assign_into(&self, ts: Timestamp, windows: &mut Vec<WindowId>) {
        windows.clear();
        match *self {
            WindowAssigner::Custom { ref assign } => windows.extend(assign(ts)),
            WindowAssigner::Fixed { size } => {
                let start = floor_to(ts, size);
                windows.push(WindowId::new(start, start + size));
            }
            WindowAssigner::Sliding { size, slide } => {
                // The last window starting at or before ts.
                let mut start = floor_to(ts, slide);
                while start + size > ts {
                    windows.push(WindowId::new(start, start + size));
                    match start.checked_sub(slide) {
                        Some(s) => start = s,
                        None => break,
                    }
                }
                windows.reverse();
            }
            WindowAssigner::Session { gap } => {
                windows.push(WindowId::new(ts, ts.saturating_add(gap)));
            }
            WindowAssigner::Global => windows.push(WindowId::global()),
            WindowAssigner::Count { .. } => {}
        }
    }
}

/// Rounds `ts` down to a multiple of `unit` (correct for negatives).
fn floor_to(ts: Timestamp, unit: i64) -> Timestamp {
    ts - ts.rem_euclid(unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_assignment() {
        let a = WindowAssigner::Fixed { size: 100 };
        assert_eq!(a.assign(0), vec![WindowId::new(0, 100)]);
        assert_eq!(a.assign(99), vec![WindowId::new(0, 100)]);
        assert_eq!(a.assign(100), vec![WindowId::new(100, 200)]);
        assert_eq!(a.assign(-1), vec![WindowId::new(-100, 0)]);
    }

    #[test]
    fn sliding_assignment_covers_timestamp() {
        let a = WindowAssigner::Sliding {
            size: 100,
            slide: 50,
        };
        // A timestamp belongs to size/slide = 2 windows.
        let windows = a.assign(120);
        assert_eq!(
            windows,
            vec![WindowId::new(50, 150), WindowId::new(100, 200)]
        );
        for w in windows {
            assert!(w.contains(120));
        }
    }

    #[test]
    fn sliding_with_equal_slide_is_fixed() {
        let a = WindowAssigner::Sliding {
            size: 100,
            slide: 100,
        };
        assert_eq!(a.assign(150), vec![WindowId::new(100, 200)]);
    }

    #[test]
    fn session_proto_window() {
        let a = WindowAssigner::Session { gap: 30 };
        assert_eq!(a.assign(70), vec![WindowId::new(70, 100)]);
    }

    #[test]
    fn global_and_count() {
        assert_eq!(WindowAssigner::Global.assign(5), vec![WindowId::global()]);
        assert!(WindowAssigner::Count { size: 10 }.assign(5).is_empty());
    }

    #[test]
    fn custom_assignment_and_kind() {
        // A tumbling window offset by 37 ms: boundaries the built-in
        // assigners cannot express.
        let a = WindowAssigner::Custom {
            assign: Arc::new(|ts| {
                let start = (ts - 37).div_euclid(100) * 100 + 37;
                vec![WindowId::new(start, start + 100)]
            }),
        };
        assert_eq!(a.kind(), WindowKind::Custom);
        let w = a.assign(40)[0];
        assert_eq!(w, WindowId::new(37, 137));
        assert!(w.contains(40));
        assert_eq!(a.assign(36)[0], WindowId::new(-63, 37));
    }

    #[test]
    fn kind_mapping() {
        assert_eq!(
            WindowAssigner::Fixed { size: 5 }.kind(),
            WindowKind::Fixed { size: 5 }
        );
        assert_eq!(
            WindowAssigner::Session { gap: 9 }.kind(),
            WindowKind::Session { gap: 9 }
        );
        assert_eq!(
            WindowAssigner::Count { size: 3 }.kind(),
            WindowKind::Count { size: 3 }
        );
    }
}
