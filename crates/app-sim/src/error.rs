//! Error types for app specification and execution.

use std::error::Error;
use std::fmt;

use taopt_ui_model::{ActionId, ScreenId};

/// Errors produced while building or running a synthetic app.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AppSimError {
    /// An action referenced a screen that does not exist.
    DanglingTarget {
        /// The action whose target is missing.
        action: ActionId,
        /// The missing screen.
        target: ScreenId,
    },
    /// A screen id was defined twice.
    DuplicateScreen(ScreenId),
    /// Screen ids do not run `0..n`: this one follows a gap.
    ScreenIdGap(ScreenId),
    /// An action id was defined twice.
    DuplicateAction(ActionId),
    /// The app has no screens.
    NoScreens,
    /// The configured start screen does not exist.
    BadStartScreen(ScreenId),
    /// An action was executed that the current screen does not offer.
    ActionNotAvailable(ActionId),
    /// A transition weight was invalid.
    BadWeight(f64),
    /// The login spec references a missing screen or action.
    BadLoginSpec,
    /// An evolution op referenced a missing entity or would create a
    /// duplicate.
    EvolutionTarget(String),
}

impl fmt::Display for AppSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppSimError::DanglingTarget { action, target } => {
                write!(f, "action {action} targets missing screen {target}")
            }
            AppSimError::DuplicateScreen(s) => write!(f, "screen {s} defined twice"),
            AppSimError::ScreenIdGap(s) => write!(f, "screen {s} follows a gap in the screen ids"),
            AppSimError::DuplicateAction(a) => write!(f, "action {a} defined twice"),
            AppSimError::NoScreens => write!(f, "app defines no screens"),
            AppSimError::BadStartScreen(s) => write!(f, "start screen {s} does not exist"),
            AppSimError::ActionNotAvailable(a) => {
                write!(f, "action {a} is not offered by the current screen")
            }
            AppSimError::BadWeight(w) => write!(f, "invalid transition weight {w}"),
            AppSimError::BadLoginSpec => {
                write!(f, "login spec references a missing screen or action")
            }
            AppSimError::EvolutionTarget(msg) => write!(f, "evolution op invalid: {msg}"),
        }
    }
}

impl Error for AppSimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_nonempty() {
        let errs = [
            AppSimError::DanglingTarget {
                action: ActionId(1),
                target: ScreenId(2),
            },
            AppSimError::DuplicateScreen(ScreenId(1)),
            AppSimError::ScreenIdGap(ScreenId(3)),
            AppSimError::DuplicateAction(ActionId(1)),
            AppSimError::NoScreens,
            AppSimError::BadStartScreen(ScreenId(0)),
            AppSimError::ActionNotAvailable(ActionId(0)),
            AppSimError::BadWeight(-1.0),
            AppSimError::BadLoginSpec,
            AppSimError::EvolutionTarget("missing action".into()),
        ];
        for e in errs {
            let m = e.to_string();
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }
}
