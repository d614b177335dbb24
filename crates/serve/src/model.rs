//! The model-kind abstraction behind multi-model serving.
//!
//! A server hosts named **domains**, each bound to one [`ModelKind`] that
//! decides how the domain's store is extracted, folded, and predicted
//! over (see [`crate::domain`]):
//!
//! * [`ModelKind::Boolean`] — the paper's core Latent Truth Model:
//!   Bernoulli observations over Definition-3 positive/negative claims,
//!   folded through [`ltm_core::StreamingLtm`] and served by the
//!   Equation-3 [`ltm_core::IncrementalLtm`].
//! * [`ModelKind::RealValued`] — the paper-§7 Gaussian extension: claims
//!   carry a real value (similarity score, numeric reading), folded
//!   through [`ltm_core::StreamingRealLtm`] and served by the Student-t
//!   predictive [`ltm_core::IncrementalRealLtm`]. A covering source that
//!   did not assert a fact contributes a Definition-3 negative row with
//!   value `0.0`; an asserted row with no explicit value reads as `1.0`.
//! * [`ModelKind::PositiveOnly`] — the paper-§6.2 LTMpos ablation: every
//!   folded batch is filtered through
//!   [`ltm_core::positive_only::positive_only_view`] so the model never
//!   trains on negative claims. Prediction machinery is shared with
//!   [`ModelKind::Boolean`]; supplied claims are evaluated as given.
//!
//! [`ServePredictor`] is the epoch-snapshot payload dispatching
//! Equation-3-style closed-form prediction over the variant predictors.

use std::fmt;
use std::str::FromStr;

use ltm_core::{IncrementalLtm, IncrementalRealLtm};
use ltm_model::SourceId;

/// Which model variant a domain runs. Parses from / renders to the wire
/// names `boolean`, `real_valued`, and `positive_only` used by the HTTP
/// API, the CLI, and the snapshot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Bernoulli observation model over positive/negative claims (the
    /// paper's core LTM).
    Boolean,
    /// Gaussian observation model over real-valued claims (paper §7).
    RealValued,
    /// LTMpos: trained with negative claims dropped (paper §6.2).
    PositiveOnly,
}

impl ModelKind {
    /// The wire name (`boolean` | `real_valued` | `positive_only`).
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::Boolean => "boolean",
            ModelKind::RealValued => "real_valued",
            ModelKind::PositiveOnly => "positive_only",
        }
    }

    /// Whether ingested triples carry a real value as their 4th field.
    pub fn valued(self) -> bool {
        matches!(self, ModelKind::RealValued)
    }

    /// All kinds, in wire-name order (for error messages and docs).
    pub fn all() -> [ModelKind; 3] {
        [
            ModelKind::Boolean,
            ModelKind::RealValued,
            ModelKind::PositiveOnly,
        ]
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error for an unrecognised model-kind name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModelKind(pub String);

impl fmt::Display for UnknownModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown model kind `{}` (expected boolean, real_valued, or positive_only)",
            self.0
        )
    }
}

impl std::error::Error for UnknownModelKind {}

impl FromStr for ModelKind {
    type Err = UnknownModelKind;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "boolean" => Ok(ModelKind::Boolean),
            "real_valued" => Ok(ModelKind::RealValued),
            "positive_only" => Ok(ModelKind::PositiveOnly),
            other => Err(UnknownModelKind(other.to_owned())),
        }
    }
}

/// The predictor payload of an epoch snapshot: one closed-form variant
/// predictor, dispatched by the owning domain's [`ModelKind`].
/// [`ModelKind::Boolean`] and [`ModelKind::PositiveOnly`] share the
/// [`IncrementalLtm`] arm (they differ only in how batches are folded).
#[derive(Debug, Clone)]
pub enum ServePredictor {
    /// Equation-3 predictor over `(source, observed?)` claims.
    Boolean(IncrementalLtm),
    /// Student-t predictive over `(source, value)` claims.
    Real(IncrementalRealLtm),
}

impl ServePredictor {
    /// The boolean-model predictor, if this is the [`ServePredictor::Boolean`] arm.
    pub fn as_boolean(&self) -> Option<&IncrementalLtm> {
        match self {
            ServePredictor::Boolean(p) => Some(p),
            ServePredictor::Real(_) => None,
        }
    }

    /// The real-valued predictor, if this is the [`ServePredictor::Real`] arm.
    pub fn as_real(&self) -> Option<&IncrementalRealLtm> {
        match self {
            ServePredictor::Real(p) => Some(p),
            ServePredictor::Boolean(_) => None,
        }
    }

    /// Applies the boolean Equation-3 predictor to one claim list.
    ///
    /// # Panics
    ///
    /// Panics when called on a real-valued predictor — the HTTP layer
    /// routes by domain kind, so reaching the wrong arm is a server bug,
    /// not a client error.
    pub fn predict_fact(&self, claims: &[(SourceId, bool)]) -> f64 {
        match self {
            ServePredictor::Boolean(p) => p.predict_fact(claims),
            ServePredictor::Real(_) => {
                panic!("boolean prediction requested from a real-valued domain predictor")
            }
        }
    }

    /// Applies the real-valued Student-t predictor to one claim list.
    ///
    /// # Panics
    ///
    /// Panics when called on a boolean predictor (see
    /// [`ServePredictor::predict_fact`]).
    pub fn predict_real(&self, claims: &[(SourceId, f64)]) -> f64 {
        match self {
            ServePredictor::Real(p) => p.predict_fact(claims),
            ServePredictor::Boolean(_) => {
                panic!("real-valued prediction requested from a boolean domain predictor")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in ModelKind::all() {
            assert_eq!(kind.as_str().parse::<ModelKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        let err = "gaussian".parse::<ModelKind>().unwrap_err();
        assert!(err.to_string().contains("gaussian"), "{err}");
    }

    #[test]
    fn only_real_valued_is_valued() {
        assert!(ModelKind::RealValued.valued());
        assert!(!ModelKind::Boolean.valued());
        assert!(!ModelKind::PositiveOnly.valued());
    }
}
