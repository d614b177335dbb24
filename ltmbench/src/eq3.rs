//! Equation 3 (paper §5.4), recomputed by the benchmark from a published
//! epoch's parameters, to check every served LTM probability.

/// The parameters Equation 3 reads from an epoch's predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct Eq3Params {
    /// Per-source sensitivity `φ¹`, by source id.
    pub phi1: Vec<f64>,
    /// Per-source false-positive rate `φ⁰`, by source id.
    pub phi0: Vec<f64>,
    /// `(φ¹, φ⁰)` for sources outside the learned id range.
    pub fallback: (f64, f64),
    /// Prior truth pseudo-counts `(β₁, β₀)`.
    pub beta: (f64, f64),
}

impl Eq3Params {
    /// Reads the parameters of a boolean LTMinc predictor.
    pub fn of(p: &ltm_core::IncrementalLtm) -> Self {
        let beta = p.beta();
        Eq3Params {
            phi1: p.phi1().to_vec(),
            phi0: p.phi0().to_vec(),
            fallback: p.fallback(),
            beta: (beta.pos, beta.neg),
        }
    }

    /// `p(t_f = 1 | claims)` for `(source id, observation)` claims, in
    /// log-odds form: `ln β₁/β₀ + Σ_c ln(P(o_c | t=1) / P(o_c | t=0))`,
    /// squashed by the logistic function.
    pub fn probability(&self, claims: &[(usize, bool)]) -> f64 {
        let mut log_odds = (self.beta.0 / self.beta.1).ln();
        for &(s, observed) in claims {
            let p1 = self.phi1.get(s).copied().unwrap_or(self.fallback.0);
            let p0 = self.phi0.get(s).copied().unwrap_or(self.fallback.1);
            let (l1, l0) = if observed {
                (p1, p0)
            } else {
                (1.0 - p1, 1.0 - p0)
            };
            log_odds += (l1 / l0).ln();
        }
        if log_odds >= 0.0 {
            1.0 / (1.0 + (-log_odds).exp())
        } else {
            let e = log_odds.exp();
            e / (1.0 + e)
        }
    }
}

/// Whether a served probability equals the recomputed one (the two sums
/// run in the same order, so they agree to the last few ulps).
pub fn same(served: f64, expected: f64) -> bool {
    (served - expected).abs() <= 1e-12 * expected.abs().max(1e-300) + 1e-15
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Eq3Params {
        Eq3Params {
            phi1: vec![0.9, 0.6, 0.3],
            phi0: vec![0.05, 0.2, 0.01],
            fallback: (0.5, 0.1),
            beta: (10.0, 10.0),
        }
    }

    /// Equation 3 in its product form.
    fn direct(p: &Eq3Params, claims: &[(usize, bool)]) -> f64 {
        let mut t1 = p.beta.0;
        let mut t0 = p.beta.1;
        for &(s, o) in claims {
            let p1 = p.phi1.get(s).copied().unwrap_or(p.fallback.0);
            let p0 = p.phi0.get(s).copied().unwrap_or(p.fallback.1);
            t1 *= if o { p1 } else { 1.0 - p1 };
            t0 *= if o { p0 } else { 1.0 - p0 };
        }
        t1 / (t1 + t0)
    }

    #[test]
    fn single_positive_claim_under_a_flat_prior() {
        let p = Eq3Params {
            phi1: vec![0.9],
            phi0: vec![0.05],
            fallback: (0.5, 0.1),
            beta: (1.0, 1.0),
        };
        assert!((p.probability(&[(0, true)]) - 0.9 / 0.95).abs() < 1e-12);
    }

    #[test]
    fn matches_the_product_form_of_equation3() {
        let p = params();
        let cases: Vec<Vec<(usize, bool)>> = vec![
            vec![],
            vec![(0, true)],
            vec![(0, true), (1, false), (2, true)],
            vec![(1, false), (2, false)],
            // Source 7 is unknown: the fallback quality applies.
            vec![(7, true), (0, false)],
        ];
        for claims in cases {
            let got = p.probability(&claims);
            let want = direct(&p, &claims);
            assert!((got - want).abs() < 1e-12, "{claims:?}: {got} vs {want}");
            assert!((0.0..=1.0).contains(&got));
        }
        // No claims: the β prior mean.
        let skewed = Eq3Params {
            beta: (3.0, 1.0),
            ..params()
        };
        assert!((skewed.probability(&[]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn matches_the_library_predictor() {
        let lib = ltm_core::IncrementalLtm::from_parts(
            vec![0.8, 0.35],
            vec![0.02, 0.3],
            ltm_core::BetaPair::new(2.0, 5.0),
            0.5,
            0.1,
        );
        let p = Eq3Params::of(&lib);
        let claims = [(0usize, true), (1, false), (4, true)];
        let ids: Vec<_> = claims
            .iter()
            .map(|&(s, o)| (ltm_model::SourceId::new(s as u32), o))
            .collect();
        assert!(same(lib.predict_fact(&ids), p.probability(&claims)));
        assert!(!same(0.5, 0.5 + 1e-9));
    }

    #[test]
    fn strong_evidence_saturates_without_overflow() {
        let p = params();
        let many_pos: Vec<(usize, bool)> = (0..5000).map(|_| (0, true)).collect();
        let many_neg: Vec<(usize, bool)> = (0..5000).map(|_| (0, false)).collect();
        assert_eq!(p.probability(&many_pos), 1.0);
        assert!(p.probability(&many_neg) < 1e-100);
    }
}
