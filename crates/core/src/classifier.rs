//! Low-impact-index classifier (§5.2, final step).
//!
//! The MI recommender performs no extra optimizer calls at workload level,
//! so it filters expected-low-impact recommendations with a classifier
//! trained on **previous validation outcomes**: features of the candidate
//! (estimated impact, table size, index size, demand) and a label of
//! whether validation later found a real improvement.
//!
//! A small logistic-regression model trained by SGD keeps the whole thing
//! dependency-free and inspectable. Default weights encode the obvious
//! priors (higher estimated impact and demand → more likely to matter) so
//! the classifier is useful before any online training happens.

/// Feature vector for one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateFeatures {
    /// Average estimated improvement percentage (0–100).
    pub est_impact_pct: f64,
    /// log10 of the table's row count.
    pub log_table_rows: f64,
    /// log10 of the estimated index size in bytes.
    pub log_index_size: f64,
    /// log10(1 + demand): optimizations that wanted the index.
    pub log_demand: f64,
    /// Number of key columns.
    pub n_key_columns: f64,
}

impl CandidateFeatures {
    fn to_vec(self) -> [f64; 6] {
        [
            1.0, // bias
            self.est_impact_pct / 100.0,
            self.log_table_rows / 8.0,
            self.log_index_size / 12.0,
            self.log_demand / 6.0,
            self.n_key_columns / 8.0,
        ]
    }
}

/// A trained outcome of one validation, used as a training example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingExample {
    pub features: CandidateFeatures,
    /// True when validation confirmed a meaningful improvement.
    pub improved: bool,
}

/// Logistic-regression classifier for "will this index have real impact?".
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactClassifier {
    weights: [f64; 6],
    /// Probability threshold below which a candidate is filtered out.
    threshold: f64,
    /// Examples seen (diagnostics).
    trained_on: u64,
}

impl Default for ImpactClassifier {
    fn default() -> ImpactClassifier {
        ImpactClassifier {
            // Priors: impact and demand dominate; tiny tables and very
            // wide keys reduce confidence.
            weights: [-1.0, 3.0, 0.8, -0.2, 1.5, -0.3],
            threshold: 0.3,
            trained_on: 0,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl ImpactClassifier {
    /// Predicted probability that the candidate yields real improvement.
    fn predict(&self, f: &CandidateFeatures) -> f64 {
        let x = f.to_vec();
        let z: f64 = self.weights.iter().zip(x.iter()).map(|(w, v)| w * v).sum();
        sigmoid(z)
    }

    /// Whether the candidate passes the filter.
    pub(crate) fn accept(&self, f: &CandidateFeatures) -> bool {
        self.predict(f) >= self.threshold
    }

    /// One SGD step on a labelled example.
    pub fn train_one(&mut self, ex: &TrainingExample, lr: f64) {
        let x = ex.features.to_vec();
        let p = self.predict(&ex.features);
        let y = if ex.improved { 1.0 } else { 0.0 };
        let err = p - y;
        for (w, v) in self.weights.iter_mut().zip(x.iter()) {
            *w -= lr * err * v;
        }
        self.trained_on += 1;
    }

    /// Train over a batch for several epochs.
    #[cfg(test)]
    fn train(&mut self, examples: &[TrainingExample], epochs: usize, lr: f64) {
        for _ in 0..epochs {
            for ex in examples {
                self.train_one(ex, lr);
            }
        }
    }

    /// Classification accuracy on a labelled set.
    #[cfg(test)]
    fn accuracy(&self, examples: &[TrainingExample]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let correct = examples
            .iter()
            .filter(|ex| (self.predict(&ex.features) >= 0.5) == ex.improved)
            .count();
        correct as f64 / examples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(impact: f64, rows: f64, size: f64, demand: f64, keys: f64) -> CandidateFeatures {
        CandidateFeatures {
            est_impact_pct: impact,
            log_table_rows: rows,
            log_index_size: size,
            log_demand: demand,
            n_key_columns: keys,
        }
    }

    #[test]
    fn default_priors_prefer_high_impact_high_demand() {
        let clf = ImpactClassifier::default();
        let strong = feat(90.0, 6.0, 8.0, 4.0, 1.0);
        let weak = feat(12.0, 2.0, 5.0, 0.3, 4.0);
        assert!(clf.predict(&strong) > clf.predict(&weak));
        assert!(clf.accept(&strong));
    }

    #[test]
    fn training_separates_classes() {
        // Synthetic truth: improvement iff impact > 50 and demand > 1.
        let mut examples = Vec::new();
        let mut x = 1u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let impact = (x % 100) as f64;
            let demand = ((x >> 8) % 6) as f64;
            let improved = impact > 50.0 && demand > 1.0;
            examples.push(TrainingExample {
                features: feat(impact, 5.0, 7.0, demand, 2.0),
                improved,
            });
        }
        let mut clf = ImpactClassifier::default();
        clf.train(&examples, 200, 0.5);
        let acc = clf.accuracy(&examples);
        assert!(acc > 0.8, "accuracy {acc}");
        assert_eq!(clf.trained_on, 400 * 200);
    }

    #[test]
    fn online_update_shifts_prediction() {
        let mut clf = ImpactClassifier::default();
        let f = feat(60.0, 5.0, 7.0, 2.0, 2.0);
        let before = clf.predict(&f);
        // Feed repeated negative outcomes for this shape.
        for _ in 0..50 {
            clf.train_one(
                &TrainingExample {
                    features: f,
                    improved: false,
                },
                0.3,
            );
        }
        assert!(clf.predict(&f) < before, "prediction must drop");
    }

    #[test]
    fn sigmoid_bounds() {
        let clf = ImpactClassifier::default();
        let p = clf.predict(&feat(100.0, 8.0, 12.0, 6.0, 1.0));
        assert!(p > 0.0 && p < 1.0);
    }
}
