//! Property-based tests on the data pipeline: similarity bounds, blocking
//! soundness, featurization invariants, tree→DNF equivalence, and F1
//! algebra.

use alem_block::{collect_validated, TokenIndex};
use alem_core::features::FeatureExtractor;
use alem_core::interpret::{tree_dnf_predict, tree_match_paths};
use alem_core::schema::{AttrKind, EmDataset, Record, Schema, Table};
use mlcore::data::TrainSet;
use mlcore::metrics::Confusion;
use mlcore::tree::TreeConfig;
use mlcore::Classifier;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use textsim::{Prepared, SimilarityFunction};

/// Strategy for short text values (including empties and punctuation).
fn text_value() -> impl Strategy<Value = String> {
    "[a-z0-9 ,.!-]{0,30}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every similarity function is bounded, symmetric, and 1 on identical
    /// non-missing inputs.
    #[test]
    fn similarity_bounds_symmetry_identity(a in text_value(), b in text_value()) {
        let pa = Prepared::new(&a);
        let pb = Prepared::new(&b);
        for f in SimilarityFunction::ALL {
            let ab = f.compute_prepared(&pa, &pb);
            let ba = f.compute_prepared(&pb, &pa);
            prop_assert!((0.0..=1.0).contains(&ab), "{:?} out of range: {}", f, ab);
            prop_assert!((ab - ba).abs() < 1e-9, "{:?} asymmetric: {} vs {}", f, ab, ba);
            if !pa.is_missing() {
                let aa = f.compute_prepared(&pa, &pa);
                prop_assert!((aa - 1.0).abs() < 1e-9, "{:?} identity: {}", f, aa);
            }
        }
    }

    /// Blocking is sound: every surviving pair shares at least one token,
    /// and raising the threshold only shrinks the result.
    #[test]
    fn blocking_soundness_and_monotonicity(
        names in prop::collection::vec("[a-z]{2,8}( [a-z]{2,8}){0,3}", 2..20),
    ) {
        let schema = Schema::new(vec![("name", AttrKind::Text)]);
        let records: Vec<Record> = names
            .iter()
            .map(|n| Record::new(vec![Some(n.clone())]))
            .collect();
        let half = records.len() / 2;
        let ds = EmDataset {
            left: Table::new("l", schema.clone(), records[..half].to_vec()),
            right: Table::new("r", schema, records[half..].to_vec()),
            matches: Default::default(),
            name: "prop".into(),
        };
        let lo = collect_validated(&TokenIndex::builder().threshold(0.1).build(), &ds).unwrap();
        let hi = collect_validated(&TokenIndex::builder().threshold(0.5).build(), &ds).unwrap();
        // Monotonicity.
        for p in &hi {
            prop_assert!(lo.contains(p));
        }
        // Soundness: surviving pairs share a token.
        for &(l, r) in &lo {
            let lt = ds.left.record(l as usize).value(0).unwrap_or("");
            let rt = ds.right.record(r as usize).value(0).unwrap_or("");
            let lset: std::collections::HashSet<&str> = lt.split_whitespace().collect();
            let shares = rt.split_whitespace().any(|t| lset.contains(t));
            prop_assert!(shares, "{lt:?} vs {rt:?} survived without shared tokens");
        }
    }

    /// Feature vectors are bounded and have the documented dimensionality;
    /// Boolean featurization is monotone in the threshold.
    #[test]
    fn featurization_invariants(
        l in prop::collection::vec(text_value(), 2..4),
        r in prop::collection::vec(text_value(), 2..4),
    ) {
        let n_attrs = l.len().min(r.len());
        let schema = Schema::new(
            (0..n_attrs).map(|i| {
                let name: &'static str = ["a", "b", "c"][i];
                (name, AttrKind::Text)
            }).collect(),
        );
        let lrec = Record::new(l[..n_attrs].iter().map(|v| Some(v.clone())).collect());
        let rrec = Record::new(r[..n_attrs].iter().map(|v| Some(v.clone())).collect());
        let ds = EmDataset {
            left: Table::new("l", schema.clone(), vec![lrec]),
            right: Table::new("r", schema, vec![rrec]),
            matches: Default::default(),
            name: "prop".into(),
        };
        let fx = FeatureExtractor::new(&ds).expect("one schema");
        let row = fx.extract_pair((0, 0));
        prop_assert_eq!(row.len(), 21 * n_attrs);
        prop_assert!(row.iter().all(|v| (0.0..=1.0).contains(v)));
        let brow = fx.space().booleanize(&row).expect("a full row");
        prop_assert_eq!(brow.len(), 30 * n_attrs);
        // Monotone within each (attr, sim) block of 10 thresholds.
        for block in brow.chunks(10) {
            for w in block.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
        }
    }

    /// A trained tree and its DNF conversion agree on every input.
    #[test]
    fn tree_dnf_equivalence(
        labels in prop::collection::vec(any::<bool>(), 8..40),
        seed in 0u64..100,
    ) {
        let n = labels.len();
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, (i % 3) as f64 / 3.0])
            .collect();
        let set = TrainSet::new(&xs, &labels);
        let tree = TreeConfig::default().train(&set, &mut StdRng::seed_from_u64(seed));
        let paths = tree_match_paths(&tree);
        for x in &xs {
            prop_assert_eq!(tree.predict(x), tree_dnf_predict(&paths, x));
        }
    }

    /// F1 algebra: F1 is the harmonic mean, bounded by min/max of P and R.
    #[test]
    fn f1_algebra(preds in prop::collection::vec(any::<bool>(), 1..100), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let actual: Vec<bool> = preds.iter().map(|_| rng.gen()).collect();
        let c = Confusion::from_predictions(&preds, &actual);
        let (p, r, f1) = (c.precision(), c.recall(), c.f1());
        prop_assert!((0.0..=1.0).contains(&f1));
        if p + r > 0.0 {
            prop_assert!((f1 - 2.0 * p * r / (p + r)).abs() < 1e-12);
            prop_assert!(f1 <= p.max(r) + 1e-12);
            prop_assert!(f1 >= 0.0);
        } else {
            prop_assert_eq!(f1, 0.0);
        }
    }
}
