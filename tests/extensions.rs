//! Integration tests for the extension layers: model comparison,
//! neighborhood navigation, sampled Shapley, continuous-statistic
//! divergence and the explainers, all on
//! generated data with real trained models.

use datasets::DatasetId;
use divexplorer::{
    compare::{compare_models, disagreement_report},
    continuous::explore_statistic,
    neighborhood::neighborhood,
    shapley::{item_contributions, item_contributions_sampled},
    DivExplorer, Metric, SortBy,
};
use models::{
    log_loss, Classifier, GaussianNaiveBayes, GbdtParams, GradientBoostedTrees, RandomForest,
    RandomForestParams,
};

fn trained_pair() -> (datasets::GeneratedDataset, Vec<bool>, Vec<bool>) {
    let gd = DatasetId::Heart.generate_sized(600, 31);
    let x = gd.features();
    let forest = RandomForest::fit(
        &x,
        &gd.v,
        &RandomForestParams {
            n_trees: 6,
            max_depth: Some(6),
            ..Default::default()
        },
        31,
    );
    let boosted = GradientBoostedTrees::fit(
        &x,
        &gd.v,
        &GbdtParams {
            n_rounds: 15,
            ..Default::default()
        },
    );
    let u_a = forest.predict_batch(&x);
    let u_b = boosted.predict_batch(&x);
    (gd, u_a, u_b)
}

#[test]
fn model_comparison_pipeline_on_trained_models() {
    let (gd, u_a, u_b) = trained_pair();
    let cmp = compare_models(&gd.data, &gd.v, &u_a, &u_b, &[Metric::ErrorRate], 0.15).unwrap();
    assert_eq!(cmp.report_a.len(), cmp.report_b.len());
    let gaps = cmp.top_gaps(0, 10);
    assert!(!gaps.is_empty());
    // Gaps are sorted by |gap| and internally consistent.
    assert!(gaps.windows(2).all(|w| w[0].gap.abs() >= w[1].gap.abs()));
    for g in &gaps {
        assert!((g.delta_a - g.delta_b - g.gap).abs() < 1e-12);
        assert_eq!(cmp.gap_of(&g.items, 0), Some(g.gap));
    }

    // Disagreement exploration is itself a valid report.
    let dis = disagreement_report(&gd.data, &u_a, &u_b, 0.15).unwrap();
    let overall = dis.dataset_rate(0);
    assert!((0.0..=1.0).contains(&overall));
}

#[test]
fn neighborhood_navigation_is_consistent_with_the_report() {
    let gd = DatasetId::Compas.generate_sized(1500, 32);
    let report = DivExplorer::new(0.05)
        .explore(&gd.data, &gd.v, &gd.u, &[Metric::FalsePositiveRate])
        .unwrap();
    let top = report.top_k(0, 1, SortBy::Divergence)[0];
    let items = report.items(top).to_vec();
    let n = neighborhood(&report, &items, 0).expect("frequent focus");
    assert_eq!(n.generalizations.len(), items.len());
    for step in &n.generalizations {
        assert_eq!(step.items.len() + 1, items.len());
        let expected = report.divergence_of(&step.items, 0).unwrap();
        assert!((step.delta - expected).abs() < 1e-12);
    }
    for step in &n.specializations {
        assert_eq!(step.items.len(), items.len() + 1);
        assert!(report.find(&step.items).is_some());
        assert!((step.delta_change - (step.delta - n.delta)).abs() < 1e-12);
    }
    // Amplifying/corrective partition the specializations by |Δ| strictly.
    let amp = n.amplifying().len();
    let corr = n.corrective().len();
    assert!(amp + corr <= n.specializations.len());
}

#[test]
fn sampled_shapley_tracks_exact_on_real_patterns() {
    let gd = DatasetId::Compas.generate_sized(2000, 33);
    let report = DivExplorer::new(0.05)
        .explore(&gd.data, &gd.v, &gd.u, &[Metric::FalseNegativeRate])
        .unwrap();
    let mut checked = 0;
    for idx in report.top_k(0, 5, SortBy::AbsDivergence) {
        let items = report.items(idx).to_vec();
        let (Ok(exact), Ok(sampled)) = (
            item_contributions(&report, &items, 0),
            item_contributions_sampled(&report, &items, 0, 600, 42),
        ) else {
            continue;
        };
        for ((i1, c1), (i2, c2)) in exact.iter().zip(&sampled) {
            assert_eq!(i1, i2);
            assert!(
                (c1 - c2).abs() < 0.05,
                "item {i1}: exact {c1} vs sampled {c2}"
            );
        }
        checked += 1;
    }
    assert!(checked >= 3, "checked only {checked} patterns");
}

#[test]
fn continuous_divergence_on_model_losses() {
    let (gd, _, _) = trained_pair();
    let x = gd.features();
    let bayes = GaussianNaiveBayes::fit(&x, &gd.v);
    let losses: Vec<f64> = (0..gd.n_rows())
        .map(|r| log_loss(gd.v[r], bayes.predict_proba(x.row(r))))
        .collect();
    let report = explore_statistic(&gd.data, &losses, 0.1, fpm::Algorithm::FpGrowth);
    assert!(!report.is_empty());
    // The dataset mean matches a direct computation.
    let direct = losses.iter().sum::<f64>() / losses.len() as f64;
    assert!((report.dataset_mean() - direct).abs() < 1e-9);
    // Divergences are internally consistent.
    for idx in report.ranked().into_iter().take(20) {
        let p = &report.patterns()[idx];
        let rows = gd.data.support_set(&p.items);
        let mean = rows.iter().map(|&r| losses[r]).sum::<f64>() / rows.len() as f64;
        assert!((p.moments.mean() - mean).abs() < 1e-9);
    }
}

#[test]
fn shap_and_lime_agree_on_the_dominant_feature() {
    // A model dominated by one one-hot feature: both explainers must rank
    // it first for an instance where it is active.
    let gd = DatasetId::Compas.generate_sized(400, 35);
    let x = gd.features_one_hot();
    struct OneFeature(usize);
    impl Classifier for OneFeature {
        fn predict_proba(&self, row: &[f64]) -> f64 {
            0.15 + 0.7 * row[self.0]
        }
    }
    let feature = gd.data.schema().item_by_name("#prior", ">3").unwrap() as usize;
    let model = OneFeature(feature);
    let instance = (0..gd.n_rows())
        .find(|&r| x.get(r, feature) == 1.0)
        .expect("someone has >3 priors");

    let lime = explain::explain_instance(
        &model,
        &x,
        x.row(instance),
        &explain::LimeParams::default(),
        1,
    );
    assert_eq!(lime.top_features(1)[0].0, feature, "LIME misattributed");

    let shap = explain::shap_values(
        &model,
        &x,
        x.row(instance),
        &explain::ShapParams::default(),
        1,
    );
    assert_eq!(shap.top_features(1)[0].0, feature, "SHAP misattributed");
    assert!(shap.top_features(1)[0].1 > 0.0);
}
