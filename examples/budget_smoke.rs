//! CI smoke test for bounded execution: mines German credit at support 0
//! (a lattice of millions of itemsets, 2.9M already at s=0.01) under a
//! 100 ms wall-clock budget with the paper's FP-growth engine and with
//! the default dense engine, asserting a clean truncated exit with partial
//! results — no hang, no panic, no OOM.
//!
//! ```sh
//! cargo run --release --example budget_smoke
//! ```

use std::time::{Duration, Instant};

use datasets::DatasetId;
use divexplorer::{DivExplorer, Metric};
use fpm::Budget;

fn main() {
    let d = DatasetId::German.generate(42);
    for engine in [fpm::Algorithm::FpGrowth, fpm::Algorithm::Dense] {
        let budget = Budget::unlimited().with_timeout(Duration::from_millis(100));

        let start = Instant::now();
        let report = DivExplorer::new(0.0)
            .with_algorithm(engine)
            .with_budget(budget)
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("budget exhaustion must not be an error");
        let elapsed = start.elapsed();

        println!(
            "{engine}: mined {} patterns in {elapsed:?} ({})",
            report.len(),
            report.completeness()
        );

        assert!(
            report.completeness().is_truncated(),
            "{engine}: a 100ms budget cannot cover german's s=0 lattice"
        );
        assert!(!report.is_empty(), "{engine}: partial results expected");
        assert!(
            elapsed < Duration::from_millis(500),
            "{engine}: truncation must land within one checkpoint interval, took {elapsed:?}"
        );
    }
    println!("budget smoke test OK");
}
