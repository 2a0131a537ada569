//! The full verification report, driven by the campaign engine: the same
//! `ScenarioMatrix` → shards → `CampaignReport` pipeline as
//! `cargo run -p genoc --bin campaign`, so the example and the CLI cannot
//! drift apart — plus the per-obligation detail for the standard instance
//! suite and the Table I effort analogue for the paper's mesh/XY
//! instantiation.
//!
//! Run with: `cargo run -p genoc --example verification_report [--size N]`

use genoc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size: usize = std::env::args()
        .skip_while(|a| a != "--size")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    println!("== smoke campaign: matrix -> shards -> report ==\n");
    let scenarios = ScenarioMatrix::smoke().expand();
    let report = run_campaign(
        &scenarios,
        &CampaignOptions {
            jobs: 0, // one worker per core
            seed: 0,
            effort: EffortProfile::quick(),
            matrix: "smoke".into(),
            wal_dir: None,
        },
    );
    println!("{}", report.render_markdown());
    assert!(report.all_passed(), "the smoke matrix must run green");

    println!("== proof obligations across the standard suite ==\n");
    let mut table = TextTable::new(["Instance", "C-1", "C-2", "C-3", "C-4", "C-5"]);
    for instance in Instance::standard_suite() {
        let reports = check_all(&instance);
        let cell = |i: usize| {
            let r = &reports[i];
            if r.holds() {
                format!("ok ({})", r.cases)
            } else {
                format!("FAIL ({})", r.violations.len())
            }
        };
        table.row([
            instance.name.clone(),
            cell(0),
            cell(1),
            cell(2),
            cell(3),
            cell(4),
        ]);
    }
    println!("{table}");
    println!("(C-3 FAIL rows are the deliberately deadlock-prone comparators.)\n");

    println!("== Theorem 1 detail on representative scenarios ==\n");
    let mut t1 = TextTable::new([
        "Scenario",
        "cyclic",
        "witness Ω",
        "live deadlock",
        "cycle valid",
    ]);
    for spec in scenarios
        .iter()
        .filter(|s| s.switching == SwitchingKind::Wormhole && s.meta.routing.is_deterministic())
    {
        let instance =
            Instance::from_meta(&spec.meta).map_err(|e| format!("{}: {e}", spec.name()))?;
        let hunt = HuntOptions {
            attempts: 16,
            messages: 16,
            flits: 4,
            ..HuntOptions::default()
        };
        let r = check_theorem1(&instance, &hunt)?;
        let show = |o: Option<bool>| match o {
            None => "-".to_string(),
            Some(true) => "yes".to_string(),
            Some(false) => "no".to_string(),
        };
        t1.row([
            spec.name(),
            if r.cyclic() {
                "yes".into()
            } else {
                "no".to_string()
            },
            show(r.witness_deadlock_verified),
            show(r.live_deadlock_found),
            show(r.extracted_cycle_valid),
        ]);
        assert!(r.holds(), "{:?}", r.notes);
    }
    println!("{t1}");

    println!("== Table I analogue: verification effort for mesh-{size}x{size}/xy ==\n");
    let rows = effort_table(size, size, 1);
    println!("{}", render_effort_table(&rows));
    println!("Columns: our decision-procedure case counts and wall time, next to the");
    println!("paper's ACL2 book sizes and replay effort for the same component.");
    Ok(())
}
