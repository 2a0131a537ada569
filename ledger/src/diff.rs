//! `ledger diff A.json B.json`: two result files of `ledger run`, one row per
//! (metric, workload), judged against the bounds of `BENCHMARK.json`.

use genoc_campaign::json::Json;

use crate::jsonio::{as_f64, as_str, fields, get, items};
use crate::spec::{Spec, EXACT};
use crate::stats::Stats;

/// What a row says about B relative to A.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The runs' spread is wider than the bound and they overlap: the bound
    /// cannot be decided from these runs.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name, or `failed_share` for the failure row.
    pub metric: String,
    /// A's central value.
    pub a: f64,
    /// B's central value.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

impl Row {
    /// `B / A`, the ratio whose base is A; `None` when A is 0.
    pub fn ratio(&self) -> Option<f64> {
        (self.a != 0.0).then(|| self.b / self.a)
    }
}

/// Judges one timing-like metric: `a` is the base, `b` the candidate.
pub fn judge(a: &Stats, b: &Stats, lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b.value - a.value) / a.value.abs();
    if a.spread().max(b.spread()) > bound {
        // Too noisy for the bound to mean anything, unless the two sets of
        // runs do not even touch.
        let b_all_better = if lower_is_better {
            b.max < a.min
        } else {
            b.min > a.max
        };
        let b_all_worse = if lower_is_better {
            b.min > a.max
        } else {
            b.max < a.min
        };
        if b_all_better {
            return Verdict::Ok;
        }
        if !b_all_worse {
            return Verdict::Unresolved;
        }
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn stats_of(metric: &Json) -> Option<Stats> {
    let f = |k| get(metric, k).and_then(as_f64);
    Some(Stats {
        value: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        min: f("min")?,
        max: f("max")?,
        n: f("n")? as usize,
    })
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    items(get(file, "workloads")?)
        .iter()
        .find(|w| get(w, "workload").and_then(as_str) == Some(name))
}

/// Compares result file `b` against base `a`.
pub fn diff(a: &Json, b: &Json, spec: &Spec) -> Vec<Row> {
    let same_seed = get(a, "seed").is_some() && get(a, "seed") == get(b, "seed");
    let mut rows = Vec::new();
    for wa in get(a, "workloads").map_or(&[][..], items) {
        let Some(name) = get(wa, "workload").and_then(as_str) else {
            continue;
        };
        let Some(wb) = workload(b, name) else {
            continue;
        };
        for (metric, ma) in get(wa, "metrics").map_or(&[][..], fields) {
            let (Some(sa), Some(sb), Some(bound)) = (
                stats_of(ma),
                get(wb, "metrics")
                    .and_then(|m| get(m, metric))
                    .and_then(stats_of),
                spec.bound(metric),
            ) else {
                continue;
            };
            let verdict = if same_seed && EXACT.contains(&metric.as_str()) {
                // A deterministic count: no tolerance, in the worse direction.
                let worse = if bound.lower_is_better {
                    sb.value > sa.value
                } else {
                    sb.value < sa.value
                };
                if worse {
                    Verdict::Regressed
                } else {
                    Verdict::Ok
                }
            } else {
                judge(&sa, &sb, bound.lower_is_better, bound.bound)
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.clone(),
                a: sa.value,
                b: sb.value,
                verdict,
            });
        }
        let share = |w: &Json| {
            let f = |k| get(w, k).and_then(as_f64).unwrap_or(0.0);
            f("failed_ops") / f("ops").max(1.0)
        };
        let (fa, fb) = (share(wa), share(wb));
        rows.push(Row {
            workload: name.to_string(),
            metric: "failed_share".into(),
            a: fa,
            b: fb,
            verdict: if fb > fa {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
    }
    rows
}

/// The table, one line per row, and the exit code: 0 when every row is ok,
/// 1 when any regressed, 2 when none regressed but some are unresolved.
pub fn render(rows: &[Row]) -> (String, i32) {
    let mut out = format!(
        "{:<22} {:<22} {:>16} {:>16} {:>10}  verdict\n",
        "workload", "metric", "A", "B", "B/A"
    );
    for r in rows {
        let ratio = r.ratio().map_or("-".to_string(), |x| format!("{x:.4}x"));
        out.push_str(&format!(
            "{:<22} {:<22} {:>16.6} {:>16.6} {:>10}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.verdict.label()
        ));
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (regressed, unresolved) = (count(Verdict::Regressed), count(Verdict::Unresolved));
    out.push_str(&format!(
        "{} rows: {} ok, {regressed} regressed, {unresolved} unresolved (ratios are B over A)\n",
        rows.len(),
        count(Verdict::Ok)
    ));
    let code = if regressed > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    };
    (out, code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio::parse;

    fn tight(value: f64) -> Stats {
        Stats {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
            min: value * 0.98,
            max: value * 1.02,
            n: 5,
        }
    }

    fn wide(value: f64) -> Stats {
        Stats {
            value,
            q1: value * 0.8,
            q3: value * 1.2,
            min: value * 0.6,
            max: value * 1.4,
            n: 5,
        }
    }

    #[test]
    fn a_twenty_percent_slowdown_regresses_and_five_percent_passes() {
        assert_eq!(
            judge(&tight(1.0), &tight(1.2), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(judge(&tight(1.0), &tight(1.05), true, 0.1), Verdict::Ok);
        // higher-is-better metrics worsen downwards
        assert_eq!(
            judge(&tight(100.0), &tight(80.0), false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(judge(&tight(100.0), &tight(120.0), false, 0.1), Verdict::Ok);
    }

    #[test]
    fn overlapping_wide_spreads_are_unresolved() {
        assert_eq!(
            judge(&wide(1.0), &wide(1.05), true, 0.1),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A,
        assert_eq!(judge(&wide(1.0), &tight(0.5), true, 0.1), Verdict::Ok);
        // ... or every run of B loses to every run of A.
        assert_eq!(
            judge(&wide(1.0), &tight(2.0), true, 0.1),
            Verdict::Regressed
        );
    }

    fn file(seed: u64, wall: f64, io: u64, failed: u64) -> Json {
        parse(&format!(
            r#"{{"seed": {seed}, "workloads": [{{"workload": "sim-recover-wal", "ops": 100,
            "failed_ops": {failed}, "metrics": {{
            "wall_s": {{"unit": "s", "median": {wall}, "q1": {wall}, "q3": {wall}, "min": {wall}, "max": {wall}, "n": 5}},
            "io_bytes": {{"unit": "bytes", "median": {io}, "q1": {io}, "q3": {io}, "min": {io}, "max": {io}, "n": 5}}
            }}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn files_are_compared_row_by_row() {
        let spec = Spec::load().unwrap();
        let rows = diff(&file(23, 1.0, 1000, 0), &file(23, 1.04, 1000, 0), &spec);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert_eq!(render(&rows).1, 0);

        // One more byte under the same seed is a regression: exact metrics
        // have no tolerance. Under different seeds the bound applies.
        let rows = diff(&file(23, 1.0, 1000, 0), &file(23, 1.0, 1001, 0), &spec);
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        assert_eq!(render(&rows).1, 1);
        let rows = diff(&file(23, 1.0, 1000, 0), &file(24, 1.0, 1001, 0), &spec);
        assert_eq!(rows[1].verdict, Verdict::Ok);

        // A larger failed share is a regression whatever the timings say.
        let rows = diff(&file(23, 1.0, 1000, 0), &file(23, 0.5, 1000, 2), &spec);
        assert_eq!(rows[2].metric, "failed_share");
        assert_eq!(rows[2].verdict, Verdict::Regressed);
    }
}
