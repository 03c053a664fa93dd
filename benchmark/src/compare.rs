//! `mmdb-benchmark compare <a.json> <b.json>`: per (metric, workload) cell,
//! both medians, the change, the bound and a verdict.
//!
//! End-to-end cells are gated by the bound the result file carries. A cell
//! whose own run-to-run spread (the mean absolute deviation of its repeats
//! from their median, as a share of the median, on either side) exceeds what
//! it is being judged against is *unresolved*, not unchanged. The MV
//! engines' `*.abort_share` is gated too, by the larger of +0.01 absolute
//! and +10 % relative. Everything else is printed only.

use crate::json::Json;
use crate::metrics::Better;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
    /// Not gated: per-layer, `onev.*` and detail cells.
    Reported,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Reported => "reported",
        }
    }
}

fn spread(cell: &Json) -> f64 {
    cell.num("dev") / cell.num("value").abs().max(f64::MIN_POSITIVE)
}

/// Verdict on a gated cell. `worse` is the change from a to b as a share of
/// a, positive in the direction that is worse.
pub fn judge(worse: f64, bound: f64, spread: f64) -> Verdict {
    if worse > bound {
        if worse > spread {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse < -bound {
        if -worse > spread {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Compare two suite result documents. Returns the report and whether any
/// gated cell regressed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut report = format!(
        "{:<18} {:<42} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "a", "b", "change", "bound", "verdict"
    );
    let mut regressed = false;
    let mut counts = [0usize; 5];
    let empty = Json::obj();
    let workloads_b = b.get("workloads").unwrap_or(&empty);
    for (workload, wa) in a.get("workloads").unwrap_or(&empty).fields() {
        let wb = workloads_b.get(workload).unwrap_or(&empty);
        for section in ["end_to_end", "per_layer", "detail"] {
            let cells_b = wb.get(section).unwrap_or(&empty);
            for (metric, ca) in wa.get(section).unwrap_or(&empty).fields() {
                let Some(cb) = cells_b.get(metric) else {
                    report.push_str(&format!("{workload:<18} {metric:<42} missing from b\n"));
                    continue;
                };
                let (va, vb) = (ca.num("value"), cb.num("value"));
                let change = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
                let better = ca
                    .get("better")
                    .and_then(Json::as_str)
                    .and_then(Better::parse);
                let worse = match better {
                    Some(Better::Higher) => -change,
                    _ => change,
                };
                let bound = ca.get("bound").and_then(Json::as_f64);
                let verdict = if let Some(bound) = bound {
                    judge(worse, bound, spread(ca).max(spread(cb)))
                } else if metric.ends_with(".abort_share") && !metric.starts_with("onev.") {
                    if vb - va > (0.1 * va).max(0.01) {
                        Verdict::Regressed
                    } else {
                        Verdict::Unchanged
                    }
                } else {
                    Verdict::Reported
                };
                regressed |= verdict == Verdict::Regressed;
                counts[verdict as usize] += 1;
                report.push_str(&format!(
                    "{workload:<18} {metric:<42} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>7}  {}\n",
                    change * 100.0,
                    bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                    verdict.name()
                ));
            }
        }
    }
    report.push_str(&format!(
        "gated cells: {} improved, {} unchanged, {} regressed, {} unresolved; {} cells reported only\n",
        counts[Verdict::Improved as usize],
        counts[Verdict::Unchanged as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize],
        counts[Verdict::Reported as usize],
    ));
    (report, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(judge(0.02, 0.1, 0.03), Verdict::Unchanged);
        assert_eq!(judge(0.2, 0.1, 0.03), Verdict::Regressed);
        assert_eq!(judge(-0.2, 0.1, 0.03), Verdict::Improved);
        // Noise wider than the bound decides nothing...
        assert_eq!(judge(0.02, 0.1, 0.3), Verdict::Unresolved);
        assert_eq!(judge(0.2, 0.1, 0.3), Verdict::Unresolved);
        // ...unless the change is wider still.
        assert_eq!(judge(0.5, 0.1, 0.3), Verdict::Regressed);
    }

    fn doc(tps: f64, abort: f64) -> Json {
        let cell = |v: f64, better: &str, bound: Option<f64>| {
            let mut c = Json::obj()
                .with("value", v)
                .with("dev", v * 0.01)
                .with("better", better);
            if let Some(b) = bound {
                c.set("bound", b);
            }
            c
        };
        Json::obj().with(
            "workloads",
            Json::obj().with(
                "tatp",
                Json::obj()
                    .with(
                        "end_to_end",
                        Json::obj().with("mvo.tps", cell(tps, "higher", Some(0.1))),
                    )
                    .with(
                        "per_layer",
                        Json::obj()
                            .with("mvo.abort_share", cell(abort, "lower", None))
                            .with("onev.abort_share", cell(abort * 3.0, "lower", None))
                            .with("epoch.pin_ns", cell(10.0, "lower", None)),
                    ),
            ),
        )
    }

    #[test]
    fn only_gated_cells_fail_a_comparison() {
        let (report, regressed) = compare(&doc(1000.0, 0.2), &doc(1005.0, 0.205));
        assert!(!regressed, "{report}");
        assert!(report.contains("unchanged") && report.contains("reported"));

        let (report, regressed) = compare(&doc(1000.0, 0.2), &doc(800.0, 0.2));
        assert!(regressed && report.contains("regressed"), "{report}");

        // Abort share: +0.01 absolute or +10 % relative, whichever is larger.
        assert!(!compare(&doc(1000.0, 0.2), &doc(1000.0, 0.215)).1);
        assert!(compare(&doc(1000.0, 0.2), &doc(1000.0, 0.23)).1);
        assert!(!compare(&doc(1000.0, 0.0), &doc(1000.0, 0.009)).1);
    }
}
