//! Every gate the bench bins check, stated once: name, comparison,
//! threshold and enforce-when condition (see [`crate::report`] for the
//! policy). A bin supplies only the measured values. The test at the
//! bottom pins every spec, so a threshold or condition cannot drift
//! without a visible edit to it.

use crate::report::Enforce::{self, Always, FullRunMinThreads, MinThreads};
use crate::report::Op::{Eq, Ge, Gt};
use crate::report::Spec;

/// Hardware threads a wall-clock parallel floor needs before it
/// enforces: the floors were calibrated on 4-thread CI runners, and with
/// fewer cores the parallel win they demand may be out of reach.
const GATE_MIN_HW_THREADS: usize = 4;
/// Wall-clock floors calibrated at full scale on multi-core runners.
const FULL_RUN_CORES: Enforce = FullRunMinThreads(GATE_MIN_HW_THREADS);

/// `ann_bench`: retrieval-mode recall and throughput across the sweep.
pub mod ann {
    use super::*;

    /// The sweep point the sub-linear floors are measured at.
    pub const GATE_LEAVES: usize = 100_000;
    pub const SWEEP_POINTS: Spec = Spec::new("sweep_points", Ge, 2.0, Always);
    /// Per sweep point.
    pub const EXACT_RECALL: Spec = Spec::new("exact_recall_at_10", Eq, 1.0, Always);
    pub const QUANTIZED_RECALL: Spec = Spec::new("quantized_recall_at_10", Ge, 0.90, Always);
    pub const QUANTIZED_QPS: Spec = Spec::new("quantized_qps", Gt, 0.0, Always);
    pub const ANN_RECALL: Spec = Spec::new("ann_recall_at_10", Ge, 0.90, Always);
    pub const ANN_QPS: Spec = Spec::new("ann_qps", Gt, 0.0, Always);
    /// At [`GATE_LEAVES`]; unmeasured (so report-only) when the sweep
    /// stops short of it.
    pub const GATE_SPEEDUP: Spec = Spec::new("ann_gate_speedup_vs_exact", Ge, 10.0, FULL_RUN_CORES);
    pub const GATE_RECALL: Spec = Spec::new("ann_gate_recall_at_10", Ge, 0.95, FULL_RUN_CORES);

    pub const ALL: &[Spec] = &[
        SWEEP_POINTS,
        EXACT_RECALL,
        QUANTIZED_RECALL,
        QUANTIZED_QPS,
        ANN_RECALL,
        ANN_QPS,
        GATE_SPEEDUP,
        GATE_RECALL,
    ];
}

/// `assimilation_suite`: full vs incremental re-assimilation.
pub mod assimilation_suite {
    use super::*;

    pub const VENDORS: Spec = Spec::new(
        "vendor_count",
        Eq,
        nassim_datasets::style::VENDORS.len() as f64,
        Always,
    );
    /// Per vendor and edit rate.
    pub const BITWISE_MATCH: Spec = Spec::holds("bitwise_match");
    /// Per vendor.
    pub const ROUNDTRIP_MATCH: Spec = Spec::holds("roundtrip_match");
    /// Helix (the Table-1-scale fixture) at the 1% edit rate.
    pub const INCREMENTAL_SPEEDUP_1PCT: Spec =
        Spec::new("helix_incremental_speedup_1pct", Ge, 5.0, FULL_RUN_CORES);

    pub const ALL: &[Spec] = &[
        VENDORS,
        BITWISE_MATCH,
        ROUNDTRIP_MATCH,
        INCREMENTAL_SPEEDUP_1PCT,
    ];
}

/// `crash_recovery`: store crashes, journal tears, kill-restart.
pub mod crash_recovery {
    use super::*;

    pub const ZERO_COMMITTED_LOSS: Spec = Spec::holds("zero_committed_loss");
    pub const JOURNAL_CONVERGED: Spec = Spec::holds("journal_converged");
    pub const BYTE_PARITY: Spec = Spec::holds("byte_parity");
    pub const ZERO_JOB_LOSS: Spec = Spec::holds("zero_job_loss");
    pub const CRASH_CLASSES: Spec = Spec::new(
        "crash_classes_seen",
        Eq,
        nassim::CrashPoint::ALL.len() as f64,
        Always,
    );
    pub const STORE_SEEDS: Spec = Spec::new("store_seeds", Eq, 3.0, Always);
    pub const JOURNAL_SEEDS: Spec = Spec::new("journal_seeds", Eq, 3.0, Always);
    pub const KILL_SEEDS: Spec = Spec::new("kill_restart_seeds", Eq, 3.0, Always);
    pub const STORE_INJECTIONS: Spec = Spec::new("store_injections", Gt, 0.0, Always);
    pub const TORN_APPENDS: Spec = Spec::new("torn_appends", Gt, 0.0, Always);
    /// Per store seed.
    pub const ORPHANS: Spec = Spec::new("orphans_after_clean_save", Eq, 0.0, Always);
    /// Per kill-restart seed.
    pub const JOB_DONE: Spec = Spec::holds("job_done_after_restart");

    pub const ALL: &[Spec] = &[
        ZERO_COMMITTED_LOSS,
        JOURNAL_CONVERGED,
        BYTE_PARITY,
        ZERO_JOB_LOSS,
        CRASH_CLASSES,
        STORE_SEEDS,
        JOURNAL_SEEDS,
        KILL_SEEDS,
        STORE_INJECTIONS,
        TORN_APPENDS,
        ORPHANS,
        JOB_DONE,
    ];
}

/// `device_resilience`: the chaos run must accept what the baseline did.
pub mod device_resilience {
    use super::*;

    pub const ACCEPTED: Spec = Spec::holds("accepted_matches_baseline");
    pub const READBACK: Spec = Spec::holds("readback_matches_baseline");

    pub const ALL: &[Spec] = &[ACCEPTED, READBACK];
}

/// `headline_acceleration`: parallel-engine stage speedups.
pub mod parallel {
    use super::*;

    pub const MAPPER_EVALUATION: Spec =
        Spec::new("mapper_evaluation_speedup", Ge, 2.0, FULL_RUN_CORES);
    /// Per pipeline stage: no stage may lose to its serial run.
    pub const STAGE: Spec = Spec::new("stage_speedup", Ge, 1.0, FULL_RUN_CORES);

    pub const ALL: &[Spec] = &[MAPPER_EVALUATION, STAGE];
}

/// `ingest_robustness`: corruption must not drag clean pages down.
pub mod ingest_robustness {
    use super::*;

    pub const CLEAN_SUBSET_PARITY: Spec = Spec::holds("clean_subset_parity");

    pub const ALL: &[Spec] = &[CLEAN_SUBSET_PARITY];
}

/// `mapper_inference`: tape-free inference against the autograd tape.
pub mod mapper_inference {
    use super::*;

    pub const BITWISE_MISMATCHES: Spec = Spec::new("bitwise_mismatches", Eq, 0.0, Always);
    pub const REPORTS_MATCH: Spec = Spec::holds("reports_match");
    /// Independent of core count, so enforced in smoke runs too.
    pub const BATCHED_SPEEDUP: Spec = Spec::new("speedup_batched_vs_tape", Ge, 3.0, Always);
    /// Enforced on multi-core machines even in smoke runs.
    pub const PARALLEL_EMBED_SPEEDUP: Spec = Spec::new(
        "speedup_parallel_vs_serial",
        Ge,
        1.5,
        MinThreads(GATE_MIN_HW_THREADS),
    );

    pub const ALL: &[Spec] = &[
        BITWISE_MISMATCHES,
        REPORTS_MATCH,
        BATCHED_SPEEDUP,
        PARALLEL_EMBED_SPEEDUP,
    ];
}

/// `serving_load`: chaos matrix, load phase and overload probe.
pub mod serving {
    use super::*;

    pub const ZERO_PANICS: Spec = Spec::holds("zero_panics");
    pub const PARITY_VIOLATIONS: Spec = Spec::new("parity_violations_total", Eq, 0.0, Always);
    pub const ACCOUNTING_MISMATCHES: Spec =
        Spec::new("accounting_mismatches_total", Eq, 0.0, Always);
    pub const FAULT_CLASSES: Spec = Spec::new(
        "fault_classes_seen",
        Eq,
        nassim_serve::ServeFaultKind::ALL.len() as f64,
        Always,
    );
    pub const CHAOS_SEEDS: Spec = Spec::new("chaos_seeds", Eq, 3.0, Always);
    /// Per chaos seed.
    pub const INJECTED: Spec = Spec::new("injected_total", Gt, 0.0, Always);
    /// Issued minus ok, shed and errored load requests.
    pub const LOAD_UNACCOUNTED: Spec = Spec::new("load_unaccounted_replies", Eq, 0.0, Always);
    pub const LOAD_ERRORS: Spec = Spec::new("load_errors", Eq, 0.0, Always);
    pub const LOAD_P50: Spec = Spec::new("load_p50_ms", Gt, 0.0, Always);
    pub const LOAD_P99_SPREAD: Spec = Spec::new("load_p99_minus_p50_ms", Ge, 0.0, Always);
    pub const LOAD_QPS: Spec = Spec::new("load_qps", Gt, 0.0, Always);
    /// Issued minus shed overload probes.
    pub const OVERLOAD_UNSHED: Spec = Spec::new("overload_probes_not_shed", Eq, 0.0, Always);
    pub const HEALTH_UNDER_OVERLOAD: Spec = Spec::holds("health_answered_under_overload");
    pub const HELD_COMPLETED: Spec = Spec::holds("held_request_completed");

    pub const ALL: &[Spec] = &[
        ZERO_PANICS,
        PARITY_VIOLATIONS,
        ACCOUNTING_MISMATCHES,
        FAULT_CLASSES,
        CHAOS_SEEDS,
        INJECTED,
        LOAD_UNACCOUNTED,
        LOAD_ERRORS,
        LOAD_P50,
        LOAD_P99_SPREAD,
        LOAD_QPS,
        OVERLOAD_UNSHED,
        HEALTH_UNDER_OVERLOAD,
        HELD_COMPLETED,
    ];
}

/// Every bin's gates, keyed by its BENCH file's name.
pub const ALL: &[(&str, &[Spec])] = &[
    ("ann", ann::ALL),
    ("assimilation_suite", assimilation_suite::ALL),
    ("crash_recovery", crash_recovery::ALL),
    ("device_resilience", device_resilience::ALL),
    ("parallel", parallel::ALL),
    ("ingest_robustness", ingest_robustness::ALL),
    ("mapper_inference", mapper_inference::ALL),
    ("serving", serving::ALL),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins every gate's comparison, threshold and enforce-when rule.
    /// A change here is a change to what the benches prove: make it on
    /// purpose, in both places.
    #[test]
    fn gate_thresholds_and_conditions_are_pinned() {
        let got: Vec<String> = ALL
            .iter()
            .flat_map(|(bin, specs)| {
                specs.iter().map(move |s| {
                    format!(
                        "{bin} {} {} {:?} {:?}",
                        s.name,
                        s.op.symbol(),
                        s.threshold,
                        s.enforce
                    )
                })
            })
            .collect();
        let want = [
            "ann sweep_points >= Num(2.0) Always",
            "ann exact_recall_at_10 == Num(1.0) Always",
            "ann quantized_recall_at_10 >= Num(0.9) Always",
            "ann quantized_qps > Num(0.0) Always",
            "ann ann_recall_at_10 >= Num(0.9) Always",
            "ann ann_qps > Num(0.0) Always",
            "ann ann_gate_speedup_vs_exact >= Num(10.0) FullRunMinThreads(4)",
            "ann ann_gate_recall_at_10 >= Num(0.95) FullRunMinThreads(4)",
            "assimilation_suite vendor_count == Num(4.0) Always",
            "assimilation_suite bitwise_match == Bool(true) Always",
            "assimilation_suite roundtrip_match == Bool(true) Always",
            "assimilation_suite helix_incremental_speedup_1pct >= Num(5.0) FullRunMinThreads(4)",
            "crash_recovery zero_committed_loss == Bool(true) Always",
            "crash_recovery journal_converged == Bool(true) Always",
            "crash_recovery byte_parity == Bool(true) Always",
            "crash_recovery zero_job_loss == Bool(true) Always",
            "crash_recovery crash_classes_seen == Num(3.0) Always",
            "crash_recovery store_seeds == Num(3.0) Always",
            "crash_recovery journal_seeds == Num(3.0) Always",
            "crash_recovery kill_restart_seeds == Num(3.0) Always",
            "crash_recovery store_injections > Num(0.0) Always",
            "crash_recovery torn_appends > Num(0.0) Always",
            "crash_recovery orphans_after_clean_save == Num(0.0) Always",
            "crash_recovery job_done_after_restart == Bool(true) Always",
            "device_resilience accepted_matches_baseline == Bool(true) Always",
            "device_resilience readback_matches_baseline == Bool(true) Always",
            "parallel mapper_evaluation_speedup >= Num(2.0) FullRunMinThreads(4)",
            "parallel stage_speedup >= Num(1.0) FullRunMinThreads(4)",
            "ingest_robustness clean_subset_parity == Bool(true) Always",
            "mapper_inference bitwise_mismatches == Num(0.0) Always",
            "mapper_inference reports_match == Bool(true) Always",
            "mapper_inference speedup_batched_vs_tape >= Num(3.0) Always",
            "mapper_inference speedup_parallel_vs_serial >= Num(1.5) MinThreads(4)",
            "serving zero_panics == Bool(true) Always",
            "serving parity_violations_total == Num(0.0) Always",
            "serving accounting_mismatches_total == Num(0.0) Always",
            "serving fault_classes_seen == Num(5.0) Always",
            "serving chaos_seeds == Num(3.0) Always",
            "serving injected_total > Num(0.0) Always",
            "serving load_unaccounted_replies == Num(0.0) Always",
            "serving load_errors == Num(0.0) Always",
            "serving load_p50_ms > Num(0.0) Always",
            "serving load_p99_minus_p50_ms >= Num(0.0) Always",
            "serving load_qps > Num(0.0) Always",
            "serving overload_probes_not_shed == Num(0.0) Always",
            "serving health_answered_under_overload == Bool(true) Always",
            "serving held_request_completed == Bool(true) Always",
        ];
        assert_eq!(got, want);
        assert_eq!(ann::GATE_LEAVES, 100_000);
        for (bin, specs) in ALL {
            let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), specs.len(), "{bin}: duplicate gate name");
        }
    }
}
