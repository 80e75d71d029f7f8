//! Snapshot test pinning the JSON shape of [`Metrics`] (including the
//! nested `fault` and `wal` blocks). The vendored serde is a no-op, so
//! serialization is hand-rolled in `Metrics::to_json`; this test is the
//! contract downstream artifact consumers (CI uploads, experiment
//! post-processing) rely on. Field additions must update the literal
//! below — that is the point.

use histmerge::obs::validate_json_line;
use histmerge::replication::metrics::{Metrics, SyncRecord};
use histmerge::replication::{
    CohortStats, CompactionStats, FaultStats, SchedStats, StormStats, WalStats,
};
use histmerge::workload::cost::CostReport;

fn populated_metrics() -> Metrics {
    let mut m = Metrics {
        tentative_generated: 120,
        base_generated: 45,
        window_misses: 2,
        peak_backlog: 17.25,
        backlog_series: vec![(0, 0.0), (10, 3.5), (20, 17.25)],
        batch_sizes: vec![1, 2],
        parallel_merge_ns: 987_654,
        speculative_hits: 3,
        speculative_retries: 1,
        retro_patches: 4,
        fault: FaultStats {
            dropped: 5,
            duplicated: 4,
            reordered: 3,
            mid_merge_disconnects: 2,
            base_crashes: 1,
            retries: 9,
            abandoned_sessions: 1,
            ledger_resumes: 2,
            duplicate_installs_suppressed: 1,
            recovered_sessions: 2,
            trimmed_txns: 6,
            double_resolutions: 0,
            ledger_gaps: 1,
        },
        wal: WalStats {
            records: 200,
            bytes: 8192,
            checkpoints: 3,
            segments_retired: 2,
            pruned_records: 11,
            shadow_recoveries: 1,
        },
        sched: SchedStats { events_pushed: 96, events_popped: 90 },
        compaction: CompactionStats { txns_in: 9, txns_out: 6, runs_squashed: 2 },
        cohort: CohortStats { fastpath_merges: 5, wave_rounds: 1, edge_cache_appends: 33 },
        storm: StormStats {
            shed: 7,
            deferred_drained: 7,
            deferred_peak: 4,
            defer_wait_ticks: 12,
            defer_wait_max: 3,
            backoff_reschedules: 2,
            backoff_delay_ticks: 10,
        },
        defer_waits: vec![3, 1, 2, 1],
        ..Metrics::default()
    };
    m.record(
        SyncRecord {
            tick: 40,
            mobile: 0,
            pending: 5,
            hb_len: 8,
            saved: 3,
            backed_out: 2,
            reprocessed: 0,
            merge_failed: false,
            sync_ns: 12_345,
        },
        CostReport { comm: 1.5, base_cpu: 2.0, base_io: 0.5, mobile_cpu: 0.25 },
    );
    m.record(
        SyncRecord {
            tick: 80,
            mobile: 1,
            pending: 4,
            hb_len: 0,
            saved: 0,
            backed_out: 0,
            reprocessed: 4,
            merge_failed: true,
            sync_ns: 0,
        },
        CostReport { comm: 1.0, base_cpu: 3.0, base_io: 1.5, mobile_cpu: 0.0 },
    );
    m
}

#[test]
fn metrics_json_shape_is_pinned() {
    let json = populated_metrics().to_json();
    validate_json_line(&json).unwrap_or_else(|e| panic!("invalid JSON {json}: {e}"));
    assert_eq!(
        json,
        concat!(
            "{\"tentative_generated\":120,\"base_generated\":45,\"saved\":3,",
            "\"backed_out\":2,\"reprocessed\":4,\"syncs\":2,\"merge_failures\":1,",
            "\"window_misses\":2,",
            "\"cost\":{\"comm\":2.500,\"base_cpu\":5.000,\"base_io\":2.000,\"mobile_cpu\":0.250},",
            "\"peak_backlog\":17.250,\"backlog_samples\":3,\"records\":2,\"batches\":2,",
            "\"parallel_merge_ns\":987654,\"speculative_hits\":3,\"speculative_retries\":1,",
            "\"retro_patches\":4,",
            "\"fault\":{\"dropped\":5,\"duplicated\":4,\"reordered\":3,",
            "\"mid_merge_disconnects\":2,\"base_crashes\":1,\"retries\":9,",
            "\"abandoned_sessions\":1,\"ledger_resumes\":2,\"duplicate_installs_suppressed\":1,",
            "\"recovered_sessions\":2,\"trimmed_txns\":6,\"double_resolutions\":0,",
            "\"ledger_gaps\":1},",
            "\"wal\":{\"records\":200,\"bytes\":8192,\"checkpoints\":3,",
            "\"segments_retired\":2,\"pruned_records\":11,\"shadow_recoveries\":1},",
            "\"sched\":{\"events_pushed\":96,\"events_popped\":90},",
            "\"compaction\":{\"txns_in\":9,\"txns_out\":6,\"runs_squashed\":2},",
            "\"cohort\":{\"fastpath_merges\":5,\"wave_rounds\":1,\"edge_cache_appends\":33},",
            "\"storm\":{\"shed\":7,\"deferred_drained\":7,\"deferred_peak\":4,",
            "\"defer_wait_ticks\":12,\"defer_wait_max\":3,",
            "\"backoff_reschedules\":2,\"backoff_delay_ticks\":10},",
            // defer_waits [3,1,2,1] sorted -> [1,1,2,3]: p50 = 2nd (1),
            // p99 = 4th (3), nearest-rank.
            "\"defer_waits\":{\"count\":4,\"p50\":1,\"p99\":3}}"
        )
    );
}

#[test]
fn default_metrics_json_is_all_zeroes_and_valid() {
    let json = Metrics::default().to_json();
    validate_json_line(&json).unwrap_or_else(|e| panic!("invalid JSON {json}: {e}"));
    assert!(json.starts_with("{\"tentative_generated\":0,"));
    assert!(json.contains("\"fault\":{\"dropped\":0,"));
    assert!(json.contains("\"wal\":{\"records\":0,"));
    assert!(json.contains("\"sched\":{\"events_pushed\":0,"));
    assert!(json.contains("\"compaction\":{\"txns_in\":0,\"txns_out\":0,\"runs_squashed\":0}"));
    assert!(json.contains(
        "\"cohort\":{\"fastpath_merges\":0,\"wave_rounds\":0,\"edge_cache_appends\":0}"
    ));
    assert!(json.ends_with(
        "\"storm\":{\"shed\":0,\"deferred_drained\":0,\"deferred_peak\":0,\
         \"defer_wait_ticks\":0,\"defer_wait_max\":0,\
         \"backoff_reschedules\":0,\"backoff_delay_ticks\":0},\
         \"defer_waits\":{\"count\":0,\"p50\":0,\"p99\":0}}"
    ));
}

/// `normalized()` is unchanged when compaction is off: a run with the
/// knob disabled carries an all-zero block, so pre-compaction comparison
/// baselines keep working untouched.
#[test]
fn normalized_is_unchanged_when_compaction_is_off() {
    let mut m = populated_metrics();
    m.compaction = CompactionStats::default();
    assert_eq!(m.normalized(), populated_metrics().normalized());
    assert_eq!(m.normalized().compaction, CompactionStats::default());
}

/// The cohort block is mechanism accounting (fast-path hits, wave
/// rounds, cache appends): `normalized()` zeroes it, so serial and
/// threaded runs of one scenario stay comparable.
#[test]
fn normalized_strips_cohort_counters() {
    let mut m = populated_metrics();
    m.cohort = CohortStats::default();
    assert_eq!(m.normalized(), populated_metrics().normalized());
    assert_eq!(m.normalized().cohort, CohortStats::default());
}
