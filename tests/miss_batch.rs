//! The stepwise differential suite (`tests/stepwise/mod.rs`) on the
//! cache geometries whose miss bursts are served granule by granule,
//! and the burst engagement checks on the merged-run geometries too.

mod stepwise;

/// Granule-served bursts commit results, counters and phases
/// bit-identical to the stepwise engine at 1, 4 and 8 worker threads.
#[test]
fn miss_batch_is_bit_identical_to_stepwise() {
    stepwise::assert_bit_identical_to_stepwise(stepwise::granule_geometries());
}

/// Granule-served bursts record the stepwise run's ring events, with
/// the same virtual timestamps.
#[test]
fn miss_batch_preserves_ring_event_timestamps() {
    stepwise::assert_ring_events_match_stepwise(stepwise::granule_geometries());
}

/// Every burst geometry, granule-served or merged, engages the fast
/// path and serves bursts, one per flush, and nothing engages with the
/// switch off.
#[test]
fn miss_batch_engages_exactly_where_expected() {
    stepwise::assert_engages_where_expected(
        [
            stepwise::granule_geometries(),
            stepwise::merged_geometries(),
        ]
        .concat(),
    );
}
