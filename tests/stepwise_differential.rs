//! The setters kept for the benchmark's stepwise oracle select no
//! engine of their own. The stepwise differential suite itself lives in
//! `tests/stepwise/mod.rs`; `fast_path.rs`, `miss_batch.rs` and
//! `miss_schedule.rs` run it over its modes.

mod stepwise;

/// `with_miss_batch` and `with_miss_schedule` select no engine of their
/// own: `with_miss_batch(false)` is the stepwise engine,
/// `with_miss_batch(true)` cannot turn it back into the trap-driven
/// one, and `with_miss_schedule` changes nothing.
#[test]
fn kept_setters_select_no_third_engine() {
    for (label, cfg) in stepwise::modes() {
        let off = cfg.clone().with_fast_path(false);
        assert_eq!(cfg.clone().with_miss_batch(false), off, "{label}");
        assert_eq!(cfg.clone().with_miss_batch(true), cfg, "{label}");
        assert_eq!(off.clone().with_miss_batch(true), off, "{label}");
        for enabled in [false, true] {
            assert_eq!(cfg.clone().with_miss_schedule(enabled), cfg, "{label}");
        }
    }
}
