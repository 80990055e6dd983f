//! `calibrate fit`'s main-thread stages are spans: reading the CSV
//! (`calibrate.csv`), bucketing records into cells (`calibrate.bucket`) and writing
//! the catalog (`calibrate.catalog.write`), so a profile or trace of the fit
//! attributes its serial time to a named stage.
//!
//! This is its own test binary because `tcp_obs::trace::configure` is process-global.

use std::collections::BTreeSet;
use tcp_calibrate::Calibrator;
use tcp_trace::{save_records_csv, TraceGenerator};

#[test]
fn one_fit_records_the_csv_bucket_and_catalog_write_spans() {
    let dir = std::env::temp_dir().join(format!("tcp_calibrate_spans_{}", std::process::id()));
    let csv = dir.join("records.csv");
    let out = dir.join("catalog.json");
    let records = TraceGenerator::new(4).generate_study(300, 30).unwrap();
    save_records_csv(&csv, &records).unwrap();

    tcp_obs::trace::configure(1, 0);
    tcp_obs::trace::clear();
    let bytes = {
        let _root = tcp_obs::root_span!("calibrate.fit", 1u64);
        let catalog = Calibrator::new("spans").calibrate_csv(&csv, 1).unwrap();
        catalog.save(&out).unwrap()
    };
    tcp_obs::trace::configure(0, 0);

    let written = std::fs::read_to_string(&out).unwrap();
    assert_eq!(bytes, written.len());
    let sites: BTreeSet<String> = tcp_obs::trace::recent_spans()
        .iter()
        .map(|record| tcp_obs::trace::site_name(record.site))
        .collect();
    for site in [
        "calibrate.csv",
        "calibrate.bucket",
        "calibrate.catalog.write",
    ] {
        assert!(
            sites.contains(site),
            "missing span site `{site}`: {sites:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
