//! The CSV parse and the catalog encode hand part of their work to worker threads.
//! Each worker opens a span (`trace.csv_parse.part`, `calibrate.catalog_encode.part`),
//! so a profile attributes the worker's samples and allocations to its stage instead
//! of dropping them as span-less.
//!
//! This is its own test binary because it installs the counting allocator and arms
//! the process-global profiler.

use tcp_calibrate::Calibrator;
use tcp_trace::{records_from_csv_str, records_to_csv_string, TraceGenerator};

#[global_allocator]
static ALLOC: tcp_obs::profile::CountingAlloc = tcp_obs::profile::CountingAlloc::new();

#[test]
fn worker_allocations_land_on_the_part_spans() {
    if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
        // Both stages stay on the calling thread: no worker to attribute.
        return;
    }
    // 50k records are ~2.6 MB of CSV, two parts of over 1 MiB; the bad last row is
    // the second part's, so that part's worker allocates the error text.
    let mut csv =
        records_to_csv_string(&TraceGenerator::new(4).generate_study(50_000, 30).unwrap());
    csv.push_str("bad row\n");
    // 5,000 records store 10,000 lifetimes (the cells' and the pooled entry's): more
    // than one chunk of the encoder's.
    let catalog = Calibrator::new("spans")
        .calibrate(
            &TraceGenerator::new(5).generate_study(5_000, 30).unwrap(),
            "spans",
            1,
        )
        .unwrap();

    tcp_obs::profile::reset();
    tcp_obs::profile::set_counting(true);
    assert!(tcp_obs::profile::arm(97));
    let err = records_from_csv_str(&csv).unwrap_err();
    let json = catalog.to_json().unwrap();
    tcp_obs::profile::disarm();
    tcp_obs::profile::set_counting(false);

    assert_eq!(
        err.to_string(),
        "invalid argument: line 50002: expected 6 fields, found 1"
    );
    let mut want = String::new();
    serde_json::append(&catalog, &mut want);
    assert_eq!(json, want);
    let sites: Vec<String> = tcp_obs::profile::snapshot()
        .alloc_sites
        .into_iter()
        .map(|site| site.site)
        .collect();
    for site in ["trace.csv_parse.part", "calibrate.catalog_encode.part"] {
        assert!(
            sites.iter().any(|s| s == site),
            "no allocation under `{site}`: {sites:?}"
        );
    }
}
