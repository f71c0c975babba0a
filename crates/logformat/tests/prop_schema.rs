//! Property tests for schema-flexible parsing: any permutation of the full
//! field set parses to exactly what the canonical parser produces.

use filterscope_core::{ProxyId, Timestamp};
use filterscope_logformat::fields::FIELDS;
use filterscope_logformat::record::RecordBuilder;
use filterscope_logformat::{csv, parse_line, LineSplitter, RequestUrl, Schema};
use proptest::prelude::*;

fn sample_record_line() -> String {
    RecordBuilder::new(
        Timestamp::parse_fields("2011-08-03", "10:30:00").unwrap(),
        ProxyId::Sg44,
        RequestUrl::http("www.facebook.com", "/plugins/like.php").with_query("href=x"),
    )
    .user_agent("Mozilla/4.0 (compatible; MSIE 7.0)")
    .policy_denied()
    .build()
    .write_csv()
}

proptest! {
    /// Shuffle the 26 columns arbitrarily: parsing the shuffled line under
    /// the shuffled header equals parsing the canonical line canonically.
    #[test]
    fn permuted_schema_parses_identically(perm in Just(()).prop_perturb(|_, mut rng| {
        let mut order: Vec<usize> = (0..FIELDS.len()).collect();
        // Fisher-Yates with proptest's rng.
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    })) {
        let line = sample_record_line();
        let canonical = parse_line(&line, 1).unwrap();
        let cells = csv::split_line(&line).unwrap();

        let header = format!(
            "#Fields: {}",
            perm.iter().map(|i| FIELDS[*i]).collect::<Vec<_>>().join(",")
        );
        let shuffled_line = csv::join_line(
            &perm.iter().map(|i| cells[*i].clone()).collect::<Vec<_>>(),
        );
        let schema = Schema::from_header(&header).unwrap();
        let parsed = schema
            .parse_view(&mut LineSplitter::new(), &shuffled_line, 1)
            .unwrap()
            .to_record();
        prop_assert_eq!(parsed, canonical);
    }

    /// Headers built from arbitrary printable text never panic.
    #[test]
    fn from_header_is_total(text in "#Fields:[ -~]{0,120}") {
        let _ = Schema::from_header(&text);
    }
}
