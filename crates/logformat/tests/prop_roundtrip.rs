//! Property tests: CSV serialization round-trips for arbitrary records, and
//! the CSV engine round-trips arbitrary field content.

use filterscope_core::{ProxyId, Timestamp};
use filterscope_logformat::record::RecordBuilder;
use filterscope_logformat::{csv, parse_line, ClientId, ExceptionId, RequestUrl};
use proptest::prelude::*;

fn arb_exception() -> impl Strategy<Value = ExceptionId> {
    prop_oneof![
        Just(ExceptionId::None),
        Just(ExceptionId::PolicyDenied),
        Just(ExceptionId::PolicyRedirect),
        Just(ExceptionId::TcpError),
        Just(ExceptionId::InternalError),
        Just(ExceptionId::InvalidRequest),
        Just(ExceptionId::DnsUnresolvedHostname),
        "[a-z_]{1,20}".prop_map(|s| ExceptionId::parse(&s)),
    ]
}

fn arb_client() -> impl Strategy<Value = ClientId> {
    prop_oneof![
        Just(ClientId::Zeroed),
        any::<u64>().prop_map(ClientId::Hashed),
    ]
}

proptest! {
    /// Any record built from printable components survives write→parse.
    #[test]
    fn record_roundtrips(
        host in "[a-z0-9.-]{1,40}",
        path in "(/[a-zA-Z0-9._%-]{0,12}){0,4}",
        query in "[a-zA-Z0-9=&_%.-]{0,30}",
        ua in "[ -~]{0,60}",
        day in 1u8..=6,
        hour in 0u8..24,
        minute in 0u8..60,
        exception in arb_exception(),
        client in arb_client(),
        proxy_ix in 0usize..7,
    ) {
        // The on-disk format writes `-` for absent optional fields, so a
        // literal "-" value is indistinguishable from absence — the same
        // ambiguity exists in the real leak. Normalize those here.
        let query = if query == "-" { String::new() } else { query };
        let ua = if ua == "-" { String::new() } else { ua };
        // Hosts like ".." or "1.2.3.4" are all legal cs-host values.
        let ts = Timestamp::parse_fields(
            &format!("2011-08-{day:02}"),
            &format!("{hour:02}:{minute:02}:00"),
        ).unwrap();
        let proxy = ProxyId::from_index(proxy_ix).unwrap();
        let path = if path.is_empty() { "/".to_string() } else { path };
        let url = RequestUrl::http(host, path).with_query(query);
        let rec = RecordBuilder::new(ts, proxy, url)
            .user_agent(ua)
            .client(client)
            .exception(exception)
            .derive_ext()
            .build();
        let line = rec.write_csv();
        let back = parse_line(&line, 1).unwrap();
        prop_assert_eq!(back, rec);
    }

    /// The CSV engine round-trips arbitrary field content, including commas,
    /// quotes and empty fields.
    #[test]
    fn csv_roundtrips_any_fields(fields in proptest::collection::vec("[ -~]{0,20}", 1..10)) {
        let line = csv::join_line(&fields);
        let back = csv::split_line(&line).unwrap();
        prop_assert_eq!(back, fields);
    }

    /// The single-scan `needs_quoting` agrees with its definition: a field
    /// needs quoting exactly when it contains a comma, a quote, a line feed
    /// or a carriage return, wherever they sit among multi-byte characters.
    #[test]
    fn needs_quoting_is_the_four_contains_definition(
        field in "[a-z ;,\"\n\r\u{e9}\u{2603}\u{1F600}]{0,24}",
    ) {
        let definition = field.contains(',')
            || field.contains('"')
            || field.contains('\n')
            || field.contains('\r');
        prop_assert_eq!(csv::needs_quoting(&field), definition);
    }

    /// `ClientId::logged` spells every client exactly as `core::fmt`
    /// renders the value it wraps.
    #[test]
    fn client_logged_spelling_matches_std_formatting(
        variant in 0u8..3,
        raw in any::<u64>(),
        shift in 0u32..64,
    ) {
        let v = raw >> shift;
        let (client, want) = match variant {
            0 => (ClientId::Zeroed, "0.0.0.0".to_string()),
            1 => (ClientId::Hashed(v), format!("{v:016x}")),
            _ => {
                let addr = std::net::Ipv4Addr::from(v as u32);
                (ClientId::Addr(addr), addr.to_string())
            }
        };
        prop_assert_eq!(client.logged(&mut [0; 16]), want.as_str());
    }

    /// split_line never panics on arbitrary input.
    #[test]
    fn split_line_is_total(line in "[ -~]{0,80}") {
        let _ = csv::split_line(&line);
    }

    /// parse_line never panics on arbitrary input.
    #[test]
    fn parse_line_is_total(line in "[ -~,]{0,200}") {
        let _ = parse_line(&line, 1);
    }
}
