//! Property tests: the owned parser ([`parse_line`]) and the borrowed view
//! parser ([`Schema::parse_view`]) agree field-for-field — on well-formed
//! lines and on arbitrary (mostly malformed) input. `parse_line`
//! materializes the canonical view; these tests pin that contract from the
//! outside so the two entry points can never drift apart.

use filterscope_core::{ProxyId, Timestamp};
use filterscope_logformat::record::RecordBuilder;
use filterscope_logformat::{parse_line, ClientId, ExceptionId, LineSplitter, RequestUrl, Schema};
use proptest::prelude::*;

fn arb_exception() -> impl Strategy<Value = ExceptionId> {
    prop_oneof![
        Just(ExceptionId::None),
        Just(ExceptionId::PolicyDenied),
        Just(ExceptionId::PolicyRedirect),
        Just(ExceptionId::TcpError),
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
    /// On any valid line the view parser yields slices that materialize to
    /// exactly the record the owned parser produces, and its raw-spelling
    /// fields match the owned record's typed fields one for one.
    #[test]
    fn view_fields_match_owned_on_valid_lines(
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
        let query = if query == "-" { String::new() } else { query };
        let ua = if ua == "-" { String::new() } else { ua };
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

        let owned = parse_line(&line, 1).unwrap();
        let mut splitter = LineSplitter::new();
        let view = Schema::canonical().parse_view(&mut splitter, &line, 1).unwrap();

        // The materialized view is the owned record, field for field.
        prop_assert_eq!(&view.to_record(), &owned);
        // Raw slices agree with the owned record's spellings.
        prop_assert_eq!(view.timestamp, owned.timestamp);
        prop_assert_eq!(view.time_taken_ms, owned.time_taken_ms);
        prop_assert_eq!(view.client, owned.client);
        prop_assert_eq!(view.sc_status, owned.sc_status);
        prop_assert_eq!(view.s_action, owned.s_action.as_str());
        prop_assert_eq!(view.sc_bytes, owned.sc_bytes);
        prop_assert_eq!(view.cs_bytes, owned.cs_bytes);
        prop_assert_eq!(view.method, owned.method.as_str());
        prop_assert_eq!(view.url.scheme, &owned.url.scheme);
        prop_assert_eq!(view.url.host, &owned.url.host);
        prop_assert_eq!(view.url.port, owned.url.port);
        prop_assert_eq!(view.url.path, &owned.url.path);
        prop_assert_eq!(view.url.query, &owned.url.query);
        prop_assert_eq!(view.uri_ext, &owned.uri_ext);
        prop_assert_eq!(view.username, &owned.username);
        prop_assert_eq!(view.hierarchy, &owned.hierarchy);
        prop_assert_eq!(view.supplier, &owned.supplier);
        prop_assert_eq!(view.content_type, &owned.content_type);
        prop_assert_eq!(view.user_agent, &owned.user_agent);
        prop_assert_eq!(view.filter_result, owned.filter_result);
        prop_assert_eq!(view.categories, &owned.categories);
        prop_assert_eq!(view.virus_id, &owned.virus_id);
        prop_assert_eq!(view.s_ip, owned.s_ip);
        prop_assert_eq!(view.sitename, &owned.sitename);
        prop_assert_eq!(view.exception_id(), owned.exception);
        // Derived helpers agree with their owned counterparts.
        prop_assert_eq!(view.proxy(), Some(proxy));
        prop_assert_eq!(view.exception_is_none(), owned.exception == ExceptionId::None);
        prop_assert_eq!(view.exception_is_policy(), owned.exception.is_policy());
        prop_assert_eq!(view.url.filter_view(), owned.url.filter_view().as_ref());
    }

    /// On arbitrary (mostly malformed) lines the two parsers agree on
    /// accept/reject, and whenever both accept they produce the same record.
    #[test]
    fn view_and_owned_agree_on_arbitrary_lines(line in "[ -~,\"]{0,200}") {
        let owned = parse_line(&line, 7);
        let mut splitter = LineSplitter::new();
        let view = Schema::canonical().parse_view(&mut splitter, &line, 7);
        match (owned, view) {
            (Ok(rec), Ok(v)) => prop_assert_eq!(rec, v.to_record()),
            (Err(_), Err(_)) => {}
            (owned, view) => prop_assert!(
                false,
                "parsers disagree on {:?}: owned ok={} view ok={}",
                line,
                owned.is_ok(),
                view.is_ok()
            ),
        }
    }
}
