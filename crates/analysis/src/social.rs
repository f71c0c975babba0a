//! §6: censorship of social media — Table 13 (the OSN panel), Table 14
//! (targeted Facebook pages) and Table 15 (social-plugin elements).

use crate::report::{count_pct, Table};
use filterscope_core::{Interner, Sym};
use filterscope_logformat::url::base_domain_of;
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::counter::top_n_by_count;
use std::collections::HashMap;

/// The 28-site panel of §6: Alexa's top social networks (as of the paper's
/// writing) plus three networks popular in Arabic-speaking countries.
pub const OSN_PANEL: [&str; 28] = [
    "facebook.com",
    "twitter.com",
    "linkedin.com",
    "badoo.com",
    "netlog.com",
    "skyrock.com",
    "hi5.com",
    "ning.com",
    "meetup.com",
    "flickr.com",
    "myspace.com",
    "instagram.com",
    "tumblr.com",
    "last.fm",
    "vk.com",
    "odnoklassniki.ru",
    "orkut.com",
    "renren.com",
    "weibo.com",
    "pinterest.com",
    "reddit.com",
    "tagged.com",
    "deviantart.com",
    "livejournal.com",
    "plus.google.com",
    "salamworld.com",
    "muslimup.com",
    "badoo.mobi",
];

/// Facebook frontends whose page paths are inspected.
const FB_HOSTS: [&str; 3] = ["www.facebook.com", "facebook.com", "ar-ar.facebook.com"];

/// Per-key (censored, allowed, proxied) counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassCounts {
    pub censored: u64,
    pub allowed: u64,
    pub proxied: u64,
}

impl ClassCounts {
    fn add(&mut self, class: RequestClass) {
        match class {
            RequestClass::Censored => self.censored += 1,
            RequestClass::Allowed => self.allowed += 1,
            RequestClass::Proxied => self.proxied += 1,
            RequestClass::Error => {}
        }
    }

    fn merge(&mut self, o: &ClassCounts) {
        self.censored += o.censored;
        self.allowed += o.allowed;
        self.proxied += o.proxied;
    }
}

/// Tables 13–15 accumulator. Page and plugin paths are interned ([`Sym`]);
/// [`SocialStats::merge`] remaps the absorbed shard's symbols, and renders
/// resolve back to strings before sorting.
#[derive(Debug, Default)]
pub struct SocialStats {
    /// Per OSN domain.
    pub osn: HashMap<&'static str, ClassCounts>,
    interner: Interner,
    /// Per Facebook page path (`/Name`), with the "Blocked sites" category
    /// flag observed.
    fb_pages: HashMap<Sym, (ClassCounts, bool)>,
    /// Per plugin element path.
    fb_plugins: HashMap<Sym, ClassCounts>,
    /// All facebook.com traffic (Table 15 denominators).
    pub fb_total: ClassCounts,
}

/// Is this path a social-plugin element (Table 15's namespace)?
fn is_plugin_path(path: &str) -> bool {
    path.starts_with("/plugins/")
        || path.starts_with("/extern/")
        || path.starts_with("/fbml/")
        || path.starts_with("/connect/")
        || path.starts_with("/ajax/")
        || path.starts_with("/platform/")
}

/// Does this path look like a page path (`/Some.Page.Name`)?
fn page_name(path: &str) -> Option<&str> {
    let name = path.strip_prefix('/')?;
    if name.is_empty() || name.contains('/') {
        return None;
    }
    // Pages are capitalized or dotted names, not endpoints like home.php.
    if name.ends_with(".php") {
        return None;
    }
    let first = name.chars().next()?;
    if first.is_ascii_uppercase() || name.matches('.').count() >= 2 {
        Some(name)
    } else {
        None
    }
}

impl SocialStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one record.
    pub fn ingest(&mut self, record: &RecordView<'_>) {
        let class = RequestClass::of_view(record);
        let base = base_domain_of(record.url.host);
        let base = base.as_ref();
        if let Some(panel) = OSN_PANEL.iter().find(|d| **d == base) {
            self.osn.entry(panel).or_default().add(class);
        }
        if base == "facebook.com" {
            self.fb_total.add(class);
            let path = record.url.path;
            if is_plugin_path(path) {
                let sym = self.interner.intern(path);
                self.fb_plugins.entry(sym).or_default().add(class);
            } else if FB_HOSTS.contains(&record.url.host) {
                if let Some(page) = page_name(path) {
                    let sym = self.interner.intern(page);
                    let e = self.fb_pages.entry(sym).or_default();
                    e.0.add(class);
                    if record.categories.contains("Blocked sites") {
                        e.1 = true;
                    }
                }
            }
        }
    }

    /// Merge a shard, remapping its symbols into this table.
    pub fn merge(&mut self, other: SocialStats) {
        for (k, v) in other.osn {
            self.osn.entry(k).or_default().merge(&v);
        }
        let remap = self.interner.absorb_remap(&other.interner);
        for (k, (v, flag)) in other.fb_pages {
            let e = self.fb_pages.entry(remap[k.index()]).or_default();
            e.0.merge(&v);
            e.1 |= flag;
        }
        for (k, v) in other.fb_plugins {
            self.fb_plugins
                .entry(remap[k.index()])
                .or_default()
                .merge(&v);
        }
        self.fb_total.merge(&other.fb_total);
    }

    /// Counts for one plugin element path, if seen.
    pub fn fb_plugin_counts(&self, path: &str) -> Option<ClassCounts> {
        self.interner
            .get(path)
            .and_then(|sym| self.fb_plugins.get(&sym))
            .copied()
    }

    /// Counts and "Blocked sites" flag for one Facebook page, if seen.
    pub fn fb_page_counts(&self, page: &str) -> Option<(ClassCounts, bool)> {
        self.interner
            .get(page)
            .and_then(|sym| self.fb_pages.get(&sym))
            .copied()
    }

    /// Table 13 rows: OSNs by censored volume.
    pub fn top_censored_osns(&self, n: usize) -> Vec<(&'static str, ClassCounts)> {
        top_n_by_count(
            self.osn.iter().map(|(k, c)| ((*k, *c), c.censored)),
            n,
            |(k, _)| *k,
        )
        .into_iter()
        .map(|(row, _)| row)
        .collect()
    }

    /// OSNs with zero censored requests (the "not censored" finding).
    pub fn uncensored_osns(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self
            .osn
            .iter()
            .filter(|(_, c)| c.censored == 0 && c.allowed > 0)
            .map(|(k, _)| *k)
            .collect();
        v.sort();
        v
    }

    /// Render Table 13.
    pub fn render_table13(&self) -> String {
        let mut t = Table::new(
            "Table 13: Top censored social networks",
            &["OSN", "Censored", "Allowed", "Proxied"],
        );
        for (osn, c) in self.top_censored_osns(10) {
            t.row([
                osn.to_string(),
                c.censored.to_string(),
                c.allowed.to_string(),
                c.proxied.to_string(),
            ]);
        }
        t.render()
    }

    /// Render Table 14 (targeted Facebook pages).
    pub fn render_table14(&self) -> String {
        let mut t = Table::new(
            "Table 14: Facebook pages in the custom category",
            &["Page", "Censored", "Allowed", "Proxied"],
        );
        // Ties break by the resolved name: row order must not depend on
        // intern order.
        let rows = top_n_by_count(
            self.fb_pages
                .iter()
                .filter(|(_, (c, blocked))| *blocked || c.censored > 0)
                .map(|(sym, (c, _))| ((*sym, c), c.censored)),
            12,
            |(sym, _)| self.interner.resolve(*sym),
        );
        for ((sym, c), _) in rows {
            t.row([
                self.interner.resolve(sym).to_string(),
                c.censored.to_string(),
                c.allowed.to_string(),
                c.proxied.to_string(),
            ]);
        }
        t.render()
    }

    /// Render Table 15 (plugin elements, as shares of censored fb traffic).
    pub fn render_table15(&self) -> String {
        let mut t = Table::new(
            "Table 15: Facebook social-plugin elements",
            &["Element", "Censored", "Allowed", "Proxied"],
        );
        let rows = top_n_by_count(
            self.fb_plugins
                .iter()
                .map(|(sym, c)| ((*sym, c), c.censored)),
            10,
            |(sym, _)| self.interner.resolve(*sym),
        );
        let ctotal = self.fb_total.censored;
        for ((sym, c), _) in rows {
            t.row([
                self.interner.resolve(sym).to_string(),
                count_pct(c.censored, ctotal),
                c.allowed.to_string(),
                c.proxied.to_string(),
            ]);
        }
        t.render()
    }

    /// Share of censored facebook.com traffic explained by plugin elements
    /// (the paper: 99.9 %).
    pub fn plugin_share_of_censored_fb(&self) -> f64 {
        if self.fb_total.censored == 0 {
            return 0.0;
        }
        let plugin_censored: u64 = self.fb_plugins.values().map(|c| c.censored).sum();
        plugin_censored as f64 / self.fb_total.censored as f64
    }
}

impl crate::registry::Analysis for SocialStats {
    fn key(&self) -> &'static str {
        "social"
    }

    fn title(&self) -> &'static str {
        "Social-media censorship"
    }

    fn ingest(&mut self, _ctx: &crate::AnalysisContext, record: &RecordView<'_>) {
        SocialStats::ingest(self, record);
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        SocialStats::merge(self, crate::registry::downcast(other));
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        let mut out = self.render_table13();
        out.push('\n');
        out.push_str(&self.render_table14());
        out.push('\n');
        out.push_str(&self.render_table15());
        out
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        fn put_counts(w: &mut filterscope_core::ByteWriter, c: &ClassCounts) {
            w.put_u64(c.censored);
            w.put_u64(c.allowed);
            w.put_u64(c.proxied);
        }
        let mut osn: Vec<(&str, &ClassCounts)> = self.osn.iter().map(|(k, v)| (*k, v)).collect();
        osn.sort_unstable_by_key(|(k, _)| *k);
        crate::state::put_len(w, osn.len());
        for (name, c) in osn {
            w.put_str(name);
            put_counts(w, c);
        }
        let mut pages: Vec<(&str, &(ClassCounts, bool))> = self
            .fb_pages
            .iter()
            .map(|(s, v)| (self.interner.resolve(*s), v))
            .collect();
        pages.sort_unstable_by_key(|(k, _)| *k);
        crate::state::put_len(w, pages.len());
        for (name, (c, flag)) in pages {
            w.put_str(name);
            put_counts(w, c);
            w.put_u8(u8::from(*flag));
        }
        let mut plugins: Vec<(&str, &ClassCounts)> = self
            .fb_plugins
            .iter()
            .map(|(s, v)| (self.interner.resolve(*s), v))
            .collect();
        plugins.sort_unstable_by_key(|(k, _)| *k);
        crate::state::put_len(w, plugins.len());
        for (name, c) in plugins {
            w.put_str(name);
            put_counts(w, c);
        }
        put_counts(w, &self.fb_total);
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        fn counts(
            r: &mut filterscope_core::ByteReader<'_>,
        ) -> filterscope_core::Result<ClassCounts> {
            Ok(ClassCounts {
                censored: r.get_u64()?,
                allowed: r.get_u64()?,
                proxied: r.get_u64()?,
            })
        }
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let name = r.get_str()?;
            let panel = OSN_PANEL
                .iter()
                .find(|d| **d == name)
                .ok_or_else(|| crate::state::corrupt("unknown OSN panel entry"))?;
            let c = counts(r)?;
            self.osn.entry(panel).or_default().merge(&c);
        }
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let sym = self.interner.intern(r.get_str()?);
            let c = counts(r)?;
            let flag = r.get_u8()? != 0;
            let e = self.fb_pages.entry(sym).or_default();
            e.0.merge(&c);
            e.1 |= flag;
        }
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let sym = self.interner.intern(r.get_str()?);
            let c = counts(r)?;
            self.fb_plugins.entry(sym).or_default().merge(&c);
        }
        self.fb_total.merge(&counts(r)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn rec(host: &str, path: &str, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, path),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn osn_panel_counting() {
        let mut s = SocialStats::new();
        s.ingest(&rec("www.badoo.com", "/", true).as_view());
        s.ingest(&rec("twitter.com", "/home", false).as_view());
        s.ingest(&rec("unrelated.com", "/", true).as_view());
        assert_eq!(s.osn[&"badoo.com"].censored, 1);
        assert_eq!(s.osn[&"twitter.com"].allowed, 1);
        assert!(!s.osn.contains_key(&"unrelated.com"));
        assert_eq!(s.top_censored_osns(1)[0].0, "badoo.com");
        assert_eq!(s.uncensored_osns(), vec!["twitter.com"]);
    }

    #[test]
    fn plugin_paths_counted_with_denominator() {
        let mut s = SocialStats::new();
        s.ingest(&rec("www.facebook.com", "/plugins/like.php", true).as_view());
        s.ingest(&rec("www.facebook.com", "/extern/login_status.php", true).as_view());
        s.ingest(&rec("www.facebook.com", "/home.php", false).as_view());
        assert_eq!(s.fb_total.censored, 2);
        assert_eq!(s.fb_total.allowed, 1);
        assert_eq!(s.fb_plugin_counts("/plugins/like.php").unwrap().censored, 1);
        assert!((s.plugin_share_of_censored_fb() - 1.0).abs() < 1e-9);
        assert!(s.render_table15().contains("/plugins/like.php"));
    }

    #[test]
    fn page_detection_rules() {
        assert_eq!(page_name("/Syrian.Revolution"), Some("Syrian.Revolution"));
        assert_eq!(page_name("/syria.news.F.N.N"), Some("syria.news.F.N.N"));
        assert_eq!(page_name("/home.php"), None);
        assert_eq!(page_name("/plugins/like.php"), None);
        assert_eq!(page_name("/"), None);
        assert_eq!(page_name("/profile"), None); // lowercase single token
        assert_eq!(page_name("/DaysOfRage"), Some("DaysOfRage"));
    }

    #[test]
    fn blocked_sites_category_flags_pages() {
        let mut s = SocialStats::new();
        let blocked = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("www.facebook.com", "/Syrian.Revolution").with_query("ref=ts"),
        )
        .categories("Blocked sites; unavailable")
        .policy_redirect()
        .build();
        s.ingest(&blocked.as_view());
        // Allowed request to the same page with extended query.
        s.ingest(&rec("www.facebook.com", "/Syrian.Revolution", false).as_view());
        // An untargeted page never censored: excluded from Table 14.
        s.ingest(&rec("www.facebook.com", "/ShaamNewsNetwork", false).as_view());
        let rendered = s.render_table14();
        assert!(rendered.contains("Syrian.Revolution"));
        assert!(!rendered.contains("ShaamNewsNetwork"));
        let e = s.fb_page_counts("Syrian.Revolution").unwrap();
        assert_eq!(e.0.censored, 1);
        assert_eq!(e.0.allowed, 1);
        assert!(e.1);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = SocialStats::new();
        a.ingest(&rec("badoo.com", "/", true).as_view());
        let mut b = SocialStats::new();
        b.ingest(&rec("badoo.com", "/", true).as_view());
        b.ingest(&rec("www.facebook.com", "/plugins/like.php", true).as_view());
        a.merge(b);
        assert_eq!(a.osn[&"badoo.com"].censored, 2);
        assert_eq!(a.fb_total.censored, 1);
    }
}
