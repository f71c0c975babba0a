//! §5.4: recovering the censorship policy from the logs — keywords
//! (Table 10), URL/domain rules (Table 8) and their categories (Table 9).
//!
//! The paper's procedure is iterative and partly manual: identify a string
//! frequent in the censored set, verify it never occurs in the allowed set,
//! remove the requests it explains, repeat. This module automates the
//! candidate-generation step the authors did by hand:
//!
//! 1. **Keywords** — candidate tokens are maximal alphabetic runs of the
//!    censored `host+path+query` strings; a token is accepted when it (a)
//!    has enough censored support, (b) never appears in allowed traffic
//!    (PROXIED rows are considered separately, exactly as §5.4 does), and
//!    (c) spans several distinct base domains (a true *keyword* rule causes
//!    cross-domain collateral; a token confined to one domain is just that
//!    domain's censorship). Candidates containing an accepted shorter
//!    candidate are dropped (the minimal string explains them).
//! 2. **Domains** — after removing keyword-explained requests, a domain is
//!    *suspected* of URL-based filtering when it has enough censored
//!    support, zero allowed requests, and at least one censored request
//!    that is non-ambiguous ("bare": path `/`, empty query) — the paper's
//!    conservative-evidence rule. Suspected domains sharing the `.il` ccTLD
//!    collapse into a single `.il` entry, as in Table 8.

use crate::context::AnalysisContext;
use crate::derived::{Columns, Derived};
use crate::report::{count_pct, Table};
use filterscope_categorizer::Category;
use filterscope_core::{Interner, Sym};
use filterscope_logformat::{PolicyClass, RecordView, RequestClass};
use filterscope_match::AcDfa;
use filterscope_proxy::ProfileKind;
use filterscope_stats::CountMap;
use std::collections::{HashMap, HashSet};

/// Per-domain evidence.
#[derive(Debug, Clone, Default)]
pub struct DomainEvidence {
    pub censored: u64,
    pub allowed: u64,
    pub proxied: u64,
    /// Censored *and* bare (non-ambiguous) requests.
    pub censored_bare: u64,
    /// Censored requests NOT explained by a known keyword.
    pub censored_unkeyworded: u64,
}

/// Per-token evidence for keyword recovery.
#[derive(Debug, Clone, Default)]
struct TokenEvidence {
    censored: u64,
    allowed: u64,
    proxied: u64,
    domains: HashSet<Sym>,
}

/// The §5.4 inference engine. Token and domain keys are interned ([`Sym`])
/// into one shared string table; [`FilterInference::merge`] remaps the
/// absorbed shard's symbols, and the recover/render paths resolve back to
/// strings before any ordering decision.
pub struct FilterInference {
    /// Matcher over the candidate keyword list the operator supplies (the
    /// paper's "manually identified" strings). Used for Table 10 counts and
    /// for keyword-explained request removal.
    known: AcDfa,
    known_strings: Vec<String>,
    interner: Interner,
    tokens: HashMap<Sym, TokenEvidence>,
    domains: HashMap<Sym, DomainEvidence>,
    /// Scratch buffer for the per-record filter view (host+path+query),
    /// reused across records.
    view_buf: String,
    /// Scratch buffer holding the lowercased view for tokenization.
    lower_buf: String,
    /// Per-record known-keyword hits (reused scratch).
    hits: Vec<usize>,
    /// Per-record token dedup scratch (token sets per URL are tiny, so a
    /// linear-scanned Vec beats a hash set).
    token_scratch: Vec<Sym>,
    /// Per-known-keyword (censored, allowed, proxied) counts.
    pub keyword_counts: Vec<(u64, u64, u64)>,
}

/// Minimum and maximum token length considered.
const TOKEN_LEN: std::ops::RangeInclusive<usize> = 4..=15;

impl FilterInference {
    /// Start an inference with the given candidate keyword list (commonly
    /// [`filterscope_proxy::config::KEYWORDS`]).
    pub fn new(candidates: &[&str]) -> Self {
        FilterInference {
            known: AcDfa::build(candidates),
            known_strings: candidates.iter().map(|s| s.to_string()).collect(),
            interner: Interner::new(),
            tokens: HashMap::new(),
            domains: HashMap::new(),
            view_buf: String::new(),
            lower_buf: String::new(),
            hits: Vec::new(),
            token_scratch: Vec::new(),
            keyword_counts: vec![(0, 0, 0); candidates.len()],
        }
    }

    /// The derived columns the ingest body reads.
    pub const COLUMNS: Columns = Columns::CLASS.with(Columns::POLICY).with(Columns::BASE);

    /// Ingest a block whose `derived` holds [`FilterInference::COLUMNS`].
    pub fn ingest_block(&mut self, block: &[RecordView<'_>], derived: &Derived<'_>) {
        for (i, record) in block.iter().enumerate() {
            self.add(record, derived.class(i), derived.policy(i), derived.base(i));
        }
    }

    /// The ingest body. §5.4 treats PROXIED separately from OBSERVED (a
    /// PROXIED row is not evidence of "allowed"), hence both classes.
    pub(crate) fn add(
        &mut self,
        record: &RecordView<'_>,
        class: RequestClass,
        policy: PolicyClass,
        base: &str,
    ) {
        self.view_buf.clear();
        record.url.filter_view_into(&mut self.view_buf);
        let view = &self.view_buf;
        let domain = self.interner.intern(base);

        // Known-keyword counting (Table 10 columns).
        self.known
            .matching_patterns_into(view.as_bytes(), &mut self.hits);
        for &k in &self.hits {
            let c = &mut self.keyword_counts[k];
            match class {
                RequestClass::Proxied => c.2 += 1,
                _ => match policy {
                    PolicyClass::Censored => c.0 += 1,
                    PolicyClass::Allowed => c.1 += 1,
                    PolicyClass::Error => {}
                },
            }
        }

        // Domain evidence.
        let d = self.domains.entry(domain).or_default();
        match class {
            RequestClass::Proxied => d.proxied += 1,
            RequestClass::Censored => {
                d.censored += 1;
                if record.url.is_bare() {
                    d.censored_bare += 1;
                }
                if self.hits.is_empty() {
                    d.censored_unkeyworded += 1;
                }
            }
            RequestClass::Allowed => d.allowed += 1,
            RequestClass::Error => {}
        }

        // Token evidence: maximal alphabetic runs of the lowercased view,
        // each counted once per record. Tokenization runs entirely in the
        // reusable scratch buffers — no per-record allocation once warm.
        // Memory stays bounded by distinct alphabetic tokens in the corpus.
        if matches!(class, RequestClass::Error) {
            return;
        }
        self.lower_buf.clear();
        self.lower_buf.push_str(view);
        self.lower_buf.make_ascii_lowercase();
        self.token_scratch.clear();
        for run in self.lower_buf.split(|c: char| !c.is_ascii_alphabetic()) {
            if !TOKEN_LEN.contains(&run.len()) {
                continue;
            }
            let sym = self.interner.intern(run);
            if self.token_scratch.contains(&sym) {
                continue;
            }
            self.token_scratch.push(sym);
            let e = self.tokens.entry(sym).or_default();
            match class {
                RequestClass::Censored => {
                    e.censored += 1;
                    e.domains.insert(domain);
                }
                RequestClass::Allowed => e.allowed += 1,
                RequestClass::Proxied => e.proxied += 1,
                RequestClass::Error => unreachable!("handled above"),
            }
        }
    }

    /// Merge a shard, remapping its symbols into this table.
    pub fn merge(&mut self, other: FilterInference) {
        for (mine, theirs) in self.keyword_counts.iter_mut().zip(other.keyword_counts) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
            mine.2 += theirs.2;
        }
        let remap = self.interner.absorb_remap(&other.interner);
        for (k, v) in other.domains {
            let d = self.domains.entry(remap[k.index()]).or_default();
            d.censored += v.censored;
            d.allowed += v.allowed;
            d.proxied += v.proxied;
            d.censored_bare += v.censored_bare;
            d.censored_unkeyworded += v.censored_unkeyworded;
        }
        for (k, v) in other.tokens {
            let e = self.tokens.entry(remap[k.index()]).or_default();
            e.censored += v.censored;
            e.allowed += v.allowed;
            e.proxied += v.proxied;
            e.domains.extend(v.domains.iter().map(|d| remap[d.index()]));
        }
    }

    /// Recover the keyword blacklist: tokens with `min_support` censored
    /// occurrences, zero allowed occurrences, spanning ≥ `min_domains` base
    /// domains; superstrings of accepted candidates are dropped.
    pub fn recover_keywords(&self, min_support: u64, min_domains: usize) -> Vec<String> {
        // Resolve symbols up front: every ordering below must depend on the
        // token text, never on intern order.
        let mut cands: Vec<(&str, u64)> = self
            .tokens
            .iter()
            .filter(|(_, e)| {
                e.censored >= min_support && e.allowed == 0 && e.domains.len() >= min_domains
            })
            .map(|(t, e)| (self.interner.resolve(*t), e.censored))
            .collect();
        // Shortest first so minimal strings win the substring filter; break
        // ties by support then lexicographically for determinism.
        cands.sort_by(|a, b| {
            a.0.len()
                .cmp(&b.0.len())
                .then(b.1.cmp(&a.1))
                .then(a.0.cmp(b.0))
        });
        let mut accepted: Vec<String> = Vec::new();
        for (t, _) in cands {
            if !accepted.iter().any(|a| t.contains(a.as_str())) {
                accepted.push(t.to_string());
            }
        }
        // Order by censored support, Table 10 style.
        accepted.sort_by_key(|t| {
            std::cmp::Reverse(
                self.interner
                    .get(t)
                    .map_or(0, |sym| self.tokens[&sym].censored),
            )
        });
        accepted
    }

    /// Recover the suspected URL-filtered domain list (Table 8 input).
    pub fn recover_domains(&self, min_support: u64) -> Vec<(String, DomainEvidence)> {
        let mut out: Vec<(String, DomainEvidence)> = self
            .domains
            .iter()
            .filter(|(_, e)| {
                e.censored >= min_support
                    && e.allowed == 0
                    && e.censored_bare > 0
                    && e.censored_unkeyworded > 0
            })
            .map(|(d, e)| (self.interner.resolve(*d).to_string(), e.clone()))
            .collect();
        // Collapse .il domains into a single entry when several exist.
        let il: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, (d, _))| d.ends_with(".il"))
            .map(|(i, _)| i)
            .collect();
        if il.len() >= 2 {
            let mut merged = DomainEvidence::default();
            for i in &il {
                let e = &out[*i].1;
                merged.censored += e.censored;
                merged.allowed += e.allowed;
                merged.proxied += e.proxied;
                merged.censored_bare += e.censored_bare;
                merged.censored_unkeyworded += e.censored_unkeyworded;
            }
            for i in il.iter().rev() {
                out.remove(*i);
            }
            out.push((".il".to_string(), merged));
        }
        out.sort_by(|a, b| b.1.censored.cmp(&a.1.censored).then(a.0.cmp(&b.0)));
        out
    }

    /// Export the recovered policy as [`filterscope_proxy::PolicyData`]:
    /// the recovered keyword blacklist plus the suspected-domain list
    /// (subnet and custom-category rules are not recoverable from domain
    /// evidence alone — see [`crate::ip_censorship`] and
    /// [`crate::social`] for those signals).
    pub fn export_policy(
        &self,
        min_support: u64,
        min_domains: usize,
    ) -> filterscope_proxy::PolicyData {
        let mut policy = filterscope_proxy::PolicyData::empty();
        policy.keywords = self.recover_keywords(min_support, min_domains);
        policy.blocked_domains = self
            .recover_domains(min_support)
            .into_iter()
            .map(|(d, _)| d.trim_start_matches('.').to_string())
            .collect();
        policy
    }

    /// Total censored requests seen (denominator for Table 8/10 percents).
    pub fn total_censored(&self) -> u64 {
        self.domains.values().map(|e| e.censored).sum()
    }

    /// Render Table 8 (top suspected domains).
    pub fn render_table8(&self, min_support: u64) -> String {
        let mut t = Table::new(
            "Table 8: Top domains suspected of URL-based filtering",
            &["Domain", "Censored", "Allowed", "Proxied"],
        );
        let total = self.total_censored();
        for (d, e) in self.recover_domains(min_support).into_iter().take(10) {
            t.row([
                d,
                count_pct(e.censored, total),
                e.allowed.to_string(),
                e.proxied.to_string(),
            ]);
        }
        t.render()
    }

    /// Table 9: categorize the suspected domains.
    pub fn categorize_suspected(
        &self,
        ctx: &AnalysisContext,
        min_support: u64,
    ) -> Vec<(Category, usize, u64)> {
        let mut per_cat: CountMap<Category> = CountMap::new();
        let mut domains_per_cat: CountMap<Category> = CountMap::new();
        for (d, e) in self.recover_domains(min_support) {
            // `.il` is geographic, not topical: categorize a representative
            // host for it, which lands in Unknown unless registered.
            let cat = ctx.categories.categorize(d.trim_start_matches('.'));
            per_cat.add(cat, e.censored);
            domains_per_cat.bump(cat);
        }
        let mut out: Vec<(Category, usize, u64)> = per_cat
            .iter()
            .map(|(c, n)| (*c, domains_per_cat.get(c) as usize, n))
            .collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        out
    }

    /// Render Table 9.
    pub fn render_table9(&self, ctx: &AnalysisContext, min_support: u64) -> String {
        let mut t = Table::new(
            "Table 9: Top domain categories censored by URL",
            &["Category (#domains)", "Censored requests"],
        );
        let total = self.total_censored();
        for (cat, nd, n) in self
            .categorize_suspected(ctx, min_support)
            .into_iter()
            .take(10)
        {
            t.row([format!("{} ({nd})", cat.name()), count_pct(n, total)]);
        }
        t.render()
    }

    /// Serialize accumulated evidence (the [`crate::registry::Analysis::save_state`]
    /// contract, inherent so [`crate::weather::WeatherReport`] can reuse it
    /// for its per-day engines).
    pub(crate) fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        crate::state::put_len(w, self.keyword_counts.len());
        for (c, a, p) in &self.keyword_counts {
            w.put_u64(*c);
            w.put_u64(*a);
            w.put_u64(*p);
        }
        let mut doms: Vec<(&str, &DomainEvidence)> = self
            .domains
            .iter()
            .map(|(s, e)| (self.interner.resolve(*s), e))
            .collect();
        doms.sort_unstable_by_key(|(s, _)| *s);
        crate::state::put_len(w, doms.len());
        for (name, e) in doms {
            w.put_str(name);
            w.put_u64(e.censored);
            w.put_u64(e.allowed);
            w.put_u64(e.proxied);
            w.put_u64(e.censored_bare);
            w.put_u64(e.censored_unkeyworded);
        }
        let mut toks: Vec<(&str, &TokenEvidence)> = self
            .tokens
            .iter()
            .map(|(s, e)| (self.interner.resolve(*s), e))
            .collect();
        toks.sort_unstable_by_key(|(s, _)| *s);
        crate::state::put_len(w, toks.len());
        for (name, e) in toks {
            w.put_str(name);
            w.put_u64(e.censored);
            w.put_u64(e.allowed);
            w.put_u64(e.proxied);
            let mut ds: Vec<&str> = e
                .domains
                .iter()
                .map(|d| self.interner.resolve(*d))
                .collect();
            ds.sort_unstable();
            crate::state::put_len(w, ds.len());
            for d in ds {
                w.put_str(d);
            }
        }
    }

    /// Add persisted evidence back in (see [`FilterInference::save_state`]).
    pub(crate) fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        if crate::state::get_len(r)? != self.keyword_counts.len() {
            return Err(crate::state::corrupt("known-keyword list mismatch"));
        }
        for counts in self.keyword_counts.iter_mut() {
            counts.0 += r.get_u64()?;
            counts.1 += r.get_u64()?;
            counts.2 += r.get_u64()?;
        }
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let sym = self.interner.intern(r.get_str()?);
            let d = self.domains.entry(sym).or_default();
            d.censored += r.get_u64()?;
            d.allowed += r.get_u64()?;
            d.proxied += r.get_u64()?;
            d.censored_bare += r.get_u64()?;
            d.censored_unkeyworded += r.get_u64()?;
        }
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let sym = self.interner.intern(r.get_str()?);
            let (censored, allowed, proxied) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
            let m = crate::state::get_len(r)?;
            let mut domains = Vec::with_capacity(m);
            for _ in 0..m {
                domains.push(self.interner.intern(r.get_str()?));
            }
            let e = self.tokens.entry(sym).or_default();
            e.censored += censored;
            e.allowed += allowed;
            e.proxied += proxied;
            e.domains.extend(domains);
        }
        Ok(())
    }

    /// Render Table 10 (the known keyword list with per-class counts).
    pub fn render_table10(&self) -> String {
        let mut t = Table::new(
            "Table 10: Censored keywords",
            &["Keyword", "Censored", "Allowed", "Proxied"],
        );
        let total = self.total_censored();
        let mut rows: Vec<(usize, &String)> = self.known_strings.iter().enumerate().collect();
        rows.sort_by_key(|(i, _)| std::cmp::Reverse(self.keyword_counts[*i].0));
        for (i, kw) in rows {
            let (c, a, p) = self.keyword_counts[i];
            t.row([
                kw.clone(),
                count_pct(c, total),
                a.to_string(),
                p.to_string(),
            ]);
        }
        t.render()
    }
}

/// [`FilterInference`] lifted into the registry: the trait's `render` and
/// `export_json` take no thresholds, so the suite-level `min_support` rides
/// along with the accumulator.
pub struct InferenceAnalysis {
    pub inner: FilterInference,
    pub min_support: u64,
}

impl InferenceAnalysis {
    /// Inference over `candidates` with the suite's evidence threshold.
    pub fn new(candidates: &[&str], min_support: u64) -> Self {
        InferenceAnalysis {
            inner: FilterInference::new(candidates),
            min_support,
        }
    }
}

impl crate::registry::Analysis for InferenceAnalysis {
    fn ingest_block(
        &mut self,
        _ctx: &AnalysisContext,
        block: &[RecordView<'_>],
        derived: &Derived<'_>,
    ) {
        self.inner.ingest_block(block, derived);
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: InferenceAnalysis = crate::registry::downcast(other);
        self.inner.merge(other.inner);
    }

    fn headline(&self) -> u64 {
        self.inner
            .keyword_counts
            .iter()
            .map(|(censored, _, _)| censored)
            .sum()
    }

    fn render(&self, ctx: &AnalysisContext) -> String {
        let mut out = self.inner.render_table8(self.min_support);
        out.push('\n');
        out.push_str(&self.inner.render_table9(ctx, self.min_support));
        out.push('\n');
        out.push_str(&self.inner.render_table10());
        out
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        self.inner.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        self.inner.load_state(r)
    }

    fn export_json(&self, _ctx: &AnalysisContext) -> Option<filterscope_core::Json> {
        use crate::export::string_array;
        use filterscope_core::Json;
        let domains: Vec<String> = self
            .inner
            .recover_domains(self.min_support)
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        let mut obj = Json::object();
        obj.push(
            "recovered_keywords",
            string_array(&self.inner.recover_keywords(self.min_support, 3)),
        );
        obj.push("recovered_domains", string_array(&domains));
        Some(obj)
    }
}

/// Classify one record's censorship mechanism from its on-disk signature
/// alone — no generator state, no policy knowledge. Returns `None` for
/// records that are not visibly censored (no policy exception).
///
/// The signature table (see `filterscope_proxy::profile`):
///
/// * `PROXIED` + policy exception → a caching proxy (`blue-coat`);
/// * status `-` (0) with zero bytes → the name never resolved
///   (`dns-poison`);
/// * status `-` (0) with a partial body → a torn connection (`tcp-rst`);
/// * `OBSERVED` + policy exception → an injected success (`blockpage`);
/// * anything else (403/302 denials) → a forward proxy (`blue-coat`).
pub fn classify_mechanism_view(view: &RecordView<'_>) -> Option<ProfileKind> {
    use filterscope_logformat::FilterResult;
    if !view.exception_is_policy() {
        return None;
    }
    Some(match view.filter_result {
        FilterResult::Proxied => ProfileKind::BlueCoat,
        _ if view.sc_status == 0 && view.sc_bytes == 0 => ProfileKind::DnsPoison,
        _ if view.sc_status == 0 => ProfileKind::TcpRst,
        FilterResult::Observed => ProfileKind::BlockpageInject,
        FilterResult::Denied => ProfileKind::BlueCoat,
    })
}

/// The mechanism-recovery stage: every visibly censored record votes for
/// the mechanism its signature matches, and the trace's censor is the
/// majority vote with its share as confidence — a headline the source
/// paper could not produce, since it only ever saw one censor.
#[derive(Debug, Clone, Default)]
pub struct MechanismInference {
    /// Votes per mechanism, indexed by [`ProfileKind::index`].
    votes: [u64; 4],
}

impl MechanismInference {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Votes for one mechanism.
    pub fn votes_for(&self, kind: ProfileKind) -> u64 {
        self.votes[kind.index()]
    }

    /// Total censored records that voted.
    pub fn total(&self) -> u64 {
        self.votes.iter().sum()
    }

    /// The recovered mechanism and its confidence (winning share of the
    /// censored votes), or `None` when no record voted. Ties resolve to
    /// the earlier entry of [`ProfileKind::ALL`], deterministically.
    pub fn verdict(&self) -> Option<(ProfileKind, f64)> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let winner = ProfileKind::ALL
            .into_iter()
            .max_by_key(|k| (self.votes[k.index()], std::cmp::Reverse(k.index())))
            .expect("ALL is non-empty");
        Some((winner, self.votes[winner.index()] as f64 / total as f64))
    }

    /// Render the vote table plus the verdict line.
    pub fn render_table(&self) -> String {
        let total = self.total();
        let mut t = Table::new(
            "Mechanism inference: censor fingerprint from log signatures",
            &["Mechanism", "Censored votes"],
        );
        for kind in ProfileKind::ALL {
            t.row([
                kind.name().to_string(),
                count_pct(self.votes[kind.index()], total),
            ]);
        }
        let mut out = t.render();
        match self.verdict() {
            Some((kind, confidence)) => {
                out.push_str(&format!(
                    "inferred mechanism: {} (confidence {:.2}%, {} censored records)\n",
                    kind.name(),
                    confidence * 100.0,
                    total
                ));
            }
            None => out.push_str("inferred mechanism: none (no censored records)\n"),
        }
        out
    }
}

impl crate::registry::Analysis for MechanismInference {
    fn ingest_block(
        &mut self,
        _ctx: &AnalysisContext,
        block: &[RecordView<'_>],
        _derived: &Derived<'_>,
    ) {
        // Only visibly censored records vote.
        for record in block {
            if let Some(kind) = classify_mechanism_view(record) {
                self.votes[kind.index()] += 1;
            }
        }
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: MechanismInference = crate::registry::downcast(other);
        for (mine, theirs) in self.votes.iter_mut().zip(other.votes) {
            *mine += theirs;
        }
    }

    fn headline(&self) -> u64 {
        self.total()
    }

    fn render(&self, _ctx: &AnalysisContext) -> String {
        self.render_table()
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        for v in &self.votes {
            w.put_u64(*v);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        for v in self.votes.iter_mut() {
            *v += r.get_u64()?;
        }
        Ok(())
    }

    fn export_json(&self, _ctx: &AnalysisContext) -> Option<filterscope_core::Json> {
        use filterscope_core::Json;
        let mut votes = Json::object();
        for kind in ProfileKind::ALL {
            votes.push(kind.name(), Json::UInt(self.votes[kind.index()]));
        }
        let mut obj = Json::object();
        match self.verdict() {
            Some((kind, confidence)) => {
                obj.push("mechanism", Json::Str(kind.name().to_string()));
                obj.push("mechanism_confidence", Json::Float(confidence));
            }
            None => {
                obj.push("mechanism", Json::Str("none".to_string()));
                obj.push("mechanism_confidence", Json::Float(0.0));
            }
        }
        obj.push("mechanism_votes", votes);
        Some(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed, Analysis};
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn rec(host: &str, path: &str, query: &str, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, path).with_query(query),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    fn engine() -> InferenceAnalysis {
        InferenceAnalysis::new(&filterscope_proxy::config::KEYWORDS, 0)
    }

    #[test]
    fn mechanism_recovery_follows_profile_signatures() {
        use filterscope_proxy::{FarmConfig, ProxyFarm, Request};
        let ts = Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap();
        for kind in ProfileKind::ALL {
            let farm = ProxyFarm::new(
                FarmConfig {
                    profile: kind,
                    ..FarmConfig::default()
                },
                None,
            );
            let mut m = MechanismInference::new();
            for i in 0..300 {
                // A mix of keyword-, domain- and redirect-censored URLs
                // plus allowed traffic, as a real trace would have.
                for url in [
                    RequestUrl::http("metacafe.com", format!("/watch/{i}")),
                    RequestUrl::http("upload.youtube.com", format!("/up/{i}")),
                    RequestUrl::http(format!("ok{i}.example"), "/index.html"),
                ] {
                    feed(&mut m, &[farm.process(&Request::get(ts, url))]);
                }
            }
            let (got, confidence) = m.verdict().expect("censored records voted");
            assert_eq!(got, kind, "recovered {got:?} from a {kind:?} trace");
            assert!(
                confidence >= 0.95,
                "{kind:?} confidence {confidence} below 0.95"
            );
        }
    }

    #[test]
    fn mechanism_merge_is_associative_and_empty_has_no_verdict() {
        assert_eq!(MechanismInference::new().verdict(), None);
        let censored = rec("metacafe.com", "/", "", true);
        let allowed = rec("ok.example", "/", "", false);
        let mut single = MechanismInference::new();
        feed(
            &mut single,
            &[censored.clone(), allowed.clone(), censored.clone()],
        );
        let mut a = MechanismInference::new();
        feed(&mut a, std::slice::from_ref(&censored));
        let mut b = MechanismInference::new();
        feed(&mut b, &[allowed, censored]);
        a.merge(Box::new(b));
        assert_eq!(a.verdict(), single.verdict());
        assert_eq!(a.total(), 2, "allowed records must not vote");
        assert_eq!(a.votes_for(ProfileKind::BlueCoat), 2);
    }

    #[test]
    fn recovers_cross_domain_keyword() {
        let mut f = engine();
        // "proxy" appears censored on three distinct domains...
        for i in 0..30 {
            feed(
                &mut f,
                &[
                    rec("a.com", &format!("/x/proxy/{i}"), "", true),
                    rec("b.com", "/api/proxy", "", true),
                    rec("c.net", "/", "go=proxy", true),
                ],
            );
            // ...while "api" also appears in allowed traffic.
            feed(&mut f, &[rec("d.com", "/api/ok", "", false)]);
            // a.com also has allowed traffic, so it's not a domain rule.
            feed(&mut f, &[rec("a.com", "/fine", "", false)]);
        }
        let kws = f.inner.recover_keywords(10, 3);
        assert_eq!(kws, vec!["proxy".to_string()]);
    }

    #[test]
    fn single_domain_token_is_not_a_keyword() {
        let mut f = engine();
        for i in 0..50 {
            feed(
                &mut f,
                &[
                    rec("metacafe.com", &format!("/watch/{i}"), "", true),
                    rec("metacafe.com", "/", "", true),
                ],
            );
        }
        assert!(f.inner.recover_keywords(10, 3).is_empty());
        // But metacafe.com is recovered as a suspected domain.
        let doms = f.inner.recover_domains(10);
        assert_eq!(doms.len(), 1);
        assert_eq!(doms[0].0, "metacafe.com");
        assert_eq!(doms[0].1.allowed, 0);
    }

    #[test]
    fn superstrings_of_keywords_are_dropped() {
        let mut f = engine();
        for i in 0..30 {
            feed(
                &mut f,
                &[
                    rec(&format!("h{}.com", i % 5), "/tbproxy/af", "", true),
                    rec(&format!("g{}.com", i % 5), "/webproxy/x", "", true),
                    rec(&format!("k{}.com", i % 5), "/", "p=proxy", true),
                ],
            );
        }
        let kws = f.inner.recover_keywords(10, 3);
        assert_eq!(kws, vec!["proxy".to_string()]);
    }

    #[test]
    fn allowed_occurrence_kills_candidate() {
        let mut f = engine();
        for i in 0..30 {
            feed(
                &mut f,
                &[rec(&format!("h{}.com", i % 5), "/special/thing", "", true)],
            );
        }
        // One allowed occurrence anywhere kills it.
        feed(&mut f, &[rec("ok.com", "/special/page", "", false)]);
        assert!(!f
            .inner
            .recover_keywords(10, 3)
            .contains(&"special".to_string()));
        assert!(f
            .inner
            .recover_keywords(10, 3)
            .contains(&"thing".to_string()));
    }

    #[test]
    fn domain_needs_bare_evidence_and_no_allowed() {
        let mut f = engine();
        // Censored but never bare: ambiguous, not suspected.
        for i in 0..20 {
            feed(
                &mut f,
                &[rec("amb.com", &format!("/deep/{i}"), "q=1", true)],
            );
        }
        // Censored with bare evidence: suspected.
        for _ in 0..20 {
            feed(&mut f, &[rec("clear.com", "/", "", true)]);
        }
        // Censored and bare but also allowed: not suspected.
        for _ in 0..20 {
            feed(&mut f, &[rec("mixed.com", "/", "", true)]);
        }
        feed(&mut f, &[rec("mixed.com", "/other", "", false)]);
        let doms: Vec<String> = f
            .inner
            .recover_domains(10)
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        assert_eq!(doms, vec!["clear.com".to_string()]);
    }

    #[test]
    fn keyword_explained_domains_are_excluded() {
        let mut f = engine();
        // kproxy.com: every censored request contains the keyword `proxy`
        // (in the hostname), so domain-rule inference must skip it.
        for _ in 0..20 {
            feed(&mut f, &[rec("kproxy.com", "/", "", true)]);
        }
        assert!(f.inner.recover_domains(10).is_empty());
    }

    #[test]
    fn il_domains_collapse() {
        let mut f = engine();
        for _ in 0..20 {
            feed(
                &mut f,
                &[
                    rec("panet.co.il", "/", "", true),
                    rec("haaretz.co.il", "/", "", true),
                    rec("ynet.co.il", "/", "", true),
                ],
            );
        }
        let doms = f.inner.recover_domains(10);
        assert_eq!(doms.len(), 1);
        assert_eq!(doms[0].0, ".il");
        assert_eq!(doms[0].1.censored, 60);
    }

    #[test]
    fn table10_counts_known_keywords_per_class() {
        let mut f = engine();
        feed(
            &mut f,
            &[
                rec("x.com", "/get/ultrasurf.exe", "", true),
                rec("y.com", "/w", "q=israel", true),
            ],
        );
        // Proxied row with a keyword.
        let prox = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("z.com", "/p").with_query("v=proxy"),
        )
        .proxied()
        .build();
        feed(&mut f, &[prox]);
        let ix = |k: &str| {
            filterscope_proxy::config::KEYWORDS
                .iter()
                .position(|s| *s == k)
                .unwrap()
        };
        assert_eq!(f.inner.keyword_counts[ix("ultrasurf")].0, 1);
        assert_eq!(f.inner.keyword_counts[ix("israel")].0, 1);
        assert_eq!(f.inner.keyword_counts[ix("proxy")].2, 1);
        let s = f.inner.render_table10();
        assert!(s.contains("ultrasurf"));
    }

    #[test]
    fn table9_uses_categories() {
        let ctx = AnalysisContext::standard(None);
        let mut f = engine();
        for _ in 0..20 {
            feed(
                &mut f,
                &[
                    rec("skype.com", "/", "", true),
                    rec("metacafe.com", "/", "", true),
                ],
            );
        }
        let cats = f.inner.categorize_suspected(&ctx, 10);
        assert!(cats
            .iter()
            .any(|(c, nd, n)| *c == Category::InstantMessaging && *nd == 1 && *n == 20));
        assert!(cats.iter().any(|(c, _, _)| *c == Category::StreamingMedia));
    }
}
