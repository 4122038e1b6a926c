//! Per-query structured event journal with tail-latency exemplars.
//!
//! Aggregate histograms ([`crate::metrics`]) answer "what does the
//! pipeline cost overall"; this module answers the production question
//! they erase: *which individual queries were slow, and why*. Each
//! completed query may emit one [`QueryRecord`] — phase-by-phase
//! nanoseconds, scratch peak, stream-merge push/reject counts, and the
//! retry/fallback outcome from the resilience layer — into an
//! [`EventJournal`]:
//!
//! * **lock-striped bounded buffers** — records land in one of several
//!   independently locked ring buffers (stripe chosen by query id), so
//!   concurrent rayon workers rarely contend; each stripe is bounded
//!   and evicts its oldest record when full (evictions are counted,
//!   never silent);
//! * **head-based probabilistic sampling** — a deterministic hash of
//!   the query id (seeded SplitMix64) decides *up front* whether a
//!   query's record is retained in the ring, so the sampling decision
//!   is reproducible across runs and costs one multiply per query;
//! * **always-keep exemplars** — independent of sampling, the top-E
//!   slowest records (bounded min-heap keyed on total latency) are
//!   always retained, so the tail can never be sampled away.
//!
//! This module deliberately reads **no clocks**: every nanosecond value
//! arrives pre-measured (wall-clock from the cfg-gated `knn::metered`
//! call sites, simulated time from the resilient pipeline). `cargo
//! xtask lint` scans this file under the `no-wall-clock` rule with no
//! allowlist entries.
//!
//! Export is JSONL — one self-describing JSON object per line, each
//! carrying [`SCHEMA_VERSION`] — parsed back by [`parse_jsonl`], which
//! rejects unknown major versions. `knn-cli report` and `cargo xtask
//! slogate` consume this format.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Serialize, Value};

use crate::schema;

/// Version stamped on every journal line (`schema_version`); see
/// [`crate::schema`] for the compatibility rule. 1.1 added the
/// `worker` field (the pipeline worker that serviced the query);
/// 1.0 lines still parse, defaulting `worker` to 0.
pub const SCHEMA_VERSION: &str = "1.1";

/// Phase-name keys the knn pipelines record under. The journal accepts
/// any name; these are the ones `knn-cli report` knows how to group.
pub mod phases {
    /// One query end to end on the former materialized row path. No
    /// current pipeline records it; older journals may carry it.
    pub const QUERY: &str = "query";
    /// Distance-row fill (former materialized path, as [`QUERY`]).
    pub const ROW_FILL: &str = "row_fill";
    /// Full-row k-selection (former materialized path, as [`QUERY`]).
    pub const ROW_SELECT: &str = "row_select";
    /// Distance fill of one reference tile (streamed path, summed).
    pub const TILE_FILL: &str = "tile_fill";
    /// Per-tile threshold scan into the top-k buffer (streamed path,
    /// summed).
    pub const TILE_SELECT: &str = "tile_select";
    /// Per-tile cut of the top-k buffer back to k, plus the final sort
    /// on the query's last tile (streamed path, summed).
    pub const TILE_MERGE: &str = "tile_merge";
    /// Distance kernel share (simulated resilient pipeline).
    pub const DISTANCE: &str = "distance";
    /// Selection kernel share (simulated resilient pipeline).
    pub const SELECT: &str = "select";
    /// Retry backoff share (simulated resilient pipeline).
    pub const BACKOFF: &str = "backoff";
    /// Host-fallback transfer share (simulated resilient pipeline).
    pub const FALLBACK: &str = "fallback";
    /// Simulated time a request waited in the admission queue before
    /// service started (serving layer).
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Input upload over the (possibly faulted) PCIe link (serving
    /// layer).
    pub const UPLOAD: &str = "upload";
}

/// One sampled (or exemplar) query, frozen as plain data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryRecord {
    /// Journal-global admission sequence number (assigned by
    /// [`EventJournal::record`]; query ids may legitimately repeat
    /// across sweep combinations or campaign seeds).
    pub seq: u64,
    /// Semantic query index within its run.
    pub query: u64,
    /// Queue kind the query was selected with (`merge`/`heap`/...).
    pub queue: String,
    /// Free-form run context (campaign seed, bench label; may be empty).
    pub tag: String,
    /// Streaming tile size (0 on the simulated pipelines, which have
    /// no tiles).
    pub tile: u64,
    /// End-to-end latency, nanoseconds (wall-clock on native paths,
    /// simulated on the resilient pipeline).
    pub total_ns: u64,
    /// Per-phase nanoseconds, in recording order (see [`phases`]).
    pub phase_ns: Vec<(String, u64)>,
    /// Distance-scratch bytes attributable to this query.
    pub scratch_bytes: u64,
    /// Candidates this query appended to its top-k buffer: the values
    /// below its running k-th distance.
    pub merge_push: u64,
    /// Candidates the cuts back to k dropped.
    pub merge_reject: u64,
    /// Distance-kernel blocks (reference tiles) crossed.
    pub blocks: u32,
    /// Outcome: `ok`, `recovered`, `fallback` or `failed`
    /// (`kselect::gpu::QueryStatus::name` spelling).
    pub status: String,
    /// Kernel attempts consumed (1 for a clean first attempt).
    pub attempts: u32,
    /// Pipeline worker that serviced the query (0 on sequential
    /// paths and in pre-1.1 journals).
    pub worker: u32,
    /// Retained by the exemplar heap (set at snapshot time).
    pub exemplar: bool,
}

impl QueryRecord {
    /// The phase with the largest recorded share, ignoring the
    /// whole-query envelope phase (which contains the others).
    pub fn dominant_phase(&self) -> Option<(&str, u64)> {
        self.phase_ns
            .iter()
            .filter(|(name, _)| name != phases::QUERY)
            .max_by_key(|(_, ns)| *ns)
            .map(|(name, ns)| (name.as_str(), *ns))
    }
}

impl Serialize for QueryRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "schema_version".into(),
                Value::Str(SCHEMA_VERSION.to_string()),
            ),
            ("seq".into(), Value::U64(self.seq)),
            ("query".into(), Value::U64(self.query)),
            ("queue".into(), Value::Str(self.queue.clone())),
            ("tag".into(), Value::Str(self.tag.clone())),
            ("tile".into(), Value::U64(self.tile)),
            ("total_ns".into(), Value::U64(self.total_ns)),
            (
                "phase_ns".into(),
                Value::Object(
                    self.phase_ns
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
            ("scratch_bytes".into(), Value::U64(self.scratch_bytes)),
            ("merge_push".into(), Value::U64(self.merge_push)),
            ("merge_reject".into(), Value::U64(self.merge_reject)),
            ("blocks".into(), Value::U64(self.blocks as u64)),
            ("status".into(), Value::Str(self.status.clone())),
            ("attempts".into(), Value::U64(self.attempts as u64)),
            ("worker".into(), Value::U64(self.worker as u64)),
            ("exemplar".into(), Value::Bool(self.exemplar)),
        ])
    }
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("journal record missing numeric '{key}'"))
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("journal record missing string '{key}'"))
}

impl QueryRecord {
    /// Reconstruct one record from a parsed JSONL line, rejecting
    /// unknown schema major versions.
    pub fn from_value(v: &Value) -> Result<QueryRecord, String> {
        let version = field_str(v, "schema_version")?;
        schema::ensure_compatible(&version, SCHEMA_VERSION, "journal record")?;
        let mut phase_ns = Vec::new();
        match v.get("phase_ns") {
            Some(Value::Object(fields)) => {
                for (k, pv) in fields {
                    let ns = pv
                        .as_f64()
                        .ok_or_else(|| format!("phase '{k}' is not a number"))?;
                    phase_ns.push((k.clone(), ns as u64));
                }
            }
            _ => return Err("journal record missing 'phase_ns' object".into()),
        }
        Ok(QueryRecord {
            seq: field_u64(v, "seq")?,
            query: field_u64(v, "query")?,
            queue: field_str(v, "queue")?,
            tag: field_str(v, "tag")?,
            tile: field_u64(v, "tile")?,
            total_ns: field_u64(v, "total_ns")?,
            phase_ns,
            scratch_bytes: field_u64(v, "scratch_bytes")?,
            merge_push: field_u64(v, "merge_push")?,
            merge_reject: field_u64(v, "merge_reject")?,
            blocks: field_u64(v, "blocks")? as u32,
            status: field_str(v, "status")?,
            attempts: field_u64(v, "attempts")? as u32,
            // 1.0 lines predate worker attribution; default lane 0.
            worker: v
                .get("worker")
                .and_then(Value::as_f64)
                .map(|f| f as u32)
                .unwrap_or(0),
            exemplar: matches!(v.get("exemplar"), Some(Value::Bool(true))),
        })
    }
}

/// Serialize records as JSONL (one compact object per line).
pub fn to_jsonl(records: &[QueryRecord]) -> String {
    let mut out = String::new();
    for r in records {
        match serde_json::to_string(r) {
            Ok(line) => {
                out.push_str(&line);
                out.push('\n');
            }
            Err(_) => unreachable!("journal records contain only finite plain data"),
        }
    }
    out
}

/// Parse a JSONL journal back; blank lines are skipped, any malformed
/// or version-incompatible line is a named error carrying its line
/// number.
pub fn parse_jsonl(text: &str) -> Result<Vec<QueryRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::parse_value(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(QueryRecord::from_value(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Sink the pipelines journal into. [`NullJournal`] is the zero-cost
/// default: `enabled()` is a constant `false`, so journal-aware entry
/// points monomorphize the entire record-building branch away.
pub trait Journal: Sync {
    /// Whether callers should build records at all. Constant per type.
    fn enabled(&self) -> bool;
    /// Offer one completed query's record.
    fn record(&self, rec: QueryRecord);
}

/// The always-off journal; compiles to the unjournaled code.
pub struct NullJournal;

impl Journal for NullJournal {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn record(&self, _rec: QueryRecord) {}
}

/// Construction parameters for [`EventJournal`].
#[derive(Clone, Copy, Debug)]
pub struct JournalConfig {
    /// Head-sampling probability in `[0, 1]`: the fraction of queries
    /// whose records are retained in the ring buffers. Exemplars are
    /// kept regardless.
    pub sample: f64,
    /// Number of slowest-query exemplars always retained (0 disables).
    pub exemplars: usize,
    /// Total sampled-record capacity across all stripes; the oldest
    /// record in a full stripe is evicted (and counted) on overflow.
    pub capacity: usize,
    /// Number of independently locked stripes.
    pub stripes: usize,
    /// Seed of the deterministic sampling hash.
    pub seed: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            sample: 1.0,
            exemplars: 16,
            capacity: 1 << 16,
            stripes: 16,
            seed: 1,
        }
    }
}

/// Aggregate accounting for one journal (see [`EventJournal::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records offered via [`EventJournal::record`].
    pub seen: u64,
    /// Records admitted to the sampled rings (before eviction).
    pub sampled_in: u64,
    /// Sampled records evicted by ring overflow.
    pub evicted: u64,
}

/// Min-heap entry ordered by (total latency, admission order).
struct ExEntry(QueryRecord);

impl PartialEq for ExEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.0.total_ns, self.0.seq) == (other.0.total_ns, other.0.seq)
    }
}
impl Eq for ExEntry {}
impl PartialOrd for ExEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ExEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the *smallest*
        // total latency on top so it is the one replaced.
        (other.0.total_ns, other.0.seq).cmp(&(self.0.total_ns, self.0.seq))
    }
}

struct Stripe {
    ring: std::collections::VecDeque<QueryRecord>,
}

/// SplitMix64 finalizer — the same mixer `simt::fault` seeds its
/// substreams with, reimplemented here so `trace` stays dependency-free.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The retaining journal: lock-striped sampled rings plus the exemplar
/// heap. All recording methods take `&self` (shared across rayon
/// workers); see the module docs for the retention rules.
pub struct EventJournal {
    cfg: JournalConfig,
    threshold: u64,
    cap_per_stripe: usize,
    stripes: Vec<Mutex<Stripe>>,
    exemplars: Mutex<BinaryHeap<ExEntry>>,
    seq: AtomicU64,
    seen: AtomicU64,
    sampled_in: AtomicU64,
    evicted: AtomicU64,
}

impl EventJournal {
    pub fn new(cfg: JournalConfig) -> Self {
        let stripes = cfg.stripes.max(1);
        let threshold = if cfg.sample >= 1.0 {
            u64::MAX
        } else if cfg.sample <= 0.0 {
            0
        } else {
            (cfg.sample * (u64::MAX as f64)) as u64
        };
        EventJournal {
            cfg,
            threshold,
            cap_per_stripe: cfg.capacity.div_ceil(stripes).max(1),
            stripes: (0..stripes)
                .map(|_| {
                    Mutex::new(Stripe {
                        ring: std::collections::VecDeque::new(),
                    })
                })
                .collect(),
            exemplars: Mutex::new(BinaryHeap::new()),
            seq: AtomicU64::new(0),
            seen: AtomicU64::new(0),
            sampled_in: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The configuration this journal was built with.
    pub fn config(&self) -> &JournalConfig {
        &self.cfg
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        // A poisoned stripe only means a worker panicked mid-record; the
        // retained records are still coherent.
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deterministic head-sampling decision for `query`.
    pub fn sampled(&self, query: u64) -> bool {
        if self.threshold == u64::MAX {
            return true;
        }
        splitmix64(self.cfg.seed ^ query) < self.threshold
    }

    /// Aggregate accounting so far.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            seen: self.seen.load(Ordering::Relaxed),
            sampled_in: self.sampled_in.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

impl Journal for EventJournal {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, mut rec: QueryRecord) {
        rec.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        rec.exemplar = false;
        self.seen.fetch_add(1, Ordering::Relaxed);
        if self.cfg.exemplars > 0 {
            let mut heap = Self::lock(&self.exemplars);
            if heap.len() < self.cfg.exemplars {
                heap.push(ExEntry(rec.clone()));
            } else if heap.peek().is_some_and(|min| rec.total_ns > min.0.total_ns) {
                heap.pop();
                heap.push(ExEntry(rec.clone()));
            }
        }
        if self.sampled(rec.query) {
            self.sampled_in.fetch_add(1, Ordering::Relaxed);
            let si = (splitmix64(rec.query.rotate_left(17)) as usize) % self.stripes.len();
            let mut stripe = Self::lock(&self.stripes[si]);
            if stripe.ring.len() >= self.cap_per_stripe {
                stripe.ring.pop_front();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            stripe.ring.push_back(rec);
        }
    }
}

impl EventJournal {
    /// Freeze the retained records: the union of every stripe's ring
    /// and the exemplar heap, deduplicated by admission sequence,
    /// exemplars flagged, sorted by `seq` (admission order).
    pub fn snapshot(&self) -> Vec<QueryRecord> {
        let mut out: Vec<QueryRecord> = Vec::new();
        for s in &self.stripes {
            out.extend(Self::lock(s).ring.iter().cloned());
        }
        let mut seq_index: std::collections::BTreeMap<u64, usize> =
            out.iter().enumerate().map(|(i, r)| (r.seq, i)).collect();
        for e in Self::lock(&self.exemplars).iter() {
            match seq_index.get(&e.0.seq) {
                Some(&i) => out[i].exemplar = true,
                None => {
                    let mut r = e.0.clone();
                    r.exemplar = true;
                    seq_index.insert(r.seq, out.len());
                    out.push(r);
                }
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// [`Self::snapshot`] rendered as JSONL.
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(query: u64, total_ns: u64) -> QueryRecord {
        QueryRecord {
            query,
            queue: "merge".into(),
            total_ns,
            phase_ns: vec![
                (phases::ROW_FILL.into(), total_ns / 2),
                (phases::ROW_SELECT.into(), total_ns - total_ns / 2),
            ],
            status: "ok".into(),
            attempts: 1,
            ..QueryRecord::default()
        }
    }

    #[test]
    fn full_sampling_retains_everything_in_order() {
        let j = EventJournal::new(JournalConfig::default());
        for q in 0..100 {
            j.record(rec(q, 1000 + q));
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 100);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(j.stats().seen, 100);
        assert_eq!(j.stats().sampled_in, 100);
        assert_eq!(j.stats().evicted, 0);
        // the 16 slowest are flagged as exemplars
        assert_eq!(snap.iter().filter(|r| r.exemplar).count(), 16);
        assert!(snap.iter().filter(|r| r.exemplar).all(|r| r.query >= 84));
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let cfg = JournalConfig {
            sample: 0.25,
            exemplars: 0,
            ..JournalConfig::default()
        };
        let a = EventJournal::new(cfg);
        let b = EventJournal::new(cfg);
        for q in 0..4000 {
            a.record(rec(q, 100));
            b.record(rec(q, 100));
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let qa: Vec<u64> = sa.iter().map(|r| r.query).collect();
        let qb: Vec<u64> = sb.iter().map(|r| r.query).collect();
        assert_eq!(qa, qb, "same seed must sample the same queries");
        let frac = sa.len() as f64 / 4000.0;
        assert!((0.2..0.3).contains(&frac), "~25% sampled, got {frac}");
        // a different seed picks a different subset
        let c = EventJournal::new(JournalConfig { seed: 99, ..cfg });
        for q in 0..4000 {
            c.record(rec(q, 100));
        }
        assert_ne!(c.snapshot().iter().map(|r| r.query).collect::<Vec<_>>(), qa);
    }

    #[test]
    fn exemplars_survive_aggressive_sampling() {
        // Sampling keeps ~1%, but the 4 slowest queries must be present.
        let j = EventJournal::new(JournalConfig {
            sample: 0.01,
            exemplars: 4,
            ..JournalConfig::default()
        });
        for q in 0..1000 {
            // queries 500..504 are pathologically slow
            let total = if (500..504).contains(&q) {
                1_000_000 + q
            } else {
                1_000
            };
            j.record(rec(q, total));
        }
        let snap = j.snapshot();
        let exemplars: Vec<u64> = snap
            .iter()
            .filter(|r| r.exemplar)
            .map(|r| r.query)
            .collect();
        assert_eq!(exemplars, vec![500, 501, 502, 503]);
    }

    #[test]
    fn bounded_rings_evict_oldest_and_count() {
        let j = EventJournal::new(JournalConfig {
            capacity: 64,
            stripes: 4,
            exemplars: 0,
            ..JournalConfig::default()
        });
        for q in 0..1000 {
            j.record(rec(q, 100));
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 64, "capacity bounds the retained set");
        let stats = j.stats();
        assert_eq!(stats.seen, 1000);
        assert_eq!(stats.evicted, 1000 - 64);
        // survivors skew recent (drop-oldest)
        assert!(snap.iter().all(|r| r.query >= 64));
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let j = EventJournal::new(JournalConfig::default());
        for q in 0..10 {
            let mut r = rec(q, 5000 + q * 13);
            r.tile = 2048;
            r.tag = format!("seed{q}");
            r.merge_push = 64;
            r.merge_reject = 48;
            r.blocks = 8;
            r.scratch_bytes = 1 << 20;
            r.worker = (q % 4) as u32;
            if q == 3 {
                r.status = "recovered".into();
                r.attempts = 2;
            }
            j.record(r);
        }
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), 10);
        assert!(text
            .lines()
            .all(|l| l.contains("\"schema_version\":\"1.1\"")));
        let back = parse_jsonl(&text).expect("journal must parse back");
        assert_eq!(back, j.snapshot());
        assert_eq!(back[3].status, "recovered");
        assert_eq!(back[3].attempts, 2);
        assert_eq!(back[7].worker, 3, "worker attribution round-trips");
    }

    #[test]
    fn legacy_1_0_lines_without_worker_still_parse() {
        // A verbatim pre-1.1 line: no `worker` field anywhere.
        let legacy = concat!(
            r#"{"schema_version":"1.0","seq":4,"query":9,"queue":"merge","#,
            r#""tag":"","tile":0,"total_ns":1009,"phase_ns":{"row_fill":504,"#,
            r#""row_select":505},"scratch_bytes":0,"merge_push":0,"#,
            r#""merge_reject":0,"blocks":0,"status":"ok","attempts":1,"#,
            r#""exemplar":false}"#,
            "\n"
        );
        let back = parse_jsonl(legacy).expect("1.0 journals must keep parsing");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].worker, 0, "missing worker defaults to lane 0");
        assert_eq!(back[0].query, 9);
    }

    #[test]
    fn unknown_major_version_is_rejected() {
        let j = EventJournal::new(JournalConfig::default());
        j.record(rec(0, 100));
        let good = j.to_jsonl();
        let future = good.replace("\"schema_version\":\"1.1\"", "\"schema_version\":\"2.0\"");
        let err = parse_jsonl(&future).unwrap_err();
        assert!(err.contains("major version"), "{err}");
        // newer *minor* versions parse fine
        let minor = good.replace("\"schema_version\":\"1.1\"", "\"schema_version\":\"1.7\"");
        assert!(parse_jsonl(&minor).is_ok());
        // garbage is a named line error
        assert!(parse_jsonl("not json\n").unwrap_err().contains("line 1"));
        assert!(parse_jsonl("{}\n").unwrap_err().contains("schema_version"));
    }

    #[test]
    fn dominant_phase_ignores_the_query_envelope() {
        let r = QueryRecord {
            phase_ns: vec![
                (phases::QUERY.into(), 1000),
                (phases::ROW_FILL.into(), 700),
                (phases::ROW_SELECT.into(), 300),
            ],
            ..QueryRecord::default()
        };
        assert_eq!(r.dominant_phase(), Some((phases::ROW_FILL, 700)));
        assert_eq!(QueryRecord::default().dominant_phase(), None);
    }

    #[test]
    fn null_journal_is_disabled() {
        assert!(!NullJournal.enabled());
        NullJournal.record(QueryRecord::default()); // no-op
        let j = EventJournal::new(JournalConfig::default());
        assert!(j.enabled());
    }

    #[test]
    fn journal_is_usable_from_parallel_workers() {
        use rayon::prelude::*;
        let j = EventJournal::new(JournalConfig::default());
        (0..512u64).into_par_iter().for_each(|q| {
            j.record(rec(q, 100 + q));
        });
        assert_eq!(j.snapshot().len(), 512);
        assert_eq!(j.stats().seen, 512);
    }
}
