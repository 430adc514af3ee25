//! Seeded operation streams for the three workloads.
//!
//! Every operation is generated here from the run's seed; the system
//! under test only ever sees the generated VQL strings and tuples. The
//! stream is unbounded and deterministic: the same seed yields the same
//! sequence of operations, whatever speed the machine runs at.

use rand::rngs::StdRng;
use rand::Rng;

use unistore_store::index::attr_value_key;
use unistore_store::{Tuple, Value};
use unistore_util::rng::derive_rng;
use unistore_util::zipf::Zipf;
use unistore_util::{FxHashMap, Key};
use unistore_workload::{distinct_values, PubWorld};

/// Stream label for [`derive_rng`], disjoint from the library's own
/// streams (`unistore_util::rng::stream`).
const OPS_STREAM: u64 = 0x7065_7266_6265_6e63;

/// Attribute the point reads and the writes target. The world spreads
/// its years wide (see `Scale::standard`), so it has hundreds of
/// distinct values, and integer values map to distinct index keys.
/// (String values of this world share key prefixes: its 400 author
/// names fall on 82 keys, fewer than the 64-entry result cache of a
/// node needs to miss.)
pub const READ_ATTR: &str = "year";

/// Zipf exponent of point-read values. Chosen so the result cache
/// answers well under half of the point reads (see README.md).
pub const READ_THETA: f64 = 0.3;

/// Zipf exponent of the join-scan query parameters.
pub const JOIN_THETA: f64 = 0.8;

/// Zipf exponent of written values.
pub const WRITE_THETA: f64 = 0.6;

/// Fresh tuples per insert batch.
pub const INSERT_BATCH: usize = 8;

/// The exact-match read of `value` under [`READ_ATTR`].
pub fn point_query(value: &Value) -> String {
    format!("SELECT ?x WHERE {{(?x,'{READ_ATTR}',{value})}}")
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-skewed exact-match reads.
    PointReads,
    /// Joins, similarity and range queries.
    JoinScan,
    /// Reads interleaved with inserts, updates and deletes.
    WriteMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::PointReads, Workload::JoinScan, Workload::WriteMix];

    /// Parses a workload name as given on the command line.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointReads => "point-reads",
            Workload::JoinScan => "join-scan",
            Workload::WriteMix => "write-mix",
        }
    }

    /// Logical clients of the closed loop.
    pub fn clients(self) -> usize {
        match self {
            Workload::PointReads | Workload::WriteMix => 16,
            Workload::JoinScan => 4,
        }
    }
}

/// One local-store scan implied by a query pattern; the traced run
/// times these on the reference store.
#[derive(Clone, Debug)]
pub enum Scan {
    /// `by_attr_value`: a pattern with a constant value.
    Value(&'static str, Value),
    /// `by_attr_range`: a pattern with a variable value, bounded by the
    /// query's range filter when it has one.
    Range(&'static str, Option<Value>, Option<Value>),
    /// `by_attr_similar`: a pattern under an edit-distance filter.
    Similar(&'static str, String, usize),
}

/// A distinct query of the stream.
#[derive(Clone, Debug)]
pub struct Query {
    /// The VQL text submitted.
    pub text: String,
    /// The store scans its patterns imply.
    pub scans: Vec<Scan>,
    /// Key of its constant `(attr, value)` pattern, for routing probes.
    pub probe: Option<Key>,
}

/// One client operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// A VQL query (index into [`OpStream::queries`]) from `origin`.
    Read { origin: u32, query: u32 },
    /// An `insert_batch` of fresh tuples.
    Insert { origin: u32, tuples: Vec<Tuple> },
    /// An `update` of the live inserted fact `pick % live` to `value`.
    Update { origin: u32, pick: u64, value: Value },
    /// A `delete` of the live inserted fact `pick % live`.
    Delete { origin: u32, pick: u64 },
}

impl Op {
    /// The node the operation is issued at.
    pub fn origin(&self) -> u32 {
        match self {
            Op::Read { origin, .. }
            | Op::Insert { origin, .. }
            | Op::Update { origin, .. }
            | Op::Delete { origin, .. } => *origin,
        }
    }
}

/// Values one parameter draws from, in the world's first-appearance
/// order (Zipf rank order), with their sampler.
struct Domain<T> {
    values: Vec<T>,
    zipf: Zipf,
}

impl<T> Domain<T> {
    fn new(values: Vec<T>, theta: f64) -> Domain<T> {
        let zipf = Zipf::new(values.len(), theta);
        Domain { values, zipf }
    }

    fn pick(&self, rng: &mut StdRng) -> &T {
        &self.values[self.zipf.sample(rng)]
    }
}

/// The unbounded, seeded operation stream of one workload.
pub struct OpStream {
    workload: Workload,
    rng: StdRng,
    peers: u32,
    reads: Domain<Value>,
    written: Domain<Value>,
    authors: Domain<Value>,
    confnames: Domain<Value>,
    years: Domain<Value>,
    ages: Domain<i64>,
    queries: Vec<Query>,
    index: FxHashMap<String, u32>,
    inserts: u64,
    live_facts: u64,
    /// Join-scan templates still to deal in the current block.
    deck: Vec<u32>,
}

impl OpStream {
    /// The stream of `workload` over `world` with `peers` origins.
    pub fn new(workload: Workload, world: &PubWorld, peers: usize, seed: u64) -> OpStream {
        let mut ages: Vec<i64> = distinct_values(world, "age")
            .into_iter()
            .filter_map(|v| match v {
                Value::Int(a) => Some(a),
                _ => None,
            })
            .collect();
        ages.sort_unstable();
        let mut conference_years: Vec<Value> = Vec::new();
        for y in world.conferences.iter().filter_map(|c| c.get("year")) {
            if !conference_years.iter().any(|seen| seen.eq_values(y)) {
                conference_years.push(y.clone());
            }
        }
        OpStream {
            workload,
            rng: derive_rng(seed, OPS_STREAM),
            peers: peers as u32,
            reads: Domain::new(distinct_values(world, READ_ATTR), READ_THETA),
            written: Domain::new(distinct_values(world, READ_ATTR), WRITE_THETA),
            authors: Domain::new(distinct_values(world, "name"), JOIN_THETA),
            confnames: Domain::new(distinct_values(world, "confname"), JOIN_THETA),
            years: Domain::new(conference_years, JOIN_THETA),
            ages: Domain::new(ages, JOIN_THETA),
            queries: Vec::new(),
            index: FxHashMap::default(),
            inserts: 0,
            live_facts: 0,
            deck: Vec::new(),
        }
    }

    /// Distinct queries generated so far.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Every value of [`READ_ATTR`] the point reads draw from.
    pub fn read_values(&self) -> &[Value] {
        &self.reads.values
    }

    /// The next `n` operations.
    pub fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let origin = self.rng.gen_range(0..self.peers);
        match self.workload {
            Workload::PointReads => self.point_read(origin),
            Workload::JoinScan => self.join_scan(origin),
            Workload::WriteMix => self.write_mix(origin),
        }
    }

    fn intern(&mut self, text: String, scans: Vec<Scan>, probe: Option<Key>) -> u32 {
        if let Some(&i) = self.index.get(&text) {
            return i;
        }
        let i = self.queries.len() as u32;
        self.index.insert(text.clone(), i);
        self.queries.push(Query { text, scans, probe });
        i
    }

    /// The query shape of `zipf_read_queries`, drawn one at a time: that
    /// function returns a fixed-length list of texts, and this unbounded
    /// stream also needs the value for its scans and routing probe.
    fn point_read(&mut self, origin: u32) -> Op {
        let v = self.reads.pick(&mut self.rng).clone();
        let text = point_query(&v);
        let probe = Some(attr_value_key(READ_ATTR, &v));
        let query = self.intern(text, vec![Scan::Value(READ_ATTR, v)], probe);
        Op::Read { origin, query }
    }

    fn join_scan(&mut self, origin: u32) -> Op {
        // Templates are dealt from shuffled blocks of 20 slots, so every
        // block has the same mix and only the order and parameters vary
        // with the seed. The weights put the median latency inside the
        // 3-way join's mode rather than in the gap between the fast
        // templates (similarity, range) and the joins.
        if self.deck.is_empty() {
            self.deck.extend(0..20u32);
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        let slot = self.deck.pop().expect("a refilled deck is not empty");
        let (text, scans, probe) = match slot {
            0..=7 => {
                let c = self.confnames.pick(&mut self.rng).clone();
                (
                    format!(
                        "SELECT ?n,?t WHERE {{(?a,'name',?n) (?a,'has_published',?t) \
                         (?p,'title',?t) (?p,'published_in',{c})}}"
                    ),
                    vec![
                        Scan::Range("name", None, None),
                        Scan::Range("has_published", None, None),
                        Scan::Range("title", None, None),
                        Scan::Value("published_in", c.clone()),
                    ],
                    Some(attr_value_key("published_in", &c)),
                )
            }
            8..=12 => {
                let y = self.years.pick(&mut self.rng).clone();
                (
                    format!(
                        "SELECT ?n,?cn WHERE {{(?a,'name',?n) (?a,'has_published',?t) \
                         (?p,'title',?t) (?p,'published_in',?cn) (?c,'confname',?cn) \
                         (?c,'year',{y})}}"
                    ),
                    vec![
                        Scan::Range("name", None, None),
                        Scan::Range("has_published", None, None),
                        Scan::Range("title", None, None),
                        Scan::Range("published_in", None, None),
                        Scan::Range("confname", None, None),
                        Scan::Value("year", y.clone()),
                    ],
                    Some(attr_value_key("year", &y)),
                )
            }
            13..=15 => {
                let target = match self.authors.pick(&mut self.rng) {
                    Value::Str(s) => s.to_string(),
                    other => other.to_string(),
                };
                (
                    format!("SELECT ?a,?n WHERE {{(?a,'name',?n) FILTER edist(?n,'{target}')<2}}"),
                    vec![Scan::Similar("name", target, 1)],
                    None,
                )
            }
            _ => {
                let lo = *self.ages.pick(&mut self.rng);
                let hi = lo + 3;
                (
                    format!(
                        "SELECT ?n,?g WHERE {{(?a,'name',?n) (?a,'age',?g) \
                         FILTER ?g >= {lo} AND ?g <= {hi}}}"
                    ),
                    vec![
                        Scan::Range("name", None, None),
                        Scan::Range("age", Some(Value::Int(lo)), Some(Value::Int(hi))),
                    ],
                    None,
                )
            }
        };
        let query = self.intern(text, scans, probe);
        Op::Read { origin, query }
    }

    fn write_mix(&mut self, origin: u32) -> Op {
        if self.rng.gen_bool(0.5) {
            return self.point_read(origin);
        }
        let kind = if self.live_facts == 0 { 0 } else { self.rng.gen_range(0..3u32) };
        match kind {
            0 => {
                let b = self.inserts;
                self.inserts += 1;
                self.live_facts += INSERT_BATCH as u64;
                let tuples = (0..INSERT_BATCH)
                    .map(|i| {
                        let v = self.written.pick(&mut self.rng).clone();
                        Tuple::new(&format!("bench{b}_{i}")).with(READ_ATTR, v)
                    })
                    .collect();
                Op::Insert { origin, tuples }
            }
            1 => {
                let pick = self.rng.gen();
                let value = self.written.pick(&mut self.rng).clone();
                Op::Update { origin, pick, value }
            }
            _ => {
                self.live_facts -= 1;
                Op::Delete { origin, pick: self.rng.gen() }
            }
        }
    }
}
