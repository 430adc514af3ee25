//! One benchmark run: set-up, warm-up, the timed closed loop on both
//! backends, the oracle checks and, when traced, the per-layer probes.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use unistore::{chord_config, ChordUniCluster, QueryOutcome, UniCluster, UniConfig};
use unistore_bench::alloc;
use unistore_overlay::Overlay;
use unistore_query::{LocalEngine, Logical, Mqp, MqpNode, Relation};
use unistore_simnet::metrics::NetMetrics;
use unistore_simnet::{NodeId, SimTime};
use unistore_store::{Triple, Tuple, Value};
use unistore_util::rng::derive_rng;
use unistore_util::stats::percentile;
use unistore_util::wire::Wire;
use unistore_vql::{analyze, parse};
use unistore_workload::{PubParams, PubWorld};

use rand::Rng;

use crate::ops::{point_query, Op, OpStream, Query, Scan, Workload, INSERT_BATCH, READ_ATTR};
use crate::report::{Kind, Metric};
use crate::trace::Tracer;

/// Result-cache capacity per node, on both backends.
pub const RESULT_CACHE: usize = 64;

/// Seed of the world and of both deployments. It is fixed so that the
/// run seed varies only the operation stream: a deployment's topology
/// and data shift its hop counts and latency quantiles by more than the
/// benchmark's bounds from one seed to the next.
pub const DEPLOY_SEED: u64 = 0x756e_6973_746f;

/// Size of one run: deployment, world and how the timed phase is cut.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Peers per backend.
    pub peers: usize,
    /// The generated world loaded into both clusters.
    pub world: PubParams,
    /// Set-ups measured; the median is `setup_s`.
    pub setup_reps: usize,
    /// Operations per round (per backend).
    pub round_ops: usize,
    /// Timed rounds per backend whose counts and simulated latencies
    /// make up the deterministic metrics; the phase runs at least this
    /// many rounds even past its time budget.
    pub counted_rounds: usize,
}

impl Scale {
    /// The benchmark's size for `workload`.
    pub fn standard(workload: Workload) -> Scale {
        let (round_ops, counted_rounds) = match workload {
            Workload::PointReads => (1000, 50),
            Workload::JoinScan => (100, 20),
            Workload::WriteMix => (500, 30),
        };
        Scale {
            peers: 256,
            world: PubParams {
                n_authors: 400,
                n_conferences: 40,
                draft_fraction: 1.0,
                years: (1500, 2006),
                ..PubParams::default()
            },
            setup_reps: 5,
            round_ops,
            counted_rounds,
        }
    }

    /// A small size for the benchmark's own tests.
    pub fn tiny(workload: Workload) -> Scale {
        Scale {
            peers: 32,
            world: PubParams { n_authors: 60, n_conferences: 8, ..PubParams::default() },
            setup_reps: 1,
            round_ops: if workload == Workload::JoinScan { 10 } else { 60 },
            counted_rounds: 3,
        }
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the operation stream.
    pub seed: u64,
    /// Wall-clock budget of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
}

/// Outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// Every checked answer matched the oracle.
    pub correct: bool,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed: not `ok`, incomplete coverage, a failed
    /// write, or an answer that differs from the oracle.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer ones (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
    /// The traced run's spans, per backend label (empty when untraced).
    pub traces: Vec<(&'static str, Tracer)>,
}

/// Order-independent digest of a relation's rows: row count plus the
/// wrapping sum of per-row hashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Digest(u64, u64);

fn digest(rel: &Relation) -> Digest {
    let mut sum = 0u64;
    for row in &rel.rows {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in row {
            h = (h.rotate_left(5) ^ v.semantic_hash()).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        sum = sum.wrapping_add(h);
    }
    Digest(rel.rows.len() as u64, sum)
}

/// Node-side counters summed over a cluster.
#[derive(Clone, Copy, Debug, Default)]
struct NodeSums {
    cache_hits: u64,
    retries: u64,
    hedges: u64,
    suppressed: u64,
}

/// Counts and samples gathered over one backend's counted rounds.
#[derive(Default)]
struct Counted {
    ops: u64,
    /// Reads of the post-phase sweep (write-mix), whose number is also
    /// fixed at a seed.
    checks: u64,
    /// Counted ops and checks that failed; with `ops` and `checks` this
    /// gives `ok_frac`, which so repeats exactly at a fixed seed.
    failed: u64,
    reads: u64,
    rows: u64,
    hops: u64,
    latencies_ms: Vec<f64>,
    net: NetMetrics,
    nodes: NodeSums,
    /// Allocations and ops of the untraced counted rounds.
    allocs: u64,
    alloc_ops: u64,
    /// Counted rounds with shadow calls only: result and plan sizes,
    /// bytes sent.
    result_bytes: u64,
    shadow_sent_bytes: u64,
    plan_bytes: u64,
    plans: u64,
}

/// Everything gathered for one backend.
#[derive(Default)]
struct Acc {
    counted: Counted,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    /// Ops per wall second of each untraced / spans-only timed round.
    rates: Vec<f64>,
    span_rates: Vec<f64>,
    /// Untraced timed rounds: wall time and simulator events.
    wall_s: f64,
    events: u64,
    /// (query, digest, in a counted round) of every completed read of a
    /// read-only workload.
    answers: Vec<(u32, Digest, bool)>,
    /// Routing and write probes of the traced run.
    lookup: ProbeSums,
    write: ProbeSums,
}

/// Summed network cost of serial probe calls.
#[derive(Default)]
struct ProbeSums {
    calls: u64,
    msgs: u64,
    bytes: u64,
    sim_ms: f64,
}

/// One backend's deployment plus the state its write ops need.
struct Backend<O: Overlay<Item = Triple>> {
    label: &'static str,
    cluster: UniCluster<O>,
    /// The statistics-refresh interval the cluster was configured with.
    stats_refresh: SimTime,
    /// Facts inserted by this run and not deleted, in insertion order.
    live: Vec<Triple>,
    version: u64,
    acc: Acc,
    /// Spans and the reference engine of the traced run.
    shadow: Option<Shadow>,
}

/// Shared read-only context of a round.
struct Ctx<'a> {
    workload: Workload,
    clients: usize,
    queries: &'a [Query],
}

/// Per-round flags.
#[derive(Clone, Copy)]
struct RoundKind {
    counted: bool,
    timed: bool,
    /// Spans are recorded around the calls into the cluster.
    spans: bool,
    /// The shadow calls run too (implies `spans`).
    shadow: bool,
}

/// Tracing state: spans plus the reference engine the traced run times.
struct Shadow {
    tracer: Tracer,
    oracle: LocalEngine,
    evaluated: Vec<bool>,
    next_op: u64,
}

fn node_sums<O: Overlay<Item = Triple>>(c: &UniCluster<O>) -> NodeSums {
    let mut s = NodeSums::default();
    for (_, n) in c.net.iter_nodes() {
        s.cache_hits += n.cache_hits;
        s.retries += n.retries;
        s.hedges += n.hedges;
        s.suppressed += n.suppressed;
    }
    s
}

fn add_net(a: &mut NetMetrics, d: &NetMetrics) {
    a.sent += d.sent;
    a.delivered += d.delivered;
    a.dropped += d.dropped;
    a.bytes += d.bytes;
    a.timers_fired += d.timers_fired;
}

/// A built and loaded deployment with its statistics-refresh interval.
type Deployment<O> = (UniCluster<O>, SimTime);

fn build_pgrid(scale: &Scale, tuples: &[Tuple], seed: u64) -> (UniCluster, SimTime) {
    let cfg = UniConfig::default().with_result_cache(RESULT_CACHE);
    let tick = cfg.stats_refresh;
    let mut c = UniCluster::build(scale.peers, cfg, seed);
    c.load(tuples.iter().cloned());
    (c, tick)
}

fn build_chord(scale: &Scale, tuples: &[Tuple], seed: u64) -> (ChordUniCluster, SimTime) {
    let cfg = chord_config().with_result_cache(RESULT_CACHE);
    let tick = cfg.stats_refresh;
    let mut c = ChordUniCluster::build_overlay(scale.peers, cfg, seed);
    c.load(tuples.iter().cloned());
    (c, tick)
}

impl<O: Overlay<Item = Triple>> Backend<O> {
    fn new(label: &'static str, (cluster, stats_refresh): Deployment<O>, traced: bool) -> Self {
        let shadow = traced.then(|| Shadow {
            tracer: Tracer::new(),
            oracle: cluster.oracle(),
            evaluated: Vec::new(),
            next_op: 0,
        });
        Backend {
            label,
            cluster,
            stats_refresh,
            live: Vec::new(),
            version: 0,
            acc: Acc::default(),
            shadow,
        }
    }

    /// Runs one closed-loop round over `ops`: `ctx.clients` logical
    /// clients each issue their next op once the previous one finished.
    /// Reads are pipelined through `query_submit`; a write runs to its
    /// acknowledgement while the other clients' reads stay in flight.
    fn round(&mut self, ops: &[Op], ctx: &Ctx, kind: RoundKind) {
        let mut shadow = self.shadow.take();
        let shadow = &mut shadow;
        if let Some(s) = shadow.as_mut() {
            s.evaluated.resize(ctx.queries.len(), false);
        }
        let net0 = self.cluster.net.metrics();
        let nodes0 = node_sums(&self.cluster);
        if let Some(s) = shadow.as_mut() {
            s.tracer.set_enabled(kind.spans);
        }
        let start = Instant::now();
        let ((), allocs) = alloc::measure(|| {
            let round_span = shadow.as_mut().and_then(|s| s.tracer.enter("round", 0));
            let mut pending: VecDeque<(u64, u32, u64)> = VecDeque::with_capacity(ctx.clients);
            let mut next = 0;
            loop {
                while pending.len() < ctx.clients && next < ops.len() {
                    if let Some(p) = self.issue(&ops[next], ctx, kind, shadow) {
                        pending.push_back(p);
                    }
                    next += 1;
                }
                let Some((qid, query, op_id)) = pending.pop_front() else { break };
                let out = traced(shadow, "core.wait", op_id, || self.cluster.query_wait(qid));
                self.complete(query, op_id, &out, ctx, kind, shadow);
                let mut i = 0;
                while i < pending.len() {
                    let (qid, query, op_id) = pending[i];
                    match self.cluster.query_poll(qid) {
                        Some(out) => {
                            pending.remove(i);
                            self.complete(query, op_id, &out, ctx, kind, shadow);
                        }
                        None => i += 1,
                    }
                }
            }
            if let Some(s) = shadow.as_mut() {
                s.tracer.exit(round_span);
            }
        });
        let wall = start.elapsed().as_secs_f64();
        self.shadow = shadow.take();
        let net = self.cluster.net.metrics().delta(&net0);
        let nodes1 = node_sums(&self.cluster);
        let acc = &mut self.acc;
        if kind.timed {
            let rate = ops.len() as f64 / wall.max(1e-9);
            if !kind.spans {
                acc.rates.push(rate);
                acc.wall_s += wall;
                acc.events += net.delivered + net.timers_fired;
            } else if !kind.shadow {
                acc.span_rates.push(rate);
            }
        }
        if kind.counted {
            let c = &mut acc.counted;
            add_net(&mut c.net, &net);
            c.nodes.cache_hits += nodes1.cache_hits - nodes0.cache_hits;
            c.nodes.retries += nodes1.retries - nodes0.retries;
            c.nodes.hedges += nodes1.hedges - nodes0.hedges;
            c.nodes.suppressed += nodes1.suppressed - nodes0.suppressed;
            if kind.shadow {
                c.shadow_sent_bytes += net.bytes;
            } else if !kind.spans {
                c.allocs += allocs.allocs;
                c.alloc_ops += ops.len() as u64;
            }
        }
    }

    /// Issues one op; returns `(qid, query, op id)` for a submitted read.
    fn issue(
        &mut self,
        op: &Op,
        ctx: &Ctx,
        kind: RoundKind,
        shadow: &mut Option<Shadow>,
    ) -> Option<(u64, u32, u64)> {
        let op_id = match shadow.as_mut() {
            Some(s) => {
                s.next_op += 1;
                s.next_op
            }
            None => 0,
        };
        let origin = NodeId(op.origin());
        let issue_span = shadow.as_mut().and_then(|s| s.tracer.enter("op.issue", op_id));
        let result = match op {
            Op::Read { query, .. } => {
                let q = &ctx.queries[*query as usize];
                if let (Some(s), true) = (shadow.as_mut(), kind.shadow) {
                    let plan_bytes = shadow_layers(s, q, *query, origin, op_id);
                    if kind.counted {
                        self.acc.counted.plan_bytes += plan_bytes as u64;
                        self.acc.counted.plans += 1;
                    }
                }
                let qid = traced(shadow, "core.submit", op_id, || {
                    self.cluster.query_submit(origin, &q.text)
                })
                .expect("generated VQL parses");
                Some((qid, *query, op_id))
            }
            write => {
                let t0 = self.cluster.net.now();
                let ok = traced(shadow, "op.write", op_id, || self.write(origin, write));
                let sim = self.cluster.net.now().saturating_sub(t0);
                self.finish(ok, sim, 0, 0, kind);
                None
            }
        };
        if let Some(s) = shadow.as_mut() {
            s.tracer.exit(issue_span);
        }
        result
    }

    /// Runs one write op to its acknowledgement; returns success.
    fn write(&mut self, origin: NodeId, op: &Op) -> bool {
        match op {
            Op::Insert { tuples, .. } => {
                let (ok, _) = self.cluster.insert_batch(origin, tuples);
                self.live.extend(tuples.iter().flat_map(|t| t.to_triples()));
                ok
            }
            Op::Update { pick, value, .. } => {
                let idx = (*pick % self.live.len() as u64) as usize;
                self.version += 1;
                let old = self.live[idx].clone();
                let ok = self.cluster.update(origin, &old, value.clone(), self.version);
                self.live[idx].value = value.clone();
                ok
            }
            Op::Delete { pick, .. } => {
                let idx = (*pick % self.live.len() as u64) as usize;
                self.version += 1;
                let fact = self.live.remove(idx);
                self.cluster.delete(origin, &fact, self.version)
            }
            Op::Read { .. } => unreachable!("reads are submitted, not written"),
        }
    }

    /// Books one finished op.
    fn finish(&mut self, ok: bool, latency: SimTime, rows: usize, hops: u32, kind: RoundKind) {
        let acc = &mut self.acc;
        acc.attempted += 1;
        if !ok {
            acc.failed += 1;
        }
        if kind.counted {
            let c = &mut acc.counted;
            c.ops += 1;
            if !ok {
                c.failed += 1;
            }
            c.rows += rows as u64;
            c.hops += hops as u64;
            c.latencies_ms.push(latency.as_millis_f64());
        }
    }

    fn complete(
        &mut self,
        query: u32,
        op_id: u64,
        out: &QueryOutcome,
        ctx: &Ctx,
        kind: RoundKind,
        shadow: &mut Option<Shadow>,
    ) {
        if let (Some(s), true) = (shadow.as_mut(), kind.shadow) {
            let bytes = s.tracer.span("wire.size", op_id, || out.relation.wire_size());
            if kind.counted {
                self.acc.counted.result_bytes += bytes as u64;
            }
        }
        let ok = out.ok && out.coverage.complete();
        if kind.counted {
            self.acc.counted.reads += 1;
        }
        self.finish(ok, out.cost.latency, out.relation.len(), out.cost.hops, kind);
        if ok && ctx.workload != Workload::WriteMix {
            self.acc.answers.push((query, digest(&out.relation), kind.counted));
        }
    }

    /// Checks every recorded answer against the oracle's for its query.
    fn check_answers(&mut self, oracle_digests: &[Option<Digest>]) {
        for (q, d, counted) in std::mem::take(&mut self.acc.answers) {
            if oracle_digests[q as usize] != Some(d) {
                self.acc.mismatches += 1;
                self.acc.failed += 1;
                if counted {
                    self.acc.counted.failed += 1;
                }
            }
        }
    }

    /// Write-mix: lets one statistics tick spread the write deltas (and
    /// the cache invalidations riding on them), then reads every value
    /// of the written attribute and compares each answer exactly.
    fn settle_and_sweep(&mut self, values: &[Value]) {
        self.cluster.settle(self.stats_refresh + SimTime::from_secs(1));
        let mut oracle = self.cluster.oracle();
        let n = self.cluster.net.len() as u32;
        let mut submitted = Vec::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            let text = point_query(v);
            let qid = self.cluster.query_submit(NodeId(i as u32 % n), &text).expect("VQL parses");
            submitted.push((qid, text));
        }
        for (qid, text) in submitted {
            let out = self.cluster.query_wait(qid);
            let want = oracle.query(&text).expect("oracle parses");
            let acc = &mut self.acc;
            acc.attempted += 1;
            acc.counted.checks += 1;
            let matches = digest(&out.relation) == digest(&want);
            if !(out.ok && out.coverage.complete() && matches) {
                acc.failed += 1;
                acc.counted.failed += 1;
                if out.ok && out.coverage.complete() {
                    acc.mismatches += 1;
                }
            }
        }
    }

    /// Traced run: serial `raw_lookup`s of the workload's point keys,
    /// then serial insert/update/delete calls, each with nothing else in
    /// flight so the routing and write costs stand alone. They run on
    /// `fresh`, a newly built copy of the deployment, so their numbers
    /// depend neither on how many rounds the timed phase ran nor on the
    /// state it left.
    fn probe(&mut self, mut fresh: UniCluster<O>, queries: &[Query], values: &[Value], seed: u64) {
        let Some(mut shadow) = self.shadow.take() else { return };
        let tracer = &mut shadow.tracer;
        tracer.set_enabled(true);
        let n = fresh.net.len() as u32;
        for (i, key) in queries.iter().filter_map(|q| q.probe).take(PROBES).enumerate() {
            let origin = NodeId(i as u32 % n);
            let (_, cost) = tracer.span("overlay.lookup", 0, || fresh.raw_lookup(origin, key));
            let p = &mut self.acc.lookup;
            p.calls += 1;
            p.msgs += cost.messages;
            p.sim_ms += cost.latency.as_millis_f64();
        }
        let mut rng = derive_rng(seed, PROBE_STREAM);
        for b in 0..PROBES / 3 {
            let origin = NodeId(rng.gen_range(0..n));
            let mut pick = || values[rng.gen_range(0..values.len())].clone();
            let tuples: Vec<Tuple> = (0..INSERT_BATCH)
                .map(|i| Tuple::new(&format!("probe{b}_{i}")).with(READ_ATTR, pick()))
                .collect();
            let new_value = pick();
            let facts: Vec<Triple> = tuples.iter().flat_map(|t| t.to_triples()).collect();
            let version = b as u64 + 1;
            for step in 0..3 {
                let net0 = fresh.net.metrics();
                let t0 = fresh.net.now();
                let c = &mut fresh;
                let ok = tracer.span("overlay.write", 0, || match step {
                    0 => c.insert_batch(origin, &tuples).0,
                    1 => c.update(origin, &facts[0], new_value.clone(), version),
                    _ => c.delete(origin, &facts[1], version),
                });
                let d = fresh.net.metrics().delta(&net0);
                let p = &mut self.acc.write;
                p.calls += 1;
                p.msgs += d.sent;
                p.bytes += d.bytes;
                p.sim_ms += fresh.net.now().saturating_sub(t0).as_millis_f64();
                if !ok {
                    self.acc.failed += 1;
                }
                self.acc.attempted += 1;
            }
        }
        self.shadow = Some(shadow);
    }
}

/// Serial probe calls per kind in the traced run.
const PROBES: usize = 96;

/// Stream label of the write probes' randomness.
const PROBE_STREAM: u64 = 0x7072_6f62_6573;

/// Times, from outside, the layer calls one read implies: parse and
/// analysis, planning and plan sizing, the local store scans of its
/// patterns and, once per distinct query, reference evaluation.
/// Returns the plan's wire size.
fn shadow_layers(s: &mut Shadow, q: &Query, qidx: u32, origin: NodeId, op_id: u64) -> usize {
    let analyzed =
        s.tracer.span("vql.parse", op_id, || analyze(parse(&q.text).expect("parses")).expect("ok"));
    let plan_bytes = s.tracer.span("query.plan", op_id, || {
        let logical = Logical::from_query(&analyzed);
        let mqp = Mqp::new(
            0,
            origin.0,
            MqpNode::from_logical(&logical),
            analyzed.query.filters.clone(),
            analyzed.query.limit.map(|n| n as u64),
        );
        mqp.wire_size()
    });
    let store = s.oracle.store();
    let found = {
        let tracer = &mut s.tracer;
        tracer.span("store.scan", op_id, || {
            q.scans
                .iter()
                .map(|scan| match scan {
                    Scan::Value(a, v) => store.by_attr_value(a, v).len(),
                    Scan::Range(a, lo, hi) => {
                        store.by_attr_range(a, lo.as_ref(), hi.as_ref()).len()
                    }
                    Scan::Similar(a, t, k) => store.by_attr_similar(a, t, *k).len(),
                })
                .sum::<usize>()
        })
    };
    std::hint::black_box(found);
    if !s.evaluated[qidx as usize] {
        s.evaluated[qidx as usize] = true;
        let oracle = &mut s.oracle;
        let rel = s.tracer.span("query.eval", op_id, || oracle.query(&q.text).expect("parses"));
        std::hint::black_box(rel.len());
    }
    plan_bytes
}

/// Runs `f` inside a span named `name` when the run is traced.
fn traced<R>(shadow: &mut Option<Shadow>, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    match shadow {
        Some(s) => s.tracer.span(name, op, f),
        None => f(),
    }
}

/// Runs the benchmark once.
pub fn run(cfg: &RunConfig) -> Report {
    let scale = &cfg.scale;
    let world = PubWorld::generate(&scale.world, DEPLOY_SEED);
    let tuples = world.all_tuples();

    // Set-up: build and load both deployments, several times; the run
    // goes on with the last pair.
    let mut setup_s = Vec::with_capacity(scale.setup_reps);
    let mut pair = None;
    for _ in 0..scale.setup_reps.max(1) {
        drop(pair.take());
        let t0 = Instant::now();
        let pg = build_pgrid(scale, &tuples, DEPLOY_SEED);
        let ch = build_chord(scale, &tuples, DEPLOY_SEED);
        setup_s.push(t0.elapsed().as_secs_f64());
        pair = Some((pg, ch));
    }
    let (pg, ch) = pair.expect("at least one set-up");
    let mut pg = Backend::new("pgrid", pg, cfg.trace);
    let mut ch = Backend::new("chord", ch, cfg.trace);
    let mut stream = OpStream::new(cfg.workload, &world, scale.peers, cfg.seed);

    let mut round = |stream: &mut OpStream, kind: RoundKind| {
        let ops = stream.take(scale.round_ops);
        let ctx = Ctx {
            workload: cfg.workload,
            clients: cfg.workload.clients(),
            queries: stream.queries(),
        };
        pg.round(&ops, &ctx, kind);
        ch.round(&ops, &ctx, kind);
    };
    // One untimed warm-up round per backend.
    round(&mut stream, RoundKind { counted: false, timed: false, spans: false, shadow: false });
    // The timed phase: rounds alternate between the backends until the
    // budget is spent, and never stop before the counted rounds are done.
    // A traced run cycles through untraced rounds, rounds that only
    // record spans around the calls into the cluster, and rounds that
    // also make the shadow calls. The first two give the tracer's own
    // overhead; the last gives the shadowed layers' timings.
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut r = 0;
    while r < scale.counted_rounds || start.elapsed() < budget {
        let kind = RoundKind {
            counted: r < scale.counted_rounds,
            timed: true,
            spans: cfg.trace && r % 3 != 0,
            shadow: cfg.trace && r % 3 == 2,
        };
        round(&mut stream, kind);
        r += 1;
    }
    let rounds = r;

    // Correctness, outside the timed phase.
    match cfg.workload {
        Workload::WriteMix => {
            pg.settle_and_sweep(stream.read_values());
            ch.settle_and_sweep(stream.read_values());
        }
        _ => {
            let mut oracle = pg.cluster.oracle();
            let want: Vec<Option<Digest>> = stream
                .queries()
                .iter()
                .map(|q| oracle.query(&q.text).ok().map(|rel| digest(&rel)))
                .collect();
            pg.check_answers(&want);
            ch.check_answers(&want);
        }
    }
    if cfg.trace {
        let (queries, values) = (stream.queries(), stream.read_values());
        pg.probe(build_pgrid(scale, &tuples, DEPLOY_SEED).0, queries, values, cfg.seed);
        ch.probe(build_chord(scale, &tuples, DEPLOY_SEED).0, queries, values, cfg.seed);
    }

    let mut notes = vec![format!(
        "perfbench workload={} seed={} peers={} clients={} rounds={} round_ops={} trace={} \
         distinct_queries={} read_values={}",
        cfg.workload.name(),
        cfg.seed,
        scale.peers,
        cfg.workload.clients(),
        rounds,
        scale.round_ops,
        cfg.trace,
        stream.queries().len(),
        stream.read_values().len()
    )];
    notes.push(format!(
        "setup_s samples: {}",
        setup_s.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
    ));
    notes.push(health(pg.label, &pg.cluster));
    notes.push(health(ch.label, &ch.cluster));

    let attempted = pg.acc.attempted + ch.acc.attempted;
    let failed = pg.acc.failed + ch.acc.failed;
    let mismatches = pg.acc.mismatches + ch.acc.mismatches;
    let mut metrics = Vec::new();
    if cfg.trace {
        metrics.extend(layer_metrics(&pg));
        metrics.extend(layer_metrics(&ch));
    } else {
        metrics.push(Metric::new("setup_s", "s", percentile(&setup_s, 50.0), Kind::Wall));
        let (a, b) = (&pg.acc.counted, &ch.acc.counted);
        let fixed = a.ops + a.checks + b.ops + b.checks;
        let fixed_failed = a.failed + b.failed;
        metrics.push(Metric::new(
            "ok_frac",
            "frac",
            (fixed - fixed_failed) as f64 / fixed.max(1) as f64,
            Kind::Count,
        ));
        let (a, b) = (&pg.acc, &ch.acc);
        for (name, unit, kind, f) in E2E {
            metrics.push(Metric::new(format!("{}.{name}", pg.label), unit, f(a), kind));
            metrics.push(Metric::new(format!("{}.{name}", ch.label), unit, f(b), kind));
        }
    }
    for (label, acc) in [(pg.label, &pg.acc), (ch.label, &ch.acc)] {
        let n = acc.counted.latencies_ms.len();
        notes.push(format!(
            "{label}: counted ops={n} (p99 over {n} samples{}), attempted={} failed={} mismatches={}",
            if n < 1000 { ", below 1000" } else { "" },
            acc.attempted,
            acc.failed,
            acc.mismatches
        ));
    }
    let traces = [(pg.label, pg.shadow), (ch.label, ch.shadow)]
        .into_iter()
        .filter_map(|(label, shadow)| Some((label, shadow?.tracer)))
        .collect();
    Report { correct: mismatches == 0, attempted, failed, metrics, notes, traces }
}

/// Per-backend end-to-end metrics: name, unit, kind and how each is
/// derived from the backend's tallies.
type Derive = fn(&Acc) -> f64;
const E2E: [(&str, &str, Kind, Derive); 5] = [
    ("ops_per_s", "1/s", Kind::Wall, |a| percentile(&a.rates, 50.0)),
    ("p50_ms", "ms", Kind::Sim, |a| percentile(&a.counted.latencies_ms, 50.0)),
    ("p99_ms", "ms", Kind::Sim, |a| percentile(&a.counted.latencies_ms, 99.0)),
    ("msgs_per_op", "msgs", Kind::Count, |a| ratio(a.counted.net.sent, a.counted.ops)),
    ("kib_per_op", "KiB", Kind::Count, |a| ratio(a.counted.net.bytes, a.counted.ops) / 1024.0),
];

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// The health line printed with every run: a healthy workload drops no
/// message and never retries, hedges or suppresses.
fn health<O: Overlay<Item = Triple>>(label: &str, c: &UniCluster<O>) -> String {
    let n = node_sums(c);
    format!(
        "{label} health: simnet.dropped={} retries={} hedges={} suppressed={}",
        c.net.metrics().dropped,
        n.retries,
        n.hedges,
        n.suppressed
    )
}

/// The traced run's per-layer metrics of one backend.
fn layer_metrics<O: Overlay<Item = Triple>>(b: &Backend<O>) -> Vec<Metric> {
    let st = b.shadow.as_ref().map(|s| s.tracer.self_times()).unwrap_or_default();
    let us = |name: &str| st.get(name).map(|t| t.mean_us()).unwrap_or(0.0);
    let a = &b.acc;
    let c = &a.counted;
    let reads = c.reads;
    let mut out = vec![
        ("vql.parse_us", "us", us("vql.parse"), Kind::Wall),
        ("query.plan_us", "us", us("query.plan"), Kind::Wall),
        ("query.mqp_bytes", "B", ratio(c.plan_bytes, c.plans), Kind::Count),
        ("query.eval_us", "us", us("query.eval"), Kind::Wall),
        ("query.rows_per_op", "rows", ratio(c.rows, reads), Kind::Count),
        ("query.useful_frac", "frac", ratio(c.result_bytes, c.shadow_sent_bytes), Kind::Count),
        ("core.submit_us", "us", us("core.submit"), Kind::Wall),
        ("core.wait_us", "us", us("core.wait"), Kind::Wall),
        ("core.cache_hit_frac", "frac", ratio(c.nodes.cache_hits, reads), Kind::Count),
        (
            "core.attempts_per_op",
            "attempts",
            ratio(reads + c.nodes.retries + c.nodes.hedges, reads),
            Kind::Count,
        ),
        ("core.suppressed", "count", c.nodes.suppressed as f64, Kind::Count),
        ("overlay.hops_per_op", "hops", ratio(c.hops, reads), Kind::Count),
        ("overlay.lookup_us", "us", us("overlay.lookup"), Kind::Wall),
        ("overlay.lookup_msgs", "msgs", ratio(a.lookup.msgs, a.lookup.calls), Kind::Count),
        ("overlay.lookup_sim_ms", "ms", a.lookup.sim_ms / a.lookup.calls.max(1) as f64, Kind::Sim),
        ("overlay.write_us", "us", us("overlay.write"), Kind::Wall),
        ("overlay.write_msgs", "msgs", ratio(a.write.msgs, a.write.calls), Kind::Count),
        ("overlay.write_kib", "KiB", ratio(a.write.bytes, a.write.calls) / 1024.0, Kind::Count),
        ("overlay.write_sim_ms", "ms", a.write.sim_ms / a.write.calls.max(1) as f64, Kind::Sim),
        ("store.scan_us", "us", us("store.scan"), Kind::Wall),
        (
            "simnet.events_per_op",
            "events",
            ratio(c.net.delivered + c.net.timers_fired, c.ops),
            Kind::Count,
        ),
        ("simnet.us_per_event", "us", a.wall_s * 1e6 / a.events.max(1) as f64, Kind::Wall),
        ("simnet.dropped", "count", b.cluster.net.metrics().dropped as f64, Kind::Count),
        ("wire.size_us", "us", us("wire.size"), Kind::Wall),
        ("alloc.per_op", "allocs", ratio(c.allocs, c.alloc_ops), Kind::Count),
        (
            "trace.overhead_frac",
            "frac",
            percentile(&a.rates, 50.0) / percentile(&a.span_rates, 50.0).max(1e-9) - 1.0,
            Kind::Wall,
        ),
    ];
    out.drain(..)
        .map(|(name, unit, value, kind)| {
            Metric::new(format!("{}.{name}", b.label), unit, value, kind)
        })
        .collect()
}
