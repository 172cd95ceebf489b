//! The closed-loop `pandorad` mix: an in-process daemon with 2 worker
//! lanes, loaded over the wire, driven by 2 client connections that each
//! wait for a reply before sending their next request.
//!
//! Each connection has its own schedule, built from blocks of a fixed
//! composition so the cost of a run does not drift with the seed:
//! - six `cluster` requests, half of the minPts × min_cluster_size grid; the
//!   two connections own disjoint halves, so no two requests in flight are
//!   ever identical and nothing coalesces;
//! - the clusters run in ascending minPts (the seed orders the ties), then
//!   one `sweep` over a `min_pts` list of the connection's own. A request
//!   replays its session's endgame snapshot only when its minPts is at
//!   least the minPts that snapshot was proved under, and a connection
//!   nearly always gets back the session its previous request parked, so
//!   every block holds the same few expensive requests (the first cluster
//!   and the sweep) and many cheap ones. The median then sits inside the
//!   cheap mode and the p95 inside the expensive one, instead of on the
//!   boundary between them;
//! - the mix runs in windows of a fixed number of blocks per connection
//!   (see [`Shape`]), [`WINDOWS_PER_ROUND`] per round of the in-process
//!   lifecycle, with the clients parked in between; connection 0 ends each
//!   round's last window with a `load` with `"replace": true`, which
//!   re-freezes the served dataset with the next draw and drops its endgame
//!   store and parked sessions. Every round therefore does the same
//!   requests, and its requests per second change only with the host and
//!   the program.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pandora_exec::ExecCtx;
use pandora_hdbscan::daemon::json::Json;
use pandora_hdbscan::daemon::{proto, CounterSnapshot, Daemon, DaemonConfig, DatasetRegistry};
use pandora_hdbscan::{ClusterRequest, DatasetIndex};
use pandora_mst::{BoruvkaStats, PointSet};

use crate::report::{secs, Tally};
use crate::spans::{Recorder, SpanId};
use crate::workload::{request, CEILING};

/// Registry name of the served dataset.
pub const DATASET: &str = "served";
/// Daemon worker lanes (one per core of the 2-core reference host).
pub const WORKERS: usize = 2;
/// Client connections, each a closed loop.
pub const CONNECTIONS: usize = 2;
const MIX_MIN_PTS: [usize; 4] = [2, 4, 8, 16];
const MIX_MCS: [usize; 3] = [5, 20, 50];
/// Per-connection sweep: (`min_pts` list, `min_cluster_size`).
const SWEEPS: [(&[usize], usize); CONNECTIONS] = [(&[4, 8], 20), (&[8, 16], 5)];
/// Reads (`cluster` + `sweep`) a run must complete, so the p95 has at
/// least ten samples beyond it.
pub const MIN_READS: usize = 200;
/// Cluster replies per connection kept for the byte-identity check.
const SAMPLED_REPLIES: usize = 4;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Cluster {
        min_pts: usize,
        mcs: usize,
    },
    Sweep {
        min_pts: &'static [usize],
        mcs: usize,
    },
    Reload,
}

/// splitmix64: a tiny seeded generator, so schedules depend on the seed
/// alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// How the mix is cut into windows: the blocks each connection sends per
/// window.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub blocks: usize,
}

/// Windows per round of the in-process lifecycle: one after each of its
/// phases, so the mix samples the host across the whole round. Connection
/// 0 ends the last window of each round with a reload.
pub const WINDOWS_PER_ROUND: usize = 3;

/// Whether window `w` ends with a reload.
fn reloads_after(w: usize) -> bool {
    (w + 1).is_multiple_of(WINDOWS_PER_ROUND)
}

/// One block of connection `conn`: its six clusters in ascending minPts
/// (ties in seeded order), then its sweep.
fn block(rng: &mut Rng, conn: usize) -> Vec<Op> {
    let mut ops: Vec<Op> = MIX_MIN_PTS
        .iter()
        .enumerate()
        .flat_map(|(i, &min_pts)| {
            MIX_MCS
                .iter()
                .enumerate()
                .filter(move |(j, _)| (i + j) % CONNECTIONS == conn)
                .map(move |(_, &mcs)| Op::Cluster { min_pts, mcs })
        })
        .collect();
    rng.shuffle(&mut ops);
    // Stable: requests of equal minPts keep their seeded order.
    ops.sort_by_key(|op| match op {
        Op::Cluster { min_pts, .. } => *min_pts,
        _ => usize::MAX,
    });
    let (min_pts, mcs) = SWEEPS[conn];
    ops.push(Op::Sweep { min_pts, mcs });
    ops
}

/// The requests connection `conn` sends in window `w`. Connection 0 ends
/// the last window of every round with a reload, so every round does the
/// same work and both connections start the next round on a fresh index.
fn window_ops(rng: &mut Rng, conn: usize, w: usize, shape: Shape) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..shape.blocks).flat_map(|_| block(rng, conn)).collect();
    if conn == 0 && reloads_after(w) {
        ops.push(Op::Reload);
    }
    ops
}

fn cluster_fields(mcs: usize) -> String {
    format!(
        r#""dataset":"{DATASET}","min_cluster_size":{mcs},"linkage":"single","dendrogram":"alpha-contraction""#
    )
}

/// The wire line for `op` (no trailing newline); a reload sends
/// `load_params`.
fn line(op: Op, id: u64, load_params: &str) -> String {
    match op {
        Op::Cluster { min_pts, mcs } => format!(
            r#"{{"id":{id},"method":"cluster","params":{{{},"min_pts":{min_pts}}}}}"#,
            cluster_fields(mcs)
        ),
        Op::Sweep { min_pts, mcs } => {
            let list: Vec<String> = min_pts.iter().map(|m| m.to_string()).collect();
            format!(
                r#"{{"id":{id},"method":"sweep","params":{{{},"min_pts":[{}]}}}}"#,
                cluster_fields(mcs),
                list.join(",")
            )
        }
        Op::Reload => load_line(id, load_params),
    }
}

fn load_line(id: u64, load_params: &str) -> String {
    format!(r#"{{"id":{id},"method":"load","params":{load_params}}}"#)
}

/// `load` params for `points` (coordinates as shortest round-trip f32).
fn load_params(points: &PointSet) -> String {
    Json::obj(vec![
        ("name", Json::Str(DATASET.to_string())),
        ("dim", Json::Int(points.dim() as i64)),
        ("max_min_pts", Json::Int(CEILING as i64)),
        ("replace", Json::Bool(true)),
        (
            "points",
            Json::Arr(points.coords().iter().map(|&c| Json::F32(c)).collect()),
        ),
    ])
    .to_string()
}

/// Whether `reply` is a success response to request `id`.
fn is_ok_reply(reply: &str, id: u64) -> bool {
    reply.starts_with(&format!(r#"{{"id":{id},"result":"#))
}

/// What a mix run measured.
#[derive(Debug, Default)]
pub struct MixReport {
    /// Round trips of the set-up `load`s sent before the loop.
    pub setup_load_s: Vec<f64>,
    /// Round trips of the in-traffic reloads.
    pub reload_s: Vec<f64>,
    /// Round trips of successful reads (`cluster` + `sweep`).
    pub read_s: Vec<f64>,
    /// Round trips of successful `cluster` requests only.
    pub cluster_s: Vec<f64>,
    /// Requests completed successfully in the loop (reads + reloads).
    pub completed: usize,
    /// (requests completed, wall seconds) per window.
    pub windows: Vec<(usize, f64)>,
    pub counters: Option<CounterSnapshot>,
    pub server_p50_ms: Option<f64>,
    pub server_p95_ms: Option<f64>,
    /// Borůvka work of every index the daemon served.
    pub boruvka: BoruvkaCounts,
    /// Successful cluster requests in completion order (for the replay).
    pub completions: Vec<(Instant, u64, ClusterRequest)>,
}

/// Borůvka effectiveness counters summed over indexes.
#[derive(Debug, Default, Clone, Copy)]
pub struct BoruvkaCounts {
    pub witness_hits: u64,
    pub researches: u64,
    pub snapshot_adopts: u64,
}

impl BoruvkaCounts {
    fn add(&mut self, stats: &BoruvkaStats) {
        self.witness_hits += stats.witness_hits();
        self.researches += stats.researches();
        self.snapshot_adopts += stats.snapshot_adopts();
    }

    fn merge(&mut self, other: BoruvkaCounts) {
        self.witness_hits += other.witness_hits;
        self.researches += other.researches;
        self.snapshot_adopts += other.snapshot_adopts;
    }
}

/// Opens and closes measurement windows for the client threads. Between
/// windows the clients are parked, so in-process phases interleaved with
/// the windows run on an idle daemon.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    /// Successful reads (`cluster` + `sweep`).
    reads: AtomicUsize,
    /// Successful requests of any kind.
    completed: AtomicUsize,
}

#[derive(Default)]
struct GateState {
    /// Index of the open window.
    window: Option<usize>,
    stop: bool,
    /// Clients still working through the open window.
    busy: usize,
    /// Clients whose connection still works.
    alive: usize,
    /// Parent span of the open window (traced runs).
    window_span: Option<SpanId>,
    /// `load` params of the open window's reload: the next draw.
    reload: Arc<String>,
    /// When the first reload was sent; replies completed before it were
    /// served from draw 0.
    first_reload: Option<Instant>,
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        // Every update is a single field store, so a poisoned guard still
        // holds consistent state.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, GateState>) -> MutexGuard<'a, GateState> {
        self.cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until window `w` opens (returns its span) or the mix stops.
    fn enter(&self, w: usize) -> Option<Option<SpanId>> {
        let mut st = self.lock();
        while st.window != Some(w) && !st.stop {
            st = self.wait(st);
        }
        (!st.stop).then_some(st.window_span)
    }

    /// A client finished its part of the open window; `alive` is false
    /// when its connection failed and it takes no part in later windows.
    fn leave(&self, alive: bool) {
        let mut st = self.lock();
        st.busy -= 1;
        if !alive {
            st.alive -= 1;
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// Drives measurement windows of the running mix.
pub struct Windows<'a> {
    gate: &'a Gate,
    rec: Option<&'a Recorder>,
    served: &'a dyn Fn(usize) -> PointSet,
    /// (requests completed, wall seconds) of every closed window.
    closed: Mutex<Vec<(usize, f64)>>,
}

impl Windows<'_> {
    /// Runs one window: every client sends its next window of requests
    /// (see [`window_ops`]) and the call returns once all replies are in.
    /// The reload that ends round `r` loads draw `r + 1`.
    pub fn window(&self) {
        let mut closed = self.closed.lock().unwrap_or_else(|e| e.into_inner());
        let w = closed.len();
        // The next draw is prepared before the window opens.
        let reload = reloads_after(w)
            .then(|| Arc::new(load_params(&(self.served)((w + 1) / WINDOWS_PER_ROUND))));
        let span = self.rec.map(|r| r.open("hdbscan.daemon.window", None, 0));
        let start = Instant::now();
        let done = self.gate.completed.load(Ordering::SeqCst);
        let mut st = self.gate.lock();
        st.window = Some(w);
        if let Some(reload) = reload {
            st.reload = reload;
        }
        st.window_span = span;
        st.busy = st.alive;
        self.gate.cv.notify_all();
        while st.busy > 0 {
            st = self.gate.wait(st);
        }
        st.window = None;
        drop(st);
        if let (Some(r), Some(id)) = (self.rec, span) {
            r.close(id);
        }
        let done = self.gate.completed.load(Ordering::SeqCst) - done;
        closed.push((done, secs(start)));
    }

    /// Reads completed so far.
    pub fn reads(&self) -> usize {
        self.gate.reads.load(Ordering::SeqCst)
    }

    /// Runs one round's worth of windows.
    pub fn round(&self) {
        for _ in 0..WINDOWS_PER_ROUND {
            self.window();
        }
    }

    /// Runs whole rounds of windows until at least [`MIN_READS`] reads have
    /// completed or `limit` has passed.
    pub fn top_up(&self, limit: Duration) {
        let start = Instant::now();
        while self.reads() < MIN_READS && start.elapsed() < limit {
            self.round();
        }
    }
}

#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    read_s: Vec<f64>,
    cluster_s: Vec<f64>,
    reload_s: Vec<f64>,
    completions: Vec<(Instant, u64, ClusterRequest)>,
    /// Sampled cluster replies and when they completed.
    samples: Vec<(u64, ClusterRequest, String, Instant)>,
    /// Borůvka work of the indexes this client's reloads replaced, read
    /// just before each reload (requests still in flight on a replaced
    /// index are not counted).
    replaced: BoruvkaCounts,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Sends one line and waits for the reply line.
    fn call(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }
}

/// What one client connection does: its schedule, window by window, one
/// request at a time.
struct Client<'a> {
    conn_id: usize,
    seed: u64,
    shape: Shape,
    gate: &'a Gate,
    registry: &'a DatasetRegistry,
    rec: Option<&'a Recorder>,
}

impl Client<'_> {
    fn run(self, mut conn: Conn) -> ClientLog {
        let mut log = ClientLog::default();
        let mut reply = String::new();
        let mut rng = Rng::new(self.seed, self.conn_id as u64 + 1);
        let mut sample_at = Vec::new();
        let mut k = 0;
        for w in 0.. {
            let Some(span) = self.gate.enter(w) else {
                break;
            };
            let ops = window_ops(&mut rng, self.conn_id, w, self.shape);
            if w == 0 {
                sample_at = sample_positions(&ops, self.seed, self.conn_id);
            }
            let mut alive = true;
            for op in ops {
                let sample = sample_at.contains(&k);
                alive = self.call(&mut conn, &mut log, &mut reply, k, op, span, sample);
                k += 1;
                if !alive {
                    break;
                }
            }
            self.gate.leave(alive);
            if !alive {
                break;
            }
        }
        log
    }

    /// One request; `false` when the connection is unusable.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &self,
        conn: &mut Conn,
        log: &mut ClientLog,
        reply: &mut String,
        k: usize,
        op: Op,
        window: Option<SpanId>,
        sample: bool,
    ) -> bool {
        let id = ((self.conn_id as u64 + 1) << 32) | k as u64;
        let mut params = Arc::default();
        if op == Op::Reload {
            if let Some(index) = self.registry.get(DATASET) {
                log.replaced.add(index.emst().stats());
            }
            let mut st = self.gate.lock();
            params = Arc::clone(&st.reload);
            st.first_reload.get_or_insert_with(Instant::now);
        }
        let text = line(op, id, &params);
        let span = self
            .rec
            .map(|r| (r, r.open("hdbscan.daemon.rtt", window, id)));
        let t = Instant::now();
        let sent = conn.call(&text, reply);
        let rtt = secs(t);
        if let Some((r, span)) = span {
            r.close(span);
        }
        log.attempted += 1;
        if let Err(e) = sent {
            eprintln!("perfbench: FAILED request {id}: {e}");
            log.failed += 1;
            return false;
        }
        if !is_ok_reply(reply, id) {
            let head: String = reply.chars().take(200).collect();
            eprintln!("perfbench: FAILED request {id}: {head}");
            log.failed += 1;
            return true;
        }
        self.gate.completed.fetch_add(1, Ordering::SeqCst);
        match op {
            Op::Reload => log.reload_s.push(rtt),
            Op::Cluster { min_pts, mcs } => {
                let req = request(min_pts, mcs);
                log.read_s.push(rtt);
                log.cluster_s.push(rtt);
                log.completions.push((Instant::now(), id, req));
                if sample {
                    let text = reply.trim_end().to_string();
                    log.samples.push((id, req, text, Instant::now()));
                }
                self.gate.reads.fetch_add(1, Ordering::SeqCst);
            }
            Op::Sweep { .. } => {
                log.read_s.push(rtt);
                self.gate.reads.fetch_add(1, Ordering::SeqCst);
            }
        }
        true
    }
}

/// Cluster positions in the first half of the first window whose replies
/// are kept (early, so they complete before the window's reload).
fn sample_positions(ops: &[Op], seed: u64, conn: usize) -> Vec<usize> {
    let mut candidates: Vec<usize> = ops
        .iter()
        .take(ops.len() / 2)
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Cluster { .. }))
        .map(|(k, _)| k)
        .collect();
    Rng::new(seed, 100 + conn as u64).shuffle(&mut candidates);
    candidates.truncate(SAMPLED_REPLIES);
    candidates
}

/// Starts a daemon serving draw 0 of `served` (loaded over the wire
/// `setup_loads` times), parks one client thread per connection, and runs
/// `body`, which opens measurement windows between its own in-process
/// work; every window's reload serves the next draw, so a run's daemon
/// figures cover several datasets. Afterwards the daemon's `stats` and
/// counters are read, it is shut down, and a seeded sample of cluster
/// replies served from draw 0 is checked byte for byte against in-process
/// runs.
pub fn with_mix<R>(
    served: &dyn Fn(usize) -> PointSet,
    seed: u64,
    shape: Shape,
    setup_loads: usize,
    tally: &mut Tally,
    rec: Option<&Recorder>,
    body: impl FnOnce(&Windows<'_>, &mut Tally) -> R,
) -> Option<(R, MixReport)> {
    let mut report = MixReport::default();
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(WORKERS));
    let daemon = tally.op("daemon bind", daemon)?;
    let addr = daemon.local_addr();
    let points = served(0);
    let load = load_params(&points);
    // The daemon must freeze exactly the points the in-process check uses.
    let parsed = Json::parse(&load).map_err(|e| e.to_string());
    let same_points = parsed
        .and_then(|p| proto::load_params(&p).map_err(|e| e.message))
        .map(|p| p.points == points.coords());
    tally.check("load params round trip", same_points == Ok(true), || {
        format!("{same_points:?}")
    });

    // Set-up: wire loads on a connection of their own.
    let mut reply = String::new();
    let mut setup = tally.op("setup connect", Conn::open(addr))?;
    for i in 0..setup_loads.max(1) {
        let id = i as u64;
        let t = Instant::now();
        let sent = setup.call(&load_line(id, &load), &mut reply);
        let rtt = secs(t);
        let ok = sent.is_ok() && is_ok_reply(&reply, id);
        tally.check("setup load", ok, || {
            format!("{sent:?} {}", reply.trim_end())
        });
        report.setup_load_s.push(rtt);
    }

    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(tally.op("client connect", Conn::open(addr))?);
    }
    let gate = Gate::default();
    gate.lock().alive = conns.len();
    let windows = Windows {
        gate: &gate,
        rec,
        served,
        closed: Mutex::new(Vec::new()),
    };
    let registry = daemon.registry();
    let (out, logs) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let client = Client {
                    conn_id: c,
                    seed,
                    shape,
                    gate: &gate,
                    registry,
                    rec,
                };
                s.spawn(move || client.run(conn))
            })
            .collect();
        let out = body(&windows, tally);
        gate.lock().stop = true;
        gate.cv.notify_all();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (out, logs)
    });
    report.windows = windows
        .closed
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());

    // Server-side view: `stats` latency and the work counters.
    let stats = setup
        .call(r#"{"id":0,"method":"stats"}"#, &mut reply)
        .map(|()| reply.clone());
    if let Some(text) = tally.op("stats", stats) {
        let parsed = Json::parse(text.trim()).ok();
        let cluster = parsed
            .as_ref()
            .and_then(|j| j.get("result")?.get("latency")?.get("cluster").cloned());
        report.server_p50_ms = cluster.as_ref().and_then(|c| c.get("p50_ms")?.as_f64());
        report.server_p95_ms = cluster.as_ref().and_then(|c| c.get("p95_ms")?.as_f64());
    }
    drop(setup);
    report.counters = Some(daemon.counters());
    if let Some(index) = registry.get(DATASET) {
        report.boruvka.add(index.emst().stats());
    }
    let first_reload = gate.lock().first_reload;
    let mut sampled = Vec::new();
    for log in logs {
        tally.attempted += log.attempted;
        tally.failed += log.failed;
        report.completed += log.read_s.len() + log.reload_s.len();
        report.read_s.extend(log.read_s);
        report.cluster_s.extend(log.cluster_s);
        report.reload_s.extend(log.reload_s);
        report.completions.extend(log.completions);
        // Only replies that completed before the first reload are known to
        // come from draw 0.
        sampled.extend(
            log.samples
                .into_iter()
                .filter(|s| first_reload.is_none_or(|t| s.3 < t)),
        );
        report.boruvka.merge(log.replaced);
    }
    report.completions.sort_by_key(|c| c.0);
    daemon.shutdown();
    daemon.join();

    // After the timed windows: sampled replies against in-process runs.
    let index = DatasetIndex::freeze_with_ctx(ExecCtx::threads(), points, CEILING);
    if let Some(index) = tally.op("check freeze", index) {
        let index = Arc::new(index);
        for (id, req, reply, _) in sampled {
            let mut session = index.session_with_ctx(ExecCtx::serial());
            let expected = session
                .run(&req)
                .map(|r| proto::response_ok(&Json::Int(id as i64), proto::cluster_result(&r)));
            let same = expected.as_deref() == Ok(reply.as_str());
            tally.check("daemon reply bytes", same, || {
                format!("reply {id} differs from the in-process result")
            });
        }
    }
    Some((out, report))
}

/// Serial replay of the first `k` completed cluster requests: the daemon's
/// per-request compute (`Session::run` on a serial context, one session per
/// request as a worker lane draws) and the reply encoding, each timed
/// alone. Returns `(compute_s, encode_s)` samples.
pub fn replay(
    points: &PointSet,
    completions: &[(Instant, u64, ClusterRequest)],
    k: usize,
    tally: &mut Tally,
    rec: &Recorder,
) -> (Vec<f64>, Vec<f64>) {
    let (mut compute, mut encode) = (Vec::new(), Vec::new());
    let index = DatasetIndex::freeze_with_ctx(ExecCtx::threads(), points.clone(), CEILING);
    let Some(index) = tally.op("replay freeze", index) else {
        return (compute, encode);
    };
    let index = Arc::new(index);
    for &(_, id, req) in completions.iter().take(k) {
        let mut session = index.session_with_ctx(ExecCtx::serial());
        let (run, run_s) = rec.time("hdbscan.daemon.compute", None, id, || session.run(&req));
        let Some(result) = tally.op("replay request", run) else {
            continue;
        };
        let (line, enc_s) = rec.time("hdbscan.daemon.encode", None, id, || {
            proto::response_ok(&Json::Int(id as i64), proto::cluster_result(&result))
        });
        std::hint::black_box(line);
        compute.push(run_s);
        encode.push(enc_s);
    }
    (compute, encode)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape { blocks: 3 };

    fn windows(seed: u64, conn: usize, n: usize) -> Vec<Vec<Op>> {
        let mut rng = Rng::new(seed, conn as u64 + 1);
        (0..n)
            .map(|w| window_ops(&mut rng, conn, w, SHAPE))
            .collect()
    }

    #[test]
    fn windows_have_a_fixed_composition() {
        for conn in 0..CONNECTIONS {
            for (w, ops) in windows(7, conn, 2 * WINDOWS_PER_ROUND).iter().enumerate() {
                let clusters = ops
                    .iter()
                    .filter(|o| matches!(o, Op::Cluster { .. }))
                    .count();
                let sweeps = ops.iter().filter(|o| matches!(o, Op::Sweep { .. })).count();
                let reloads = ops.iter().filter(|o| **o == Op::Reload).count();
                let reload = conn == 0 && w % WINDOWS_PER_ROUND == WINDOWS_PER_ROUND - 1;
                assert_eq!(clusters, SHAPE.blocks * 6);
                assert_eq!(sweeps, SHAPE.blocks);
                assert_eq!(reloads, usize::from(reload), "window {w}");
                assert_eq!(ops.last() == Some(&Op::Reload), reload, "window {w}");
            }
        }
    }

    #[test]
    fn blocks_run_in_ascending_min_pts_then_sweep() {
        let ops = windows(5, 1, 1).remove(0);
        for b in ops.chunks(7) {
            let pts: Vec<usize> = b[..6]
                .iter()
                .map(|op| match op {
                    Op::Cluster { min_pts, .. } => *min_pts,
                    other => panic!("{other:?} inside the cluster run"),
                })
                .collect();
            assert!(pts.windows(2).all(|p| p[0] <= p[1]), "{pts:?}");
            assert!(matches!(b[6], Op::Sweep { .. }));
        }
    }

    #[test]
    fn connections_never_send_the_same_request() {
        let a = windows(3, 0, 2).concat();
        let b = windows(3, 1, 2).concat();
        for op in a.iter().filter(|o| **o != Op::Reload) {
            assert!(!b.contains(op), "{op:?} on both connections");
        }
    }

    #[test]
    fn schedules_follow_the_seed() {
        assert_eq!(windows(11, 0, 3), windows(11, 0, 3));
        assert_ne!(windows(11, 0, 3), windows(12, 0, 3));
    }

    #[test]
    fn lines_parse_as_the_pinned_request() {
        let text = line(
            Op::Cluster {
                min_pts: 4,
                mcs: 50,
            },
            9,
            "",
        );
        let parsed = proto::parse_request(&text).expect("well-formed");
        let params = proto::cluster_params(&parsed.params).expect("valid");
        assert_eq!(params.dataset, DATASET);
        assert_eq!(params.request, request(4, 50));
        let sweep = line(
            Op::Sweep {
                min_pts: &[8, 16],
                mcs: 5,
            },
            10,
            "",
        );
        let parsed = proto::parse_request(&sweep).expect("well-formed");
        let params = proto::sweep_params(&parsed.params).expect("valid");
        assert_eq!(params.min_pts, vec![8, 16]);
        assert_eq!(params.base, request(ClusterRequest::new().min_pts, 5));
    }
}
