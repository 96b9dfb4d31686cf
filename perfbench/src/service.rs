//! The `window_service` workload: the `polyclip_serve` binary serving its
//! prepared `gis` layer to a closed loop of window queries over loopback.
//!
//! One connection per core, each sending its next request only after the
//! previous answer arrived. Requests come in whole rounds of four: one from
//! the connection's hot set of four windows (answered from the result cache,
//! which the set-up warms) and three fresh windows, so cache hits are a fixed
//! quarter of the requests in every run.

use crate::batch::{algo2_layers, collinear_vertices, pool_layers};
use crate::inputs::{corners, spread_window, SERVE_LAYER_SEED};
use crate::integrate::area_in_tile;
use crate::replay::engine_replay;
use crate::trace::{Layers, Spans};
use crate::util::{cpu_ms, median, ms, peak_rss_mb, quantile, Metric, Outcome, Rng};
use crate::Args;
use polyclip::geom::geojson::{from_geojson, to_geojson};
use polyclip::prelude::*;
use polyclip_bench::flatten_layer;
use polyclip_bench::json::Value;
use polyclip_serve::protocol::{render_clip_request, Priority};
use polyclip_serve::server::ServeConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run (server start, layer build, cache warm-up); `setup_s`
/// is their median.
const SETUPS: usize = 3;
/// Requests per round per connection: the first from the hot set.
const ROUND: usize = 4;
/// Hot windows per connection.
const HOT: usize = 4;
/// Window sizes, as shares of the layer's bounding box.
const WINDOW_SHARE: (f64, f64) = (0.02, 0.08);
/// Tail percentile of `latency_tail_ms`: p90 keeps at least ten samples
/// beyond it from 100 requests up. A percentile chosen by the sample count
/// would move to p99 when the server gets faster and more requests fit in
/// a run, so a faster server would read as a slower tail.
const TAIL_Q: f64 = 0.9;

/// A running server, stopped and reaped on drop whatever happens.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(bin: &std::path::Path, scale: f64, small: bool) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--scale", &scale.to_string()]);
        if small {
            cmd.args(["--n", "500"]);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let mut server = Server {
            child,
            addr: String::new(),
        };
        match line.trim().strip_prefix("LISTENING ") {
            Some(addr) => server.addr = addr.to_string(),
            None => return Err(format!("server did not report its address: {line:?}")),
        }
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Ask the server to stop, then wait for it (kill after a grace period).
    fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.call("{\"id\":0,\"op\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.shutdown();
        }
    }
}

/// One client connection: a request line out, one response line back.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(Duration::from_secs(60)))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn { w, r })
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.w.write_all(line.as_bytes())?;
        let mut resp = String::new();
        if self.r.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        Ok(resp)
    }
}

/// One request as the client saw it.
struct Sample {
    query: usize,
    rtt_ms: f64,
    response: String,
}

pub fn window_service(args: &Args) -> Outcome {
    let Some(bin) = &args.server_bin else {
        eprintln!("error: window_service needs --server-bin");
        std::process::exit(2);
    };
    let scale = args.sizes.serve_scale;
    let conns = std::thread::available_parallelism().map_or(1, usize::from);
    let t_start = Instant::now();
    let mut spans = Spans::new(args.trace, t_start);

    // Set-up, several times; the last server stays up for the timed phase.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept: Option<(Server, Vec<Conn>, BBox)> = None;
    for _ in 0..SETUPS {
        if let Some((old, _, _)) = kept.take() {
            old.stop();
        }
        let t = Instant::now();
        let state = start_and_warm(bin, scale, args, conns);
        setups.push(t.elapsed().as_secs_f64());
        match state {
            Ok(s) => kept = Some(s),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    let (server, mut clients, bbox) = kept.expect("set-up ran");
    let queries = QuerySet::new(args.seed, bbox, conns);

    // Timed phase: a closed loop per connection, whole rounds only.
    let pid = server.pid();
    let mut admin = Conn::open(&server.addr).expect("admin connection");
    let before = stats(&mut admin);
    let cpu0 = cpu_ms(&pid);
    let budget = Duration::from_secs_f64(args.seconds);
    let t_loop = Instant::now();
    let per_conn: Vec<(Vec<Sample>, Vec<bool>, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(ci, conn)| {
                let queries = &queries;
                let trace = args.trace;
                s.spawn(move || {
                    let mut spans = Spans::new(trace, t_start);
                    let mut samples = Vec::new();
                    let mut traced_rounds = Vec::new();
                    let mut round = 0usize;
                    while round < 2 || t_loop.elapsed() < budget {
                        let traced = trace && round % 2 == 1;
                        for slot in 0..ROUND {
                            let q = queries.pick(ci, round, slot);
                            let id = (ci * 1_000_000 + round * ROUND + slot) as u64;
                            let line = queries.request(q, id);
                            let t = Instant::now();
                            let resp = if traced {
                                spans.time("round_trip", id, || conn.call(&line))
                            } else {
                                conn.call(&line)
                            };
                            let rtt_ms = ms(t.elapsed());
                            samples.push(Sample {
                                query: q,
                                rtt_ms,
                                response: resp.unwrap_or_else(|e| format!("io error: {e}")),
                            });
                        }
                        traced_rounds.push(traced);
                        round += 1;
                    }
                    (samples, traced_rounds, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let loop_s = t_loop.elapsed().as_secs_f64();
    let cpu_server = cpu_ms(&pid) - cpu0;
    let after = stats(&mut admin);
    let server_rss = peak_rss_mb(&pid);
    drop(admin);
    drop(clients);
    server.stop();

    let mut samples = Vec::new();
    let mut rtt_plain = Vec::new();
    let mut rtt_traced = Vec::new();
    for (s, traced_rounds, sp) in per_conn {
        for (i, x) in s.iter().enumerate() {
            if spans.on {
                let traced = traced_rounds[i / ROUND];
                if traced {
                    &mut rtt_traced
                } else {
                    &mut rtt_plain
                }
                .push(x.rtt_ms);
            }
        }
        samples.extend(s);
        spans.list.extend(sp.list);
    }

    // Checks, after the server stopped: every answer against a direct
    // library call with the server's options, and every window's area
    // against strip integration of the layer.
    let raw_layer = flatten_layer(1, scale, SERVE_LAYER_SEED);
    let opts = ServeConfig::default().base_opts;
    let mut layer = None;
    for _ in 0..if spans.on { SETUPS } else { 1 } {
        layer = Some(
            spans
                .time("PreparedLayer::build", 0, || {
                    PreparedLayer::build(&raw_layer, &opts)
                })
                .expect("layer build"),
        );
    }
    let layer = layer.expect("built above");
    let mut used: Vec<usize> = samples.iter().map(|s| s.query).collect();
    used.sort_unstable();
    used.dedup();
    let checks = check_queries(&queries, &used, &layer, &raw_layer, &opts, args.trace);

    let mut failed = 0u64;
    let mut first_failures = Vec::new();
    let (mut hits, mut miss_rtt, mut overhead, mut resp_bytes) =
        (0u64, Vec::new(), Vec::new(), 0usize);
    for s in &samples {
        resp_bytes += s.response.len();
        let check = &checks[used.binary_search(&s.query).expect("checked")];
        match judge(&s.response, check) {
            Ok((cache_hit, exec_ms)) => {
                overhead.push(s.rtt_ms - exec_ms);
                if cache_hit {
                    hits += 1;
                } else {
                    miss_rtt.push(s.rtt_ms);
                }
            }
            Err(e) => {
                failed += 1;
                if first_failures.len() < 5 {
                    first_failures.push(e);
                }
            }
        }
    }
    for f in &first_failures {
        eprintln!("failed query: {f}");
    }
    let n = samples.len();
    let rtts: Vec<f64> = samples.iter().map(|s| s.rtt_ms).collect();
    let tail = quantile(&rtts, TAIL_Q);
    println!(
        "window_service: {n} requests on {conns} connections, {hits} cache hits, tail = p{} \
         ({} samples beyond it)",
        TAIL_Q * 100.0,
        (n as f64 * (1.0 - TAIL_Q)).floor()
    );
    // Mean output size over the distinct fresh windows: the hot set is a
    // handful of windows repeated a quarter of the time, which would weigh
    // a few seed-chosen outputs heavily.
    let fresh: Vec<f64> = used
        .iter()
        .zip(&checks)
        .filter(|(q, _)| **q >= conns * HOT)
        .map(|(_, c)| c.out_vertices as f64)
        .collect();
    let fresh_out_vertices = fresh.iter().sum::<f64>() / fresh.len().max(1) as f64;
    let server_hits = after.0 - before.0;
    let server_misses = after.1 - before.1;

    let metrics = if !args.trace {
        vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("op_ms", median(&miss_rtt), "ms"),
            Metric::new("cpu_ms_per_op", cpu_server / n as f64, "ms"),
            Metric::new("out_vertices", fresh_out_vertices, "count"),
            Metric::new("peak_rss_mb", server_rss, "MB"),
            Metric::new("latency_p50_ms", median(&rtts), "ms"),
            Metric::new("latency_tail_ms", tail, "ms"),
            Metric::new("queries_per_s", n as f64 / loop_s, "1/s"),
        ]
    } else {
        let mut layers = Layers::default();
        layers.set(
            "core.prepared.build_ms",
            median(&spans.durations_ms("PreparedLayer::build")),
        );
        let samples_a2: Vec<(Algo2Result, usize)> = checks
            .iter()
            .filter_map(|c| c.counters.clone().map(|r| (r, c.out_vertices)))
            .collect();
        algo2_layers(&mut layers, &samples_a2);
        layers.set(
            "core.prepared.clip_ms",
            median(&checks.iter().map(|c| c.clip_ms).collect::<Vec<_>>()),
        );
        layers.set(
            "core.prepared.edges_per_out_vertex",
            median(
                &checks
                    .iter()
                    .map(|c| c.n_edges as f64 / c.out_vertices.max(1) as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        layers.set(
            "core.validate_ms",
            median(&checks.iter().map(|c| c.validate_ms).collect::<Vec<_>>()),
        );
        layers.set(
            "core.stitch.collinear_out_vertices",
            median(
                &checks
                    .iter()
                    .map(|c| c.collinear as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        layers.set("serve.overhead_ms", median(&overhead));
        layers.set("serve.cache_hits", server_hits as f64);
        layers.set("serve.cache_misses", server_misses as f64);
        layers.set("serve.response_bytes", resp_bytes as f64 / n.max(1) as f64);
        // The layer read from GeoJSON and sanitized, as a build from a file
        // would pay for it.
        let text = to_geojson(&raw_layer, true);
        for _ in 0..SETUPS {
            let parsed = spans.time("from_geojson", 0, || from_geojson(&text));
            std::hint::black_box(parsed.is_ok());
            spans.time("sanitize_set", 0, || {
                std::hint::black_box(sanitize_set(&raw_layer, &SanitizeOptions::repairs_only()));
            });
        }
        layers.set(
            "geom.geojson_read_ms",
            median(&spans.durations_ms("from_geojson")),
        );
        layers.set(
            "core.sanitize_ms",
            median(&spans.durations_ms("sanitize_set")),
        );
        // One fresh window: on the work-stealing grid backend with one piece
        // per core (one piece leaves the pool nothing to schedule), and
        // replayed stage by stage on the engine.
        let q = queries.polygon(queries.pick(0, 0, 1));
        let grid = try_clip_prepared_backend(
            &layer,
            &q,
            BoolOp::Intersection,
            conns,
            &opts,
            MergeStrategy::Sequential,
            PartitionBackend::AdaptiveGrid,
        );
        if let Ok(g) = &grid {
            pool_layers(&mut layers, g);
        }
        layers.extend(engine_replay(&raw_layer, &q, BoolOp::Intersection));
        let plain = median(&rtt_plain);
        layers.set(
            "bench.trace_overhead_pct",
            (median(&rtt_traced) - plain) / plain * 100.0,
        );
        layers.metrics()
    };
    if let Some(dir) = &args.spans_dir {
        spans.dump(&dir.join(format!("{}-{}.jsonl", args.workload, args.seed)));
    }
    crate::print_host(args, 1);
    Outcome {
        correct: failed == 0,
        attempted: n as u64,
        failed,
        metrics,
    }
}

/// Start the server, open the client connections, learn the layer's
/// bounding box and warm the cache with every connection's hot set.
fn start_and_warm(
    bin: &std::path::Path,
    scale: f64,
    args: &Args,
    conns: usize,
) -> Result<(Server, Vec<Conn>, BBox), String> {
    let server = Server::start(bin, scale, args.small)?;
    let mut clients = (0..conns)
        .map(|_| Conn::open(&server.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let info = clients[0]
        .call("{\"id\":0,\"op\":\"info\",\"layer\":\"gis\"}\n")
        .map_err(|e| format!("info: {e}"))?;
    let doc = Value::parse(info.trim()).map_err(|_| format!("info reply: {info:?}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("info reply lacks {k}"))
    };
    let bbox = BBox::new(num("xmin")?, num("ymin")?, num("xmax")?, num("ymax")?);
    let queries = QuerySet::new(args.seed, bbox, conns);
    for (ci, c) in clients.iter_mut().enumerate() {
        for h in 0..HOT {
            c.call(&queries.request(queries.hot(ci, h), 0))
                .map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok((server, clients, bbox))
}

/// Cache hits and misses from the `stats` verb.
fn stats(admin: &mut Conn) -> (u64, u64) {
    let line = admin
        .call("{\"id\":0,\"op\":\"stats\"}\n")
        .unwrap_or_default();
    let doc = Value::parse(line.trim()).unwrap_or(Value::Obj(Vec::new()));
    let get = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    (get("cache_hits"), get("cache_misses"))
}

/// Every window the run can ask: per connection, `HOT` hot windows and a
/// stream of fresh ones, all from one seeded low-discrepancy sequence
/// (`inputs::spread_window`), hot ones first.
struct QuerySet {
    start: [f64; 4],
    conns: usize,
    bbox: BBox,
}

impl QuerySet {
    fn new(seed: u64, bbox: BBox, conns: usize) -> Self {
        let mut rng = Rng::new(seed);
        let start = [(); 4].map(|_| rng.range(0.0, 1.0));
        QuerySet { start, conns, bbox }
    }

    /// Query index of hot window `h` of connection `ci`.
    fn hot(&self, ci: usize, h: usize) -> usize {
        ci * HOT + h
    }

    /// Query index asked by connection `ci` in `slot` of `round`. Fresh
    /// queries get indices past the hot ones, unique per (ci, round, slot).
    fn pick(&self, ci: usize, round: usize, slot: usize) -> usize {
        if slot == 0 {
            self.hot(ci, round % HOT)
        } else {
            self.conns * HOT + (round * (ROUND - 1) + slot - 1) * self.conns + ci
        }
    }

    fn rect(&self, q: usize) -> BBox {
        spread_window(&self.start, q, self.bbox, WINDOW_SHARE.0, WINDOW_SHARE.1)
    }

    fn polygon(&self, q: usize) -> PolygonSet {
        PolygonSet::from_xy(&corners(self.rect(q)))
    }

    fn request(&self, q: usize, id: u64) -> String {
        render_clip_request(
            id,
            BoolOp::Intersection,
            "gis",
            Priority::Normal,
            None,
            &corners(self.rect(q)),
        )
    }
}

/// What a direct library call says about one window.
struct Check {
    contours: usize,
    area: f64,
    degraded: Vec<String>,
    out_vertices: usize,
    n_edges: usize,
    collinear: usize,
    clip_ms: f64,
    validate_ms: f64,
    counters: Option<Algo2Result>,
    error: Option<String>,
}

/// Direct `try_clip_prepared` on every distinct window, checked by
/// `validate()` and strip integration, on one thread per core.
fn check_queries(
    queries: &QuerySet,
    used: &[usize],
    layer: &PreparedLayer,
    raw: &PolygonSet,
    opts: &ClipOptions,
    keep_counters: bool,
) -> Vec<Check> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = used.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = used
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&q| check_one(queries, q, layer, raw, opts, keep_counters))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    })
}

fn check_one(
    queries: &QuerySet,
    q: usize,
    layer: &PreparedLayer,
    raw: &PolygonSet,
    opts: &ClipOptions,
    keep_counters: bool,
) -> Check {
    let rect = queries.rect(q);
    let query = queries.polygon(q);
    let t = Instant::now();
    let res = try_clip_prepared(layer, &query, BoolOp::Intersection, 1, opts);
    let clip_ms = ms(t.elapsed());
    let mut c = Check {
        contours: 0,
        area: 0.0,
        degraded: Vec::new(),
        out_vertices: 0,
        n_edges: 0,
        collinear: 0,
        clip_ms,
        validate_ms: 0.0,
        counters: None,
        error: None,
    };
    let r = match res {
        Ok(r) => r,
        Err(e) => {
            c.error = Some(format!("window {q}: direct call failed: {e}"));
            return c;
        }
    };
    c.contours = r.output.len();
    c.area = eo_area(&r.output);
    c.degraded = r.degradations.iter().map(|d| d.to_string()).collect();
    c.out_vertices = r.output.vertex_count();
    c.n_edges = r.stats.n_edges;
    c.collinear = collinear_vertices(&r.output);
    let t = Instant::now();
    let report = validate(&r.output);
    c.validate_ms = ms(t.elapsed());
    let want = area_in_tile(&[raw], rect, |s| s[0]);
    let got = area_in_tile(&[&r.output], rect, |s| s[0]);
    if let Some(d) = r.degradations.iter().find(|d| d.is_lossy()) {
        c.error = Some(format!("window {q}: lossy degradation {d}"));
    } else if !report.is_canonical() {
        c.error = Some(format!(
            "window {q}: validate(): {} violations",
            report.violations.len()
        ));
    } else if (want - got).abs() > ORACLE_REL_TOL * rect.width() * rect.height() {
        c.error = Some(format!(
            "window {q}: integrated area {got} of the output, {want} of the layer"
        ));
    }
    if keep_counters {
        c.counters = Some(Algo2Result {
            output: PolygonSet::new(),
            ..r
        });
    }
    c
}

/// Judge one response against the direct call: `Ok((cache_hit, exec_ms))`.
fn judge(response: &str, check: &Check) -> Result<(bool, f64), String> {
    if let Some(e) = &check.error {
        return Err(e.clone());
    }
    let doc =
        Value::parse(response.trim()).map_err(|_| format!("unparsable reply {response:?}"))?;
    if doc.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("reply {}", response.trim()));
    }
    let flag = |k: &str| doc.get(k).and_then(Value::as_bool).unwrap_or(true);
    if flag("partial") || flag("retried") {
        return Err(format!("partial or retried reply {}", response.trim()));
    }
    let contours = doc.get("contours").and_then(Value::as_f64);
    let area = doc.get("area").and_then(Value::as_f64);
    let degraded: Vec<String> = doc
        .get("degraded")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    if contours != Some(check.contours as f64)
        || area != Some(check.area)
        || degraded != check.degraded
    {
        return Err(format!(
            "reply {} differs from the direct call ({} contours, area {}, {:?})",
            response.trim(),
            check.contours,
            check.area,
            check.degraded
        ));
    }
    let exec_ms = doc.get("exec_ms").and_then(Value::as_f64).unwrap_or(0.0);
    Ok((flag("cache_hit"), exec_ms))
}
