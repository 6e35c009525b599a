//! The socket front-end: line-delimited JSON over TCP.
//!
//! One request per line, one reply per line. Requests name an `op` —
//! `vertex`, `estimate`, `topk`, `refine`, `tenants` — plus op-specific
//! fields; replies are `{"ok":true,...}` or
//! `{"ok":false,"code":...,"error":...}`. The wire layer is a thin shell
//! over [`Client`]: every connection gets its own client (and telemetry
//! writer), parsing uses the workspace's dependency-free JSON module, and
//! errors map 1:1 onto [`QueryError`] so in-process and socket callers see
//! the same semantics.

use crate::server::{Client, QueryError, Server};
use crate::sync::{AtomicBool, Ordering};
use crate::tenant::QueryScratch;
use kadabra_telemetry::json::{escape, num, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running socket front-end. Dropping it (or calling
/// [`SocketServer::shutdown`]) stops the accept loop; connection handlers
/// exit when their peer closes.
pub struct SocketServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl SocketServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            // Shutdown must complete even if the accept loop panicked.
            let _ = h.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves the line-delimited
    /// JSON protocol until the returned handle is shut down.
    pub fn listen(&self, addr: &str) -> std::io::Result<SocketServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let inner = Arc::clone(self.inner());
        let accept = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let client = Client::from_inner(&inner);
                        std::thread::spawn(move || handle_connection(stream, client));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(SocketServer { addr: bound, stop, accept: Some(accept) })
    }
}

/// Serves one connection. Each reply line leaves in one write, with Nagle's
/// algorithm off where the socket allows it: a reply split over two small
/// segments would have its second held back until the client's delayed ACK,
/// about 40 ms a round trip.
fn handle_connection(stream: TcpStream, client: Client) {
    // Best effort: the single write already keeps a short reply in one
    // segment, so a socket that refuses the option is still served.
    let _ = stream.set_nodelay(true);
    let Ok(mut out) = stream.try_clone() else { return };
    let reader = BufReader::new(stream);
    let mut scratch: Option<(String, QueryScratch)> = None;
    let mut line_out = Vec::new();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let reply = dispatch(&client, &line, &mut scratch).unwrap_or_else(|e| error_reply(&e));
        line_out.clear();
        line_out.extend_from_slice(reply.as_bytes());
        line_out.push(b'\n');
        if out.write_all(&line_out).is_err() {
            break;
        }
    }
}

fn error_reply(e: &QueryError) -> String {
    let code = match e {
        QueryError::UnknownTenant => "unknown_tenant",
        QueryError::Overloaded => "overloaded",
        QueryError::NotReady { .. } => "not_ready",
        QueryError::UnsatisfiableEps { .. } => "unsatisfiable_eps",
        QueryError::BadVertex => "bad_vertex",
        QueryError::NotDynamic => "not_dynamic",
        QueryError::NotResizable => "not_resizable",
        QueryError::BadUpdate(_) => "bad_update",
        QueryError::BadRequest(_) => "bad_request",
    };
    format!(
        "{{\"ok\":false,\"code\":\"{}\",\"error\":\"{}\"}}",
        escape(code),
        escape(&e.to_string())
    )
}

fn bad(why: &str) -> QueryError {
    QueryError::BadRequest(why.to_string())
}

/// Parses an optional `[[u,v],...]` field (absent means empty).
fn edge_list(
    req: &kadabra_telemetry::json::Json,
    key: &str,
) -> Result<Vec<(u32, u32)>, QueryError> {
    let mut out = Vec::new();
    let Some(arr) = req.get(key).and_then(Json::as_array) else { return Ok(out) };
    for e in arr {
        let pair = e.as_array().ok_or_else(|| bad("edges must be [u,v] pairs"))?;
        if pair.len() != 2 {
            return Err(bad("edges must be [u,v] pairs"));
        }
        let mut ends = [0u32; 2];
        for (slot, j) in ends.iter_mut().zip(pair) {
            let x = j.as_f64().ok_or_else(|| bad("edge endpoints must be numbers"))?;
            if x < 0.0 || x.fract() != 0.0 {
                return Err(bad("edge endpoints must be non-negative integers"));
            }
            *slot = x as u32;
        }
        out.push((ends[0], ends[1]));
    }
    Ok(out)
}

/// Parses one request line and runs it against the client, reusing one
/// scratch per connection (re-sized when the tenant changes).
fn dispatch(
    client: &Client,
    line: &str,
    scratch: &mut Option<(String, QueryScratch)>,
) -> Result<String, QueryError> {
    let req = Json::parse(line).map_err(|e| bad(&format!("invalid json: {e}")))?;
    let op = req.get("op").and_then(Json::as_str).ok_or_else(|| bad("missing op"))?;
    if op == "tenants" {
        let names: Vec<String> =
            client.tenant_names().iter().map(|n| format!("\"{}\"", escape(n))).collect();
        return Ok(format!("{{\"ok\":true,\"tenants\":[{}]}}", names.join(",")));
    }
    let tenant = req.get("tenant").and_then(Json::as_str).ok_or_else(|| bad("missing tenant"))?;
    #[expect(clippy::unwrap_used, reason = "the fallback arm assigns Some just before it unwraps")]
    let sc = match scratch {
        Some((name, sc)) if name == tenant => sc,
        _ => {
            let fresh = client.scratch(tenant)?;
            *scratch = Some((tenant.to_string(), fresh));
            &mut scratch.as_mut().unwrap().1
        }
    };
    match op {
        "vertex" => {
            let v = req.get("v").and_then(Json::as_f64).ok_or_else(|| bad("missing v"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(bad("v must be a non-negative integer"));
            }
            let est = client.vertex(tenant, v as u32)?;
            Ok(format!(
                "{{\"ok\":true,\"vertex\":{},\"estimate\":{},\"lower\":{},\"upper\":{},\"eps\":{},\"tau\":{},\"round\":{}}}",
                est.vertex,
                num(est.estimate),
                num(est.lower),
                num(est.upper),
                num(est.eps),
                est.tau,
                est.round
            ))
        }
        "estimate" => {
            let eps = req.get("eps").and_then(Json::as_f64).ok_or_else(|| bad("missing eps"))?;
            let mut scores = Vec::new();
            let meta = client.estimate_into(tenant, eps, sc, &mut scores)?;
            let body: Vec<String> = scores.iter().map(|&s| num(s)).collect();
            Ok(format!(
                "{{\"ok\":true,\"eps\":{},\"tau\":{},\"round\":{},\"scores\":[{}]}}",
                num(meta.eps),
                meta.tau,
                meta.round,
                body.join(",")
            ))
        }
        "topk" => {
            let k = req.get("k").and_then(Json::as_f64).ok_or_else(|| bad("missing k"))?;
            if k < 1.0 || k.fract() != 0.0 {
                return Err(bad("k must be a positive integer"));
            }
            let mut top = Vec::new();
            let meta = client.topk_into(tenant, k as usize, sc, &mut top)?;
            let body: Vec<String> = top
                .iter()
                .map(|&(v, s)| format!("{{\"vertex\":{},\"score\":{}}}", v, num(s)))
                .collect();
            Ok(format!(
                "{{\"ok\":true,\"eps\":{},\"tau\":{},\"round\":{},\"top\":[{}]}}",
                num(meta.eps),
                meta.tau,
                meta.round,
                body.join(",")
            ))
        }
        "update" => {
            let inserts = edge_list(&req, "inserts")?;
            let deletes = edge_list(&req, "deletes")?;
            if inserts.is_empty() && deletes.is_empty() {
                return Err(bad("update needs at least one insert or delete"));
            }
            let rounds = req.get("refine_rounds").and_then(Json::as_f64).unwrap_or(64.0);
            if rounds < 0.0 || rounds.fract() != 0.0 {
                return Err(bad("refine_rounds must be a non-negative integer"));
            }
            let out = client.update(tenant, &inserts, &deletes, rounds as u32)?;
            Ok(format!(
                "{{\"ok\":true,\"seq\":{},\"invalidated\":{},\"retained\":{},\"tau\":{},\"achieved\":{},\"generation\":{},\"live\":{},\"compacted\":{}}}",
                out.seq,
                out.invalidated,
                out.retained,
                out.tau,
                num(out.achieved),
                out.generation,
                out.live,
                out.compacted
            ))
        }
        "refine" => {
            let eps = req.get("eps").and_then(Json::as_f64).ok_or_else(|| bad("missing eps"))?;
            let rounds = req.get("max_rounds").and_then(Json::as_f64).unwrap_or(64.0);
            if rounds < 1.0 || rounds.fract() != 0.0 {
                return Err(bad("max_rounds must be a positive integer"));
            }
            let out = client.refine(tenant, eps, rounds as u32)?;
            Ok(format!(
                "{{\"ok\":true,\"achieved\":{},\"tau\":{},\"rounds_run\":{},\"live\":{}}}",
                num(out.achieved),
                out.tau,
                out.rounds_run,
                out.live
            ))
        }
        other => Err(bad(&format!("unknown op {other:?}"))),
    }
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use crate::server::{Server, ServerConfig};
    use crate::tenant::TenantConfig;
    use kadabra_graph::generators::{grid, GridConfig};
    use kadabra_telemetry::json::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> Json {
        stream.write_all(format!("{req}\n").as_bytes()).expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        Json::parse(&line).expect("reply json")
    }

    /// A reply leaves in one segment with Nagle off: the median of 50
    /// sequential `vertex` round trips over loopback stays under 10 ms, where
    /// one reply held back for the client's delayed ACK costs 40 ms or more.
    #[test]
    fn round_trips_do_not_wait_for_a_delayed_ack() {
        let s = Server::new(ServerConfig { deterministic: true, background_refine: false });
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        s.add_tenant("grid", &g, &TenantConfig::new(23));
        let mut sock = s.listen("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(sock.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let refine = r#"{"op":"refine","tenant":"grid","eps":0.25,"max_rounds":64}"#;
        assert!(matches!(ask(&mut stream, &mut reader, refine).get("ok"), Some(Json::Bool(true))));

        let mut rtts: Vec<Duration> = (0..50)
            .map(|i| {
                let req = format!(r#"{{"op":"vertex","tenant":"grid","v":{}}}"#, i % 25);
                let t0 = Instant::now();
                let r = ask(&mut stream, &mut reader, &req);
                let rtt = t0.elapsed();
                assert!(r.get("tau").and_then(Json::as_f64).expect("tau") > 0.0);
                rtt
            })
            .collect();
        rtts.sort_unstable();
        assert!(rtts[25] < Duration::from_millis(10), "median round trip {:?}", rtts[25]);
        sock.shutdown();
    }

    #[test]
    fn socket_round_trip_all_ops() {
        let s = Server::new(ServerConfig { deterministic: true, background_refine: false });
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        s.add_tenant("grid", &g, &TenantConfig::new(23));
        let mut sock = s.listen("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(sock.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        let r = ask(&mut stream, &mut reader, r#"{"op":"tenants"}"#);
        let names = r.get("tenants").and_then(Json::as_array).expect("tenants");
        assert_eq!(names.len(), 1);

        let r = ask(
            &mut stream,
            &mut reader,
            r#"{"op":"refine","tenant":"grid","eps":0.25,"max_rounds":64}"#,
        );
        assert!(matches!(r.get("ok"), Some(Json::Bool(true))), "refine ok: {r:?}");

        let r = ask(&mut stream, &mut reader, r#"{"op":"vertex","tenant":"grid","v":12}"#);
        assert!(r.get("tau").and_then(Json::as_f64).expect("tau") > 0.0);

        let r = ask(&mut stream, &mut reader, r#"{"op":"topk","tenant":"grid","k":5}"#);
        assert_eq!(r.get("top").and_then(Json::as_array).expect("top").len(), 5);

        let r = ask(&mut stream, &mut reader, r#"{"op":"estimate","tenant":"grid","eps":0.3}"#);
        assert_eq!(r.get("scores").and_then(Json::as_array).expect("scores").len(), g.num_nodes());

        let r = ask(&mut stream, &mut reader, r#"{"op":"vertex","tenant":"nope","v":0}"#);
        assert_eq!(r.get("code").and_then(Json::as_str), Some("unknown_tenant"));

        let r = ask(&mut stream, &mut reader, r#"{"op":"vertex","tenant":"grid"}"#);
        assert_eq!(r.get("code").and_then(Json::as_str), Some("bad_request"));

        // A static tenant rejects updates with a typed code.
        let r =
            ask(&mut stream, &mut reader, r#"{"op":"update","tenant":"grid","inserts":[[0,24]]}"#);
        assert_eq!(r.get("code").and_then(Json::as_str), Some("not_dynamic"));

        sock.shutdown();
    }

    #[test]
    fn socket_update_round_trip_on_a_dynamic_tenant() {
        let s = crate::testkit::boot_dynamic(31);
        let mut sock = s.listen("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(sock.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        let r = ask(
            &mut stream,
            &mut reader,
            r#"{"op":"refine","tenant":"gnm","eps":0.3,"max_rounds":64}"#,
        );
        assert!(matches!(r.get("ok"), Some(Json::Bool(true))), "refine ok: {r:?}");
        let tau = r.get("tau").and_then(Json::as_f64).expect("tau");

        let r = ask(
            &mut stream,
            &mut reader,
            r#"{"op":"update","tenant":"gnm","inserts":[[0,7]],"deletes":[],"refine_rounds":4}"#,
        );
        let reply = if matches!(r.get("ok"), Some(Json::Bool(true))) {
            r
        } else {
            // Edge {0,7} may already exist in the seeded corpus — delete it
            // instead; exactly one of the two must apply.
            assert_eq!(r.get("code").and_then(Json::as_str), Some("bad_update"));
            ask(
                &mut stream,
                &mut reader,
                r#"{"op":"update","tenant":"gnm","deletes":[[0,7]],"refine_rounds":4}"#,
            )
        };
        assert!(matches!(reply.get("ok"), Some(Json::Bool(true))), "update ok: {reply:?}");
        assert_eq!(reply.get("seq").and_then(Json::as_f64), Some(1.0));
        let inv = reply.get("invalidated").and_then(Json::as_f64).expect("invalidated");
        let ret = reply.get("retained").and_then(Json::as_f64).expect("retained");
        assert_eq!(inv + ret, tau, "classification must cover every retained sample");
        assert!(reply.get("generation").and_then(Json::as_f64).expect("generation") >= 1.0);

        // Queries still answer on the new generation.
        let r = ask(&mut stream, &mut reader, r#"{"op":"vertex","tenant":"gnm","v":3}"#);
        assert!(r.get("tau").and_then(Json::as_f64).expect("tau") > 0.0);

        let r = ask(&mut stream, &mut reader, r#"{"op":"update","tenant":"gnm"}"#);
        assert_eq!(r.get("code").and_then(Json::as_str), Some("bad_request"));

        sock.shutdown();
    }
}
