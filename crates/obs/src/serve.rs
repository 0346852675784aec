//! Zero-dependency live telemetry endpoint.
//!
//! [`MetricsServer::bind`] starts an [`HttpServer`](crate::HttpServer)
//! on the [`global_router`](crate::global_router), whose standard routes
//! answer:
//!
//! * `GET /metrics` — the global registry in Prometheus text exposition
//!   format (`text/plain; version=0.0.4`), counters/gauges as single
//!   samples and histograms as cumulative `_bucket`/`_sum`/`_count`
//!   series;
//! * `GET /metrics.json` — the same snapshot as JSON, with derived
//!   mean/p50/p95/p99 per histogram and, where recorded, per-bucket
//!   exemplar span ids;
//! * `GET /profile` — the collapsed stacks of every span seen while a
//!   server is bound, weighted by exact self microseconds (pipe into
//!   `flamegraph.pl`); `GET /profile.json` gives each stack path's count,
//!   total and self time — see [`profile`](crate::profile);
//! * `GET /cluster` — a live worker table (JSON) when a cluster
//!   coordinator holds a scoped `GET /cluster` registration on the
//!   global router; `{"workers":[]}` otherwise;
//! * `GET /healthz` — liveness probe.
//!
//! Other crates extend the same surface by registering routes on the
//! global router (the serving gateway adds `POST /v1/predict` and
//! `GET /v1/tenants`), so one bound port serves every endpoint.
//!
//! The server installs a [`NullSink`](crate::NullSink) so the registry
//! aggregates even when no other sink is active, attaches the live span
//! fold, and undoes both (and stops the listener thread) on drop.
//! Binding is opt-in via the `SKIPPER_OBS_ADDR` environment variable —
//! see [`serve_from_env`]:
//!
//! ```text
//! SKIPPER_OBS_ADDR=127.0.0.1:9184 cargo run --release --bin trace_training
//! curl http://127.0.0.1:9184/metrics
//! ```

use crate::metrics::{Histogram, MetricsSnapshot};
use crate::router::{global_router, HttpServer};
use crate::sink::NullSink;
use crate::SinkId;
use std::net::SocketAddr;

/// Environment variable holding the listen address (`host:port`).
pub const ADDR_ENV: &str = "SKIPPER_OBS_ADDR";

/// A running metrics endpoint; dropping it stops the listener thread,
/// detaches the span fold and removes the registry-enabling sink.
#[derive(Debug)]
pub struct MetricsServer {
    server: HttpServer,
    sink_id: Option<SinkId>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks a free port) and
    /// start serving the global router (standard observability routes plus
    /// whatever other crates have registered).
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        let server = HttpServer::bind(addr, global_router())?;
        let sink_id = Some(crate::add_sink(Box::new(NullSink::new())));
        crate::profile::attach();
        Ok(MetricsServer { server, sink_id })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if let Some(id) = self.sink_id.take() {
            crate::profile::detach();
            crate::remove_sink(id);
        }
    }
}

/// Start a [`MetricsServer`] if `SKIPPER_OBS_ADDR` is set.
///
/// Logs one warning and returns `None` if the bind fails (a busy port
/// should not take the training run down with it).
pub fn serve_from_env() -> Option<MetricsServer> {
    let addr = std::env::var(ADDR_ENV).ok()?;
    if addr.is_empty() {
        return None;
    }
    match MetricsServer::bind(&addr) {
        Ok(server) => {
            eprintln!(
                "skipper-obs: serving metrics on http://{}/metrics",
                server.addr()
            );
            Some(server)
        }
        Err(err) => {
            eprintln!("skipper-obs: cannot bind {ADDR_ENV}={addr}: {err}");
            None
        }
    }
}

/// Split a registry key of the form `name{key=value}` into the family name
/// and an optional rendered Prometheus label set.
fn split_labels(key: &str) -> (String, String) {
    let Some(open) = key.find('{') else {
        return (sanitize(key), String::new());
    };
    let name = sanitize(&key[..open]);
    let inner = key[open..].trim_start_matches('{').trim_end_matches('}');
    let mut labels = Vec::new();
    for pair in inner.split(',') {
        let mut it = pair.splitn(2, '=');
        let (Some(k), Some(v)) = (it.next(), it.next()) else {
            continue;
        };
        labels.push(format!(
            "{}=\"{}\"",
            sanitize(k.trim()),
            escape_label_value(v.trim())
        ));
    }
    if labels.is_empty() {
        (name, String::new())
    } else {
        (name, format!("{{{}}}", labels.join(",")))
    }
}

/// Escape a Prometheus label value: backslash first (escaping it last
/// would re-escape the escapes), then double-quote, then newline — the
/// three characters the text exposition format reserves.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Map a metric name onto the Prometheus charset `[a-zA-Z0-9_:]`.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Render a [`MetricsSnapshot`] in Prometheus text exposition format.
///
/// Keys sharing a family name (labelled variants sort adjacently in the
/// snapshot) get one `# TYPE` line.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for (key, value) in &snap.counters {
        let (name, labels) = split_labels(key);
        if name != last_family {
            out.push_str(&format!("# TYPE {name} counter\n"));
            last_family = name.clone();
        }
        out.push_str(&format!("{name}{labels} {}\n", fmt_value(*value)));
    }
    last_family.clear();
    for (key, value) in &snap.gauges {
        let (name, labels) = split_labels(key);
        if name != last_family {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            last_family = name.clone();
        }
        out.push_str(&format!("{name}{labels} {}\n", fmt_value(*value)));
    }
    last_family.clear();
    for (key, hist) in &snap.histograms {
        let (name, labels) = split_labels(key);
        if name != last_family {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            last_family = name.clone();
        }
        // Re-open the label set to append `le`.
        let base = labels.trim_end_matches('}');
        let mut cumulative = 0u64;
        for (bound, count) in Histogram::BOUNDS.iter().zip(hist.counts()) {
            cumulative += count;
            let le = if base.is_empty() {
                format!("{{le=\"{bound}\"}}")
            } else {
                format!("{base},le=\"{bound}\"}}")
            };
            out.push_str(&format!("{name}_bucket{le} {cumulative}\n"));
        }
        let inf = if base.is_empty() {
            "{le=\"+Inf\"}".to_string()
        } else {
            format!("{base},le=\"+Inf\"}}")
        };
        out.push_str(&format!("{name}_bucket{inf} {}\n", hist.count()));
        out.push_str(&format!("{name}_sum{labels} {}\n", fmt_value(hist.sum())));
        out.push_str(&format!("{name}_count{labels} {}\n", hist.count()));
    }
    out
}

fn push_histogram_json(out: &mut String, hist: &Histogram) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}",
        hist.count(),
        json_f64(hist.sum()),
        json_f64(hist.mean()),
        json_f64(if hist.count() == 0 { 0.0 } else { hist.min() }),
        json_f64(if hist.count() == 0 { 0.0 } else { hist.max() }),
        json_f64(hist.quantile(0.50)),
        json_f64(hist.quantile(0.95)),
        json_f64(hist.quantile(0.99)),
    ));
    // Exemplars: bucket upper bound → span id of the last sample that
    // landed there, so a bad bucket links straight to a trace span. Only
    // buckets that have one are rendered.
    if hist.exemplars().iter().any(|&e| e != 0) {
        out.push_str(",\"exemplars\":{");
        let mut first = true;
        for (i, &span_id) in hist.exemplars().iter().enumerate() {
            if span_id == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let le = Histogram::BOUNDS
                .get(i)
                .map_or("+Inf".to_string(), |b| format!("{b}"));
            crate::push_json_string(out, &le);
            out.push(':');
            out.push_str(&span_id.to_string());
        }
        out.push('}');
    }
    out.push('}');
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render a [`MetricsSnapshot`] as a JSON object with `counters`, `gauges`
/// and `histograms` (each histogram carrying derived percentiles).
pub fn snapshot_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (key, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::push_json_string(&mut out, key);
        out.push(':');
        out.push_str(&json_f64(*value));
    }
    out.push_str("},\"gauges\":{");
    for (i, (key, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::push_json_string(&mut out, key);
        out.push(':');
        out.push_str(&json_f64(*value));
    }
    out.push_str("},\"histograms\":{");
    for (i, (key, hist)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::push_json_string(&mut out, key);
        out.push(':');
        push_histogram_json(&mut out, hist);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Response;
    use crate::Registry;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn prometheus_text_renders_all_metric_kinds() {
        let r = Registry::new();
        r.counter_add("serve_test.skipped", 7.0);
        r.gauge_set("serve_test.queue_depth{worker=0}", 3.0);
        r.gauge_set("serve_test.queue_depth{worker=1}", 5.0);
        r.observe("serve_test.wall_us", 50.0);
        r.observe("serve_test.wall_us", 5000.0);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("# TYPE serve_test_skipped counter\n"));
        assert!(text.contains("serve_test_skipped 7\n"));
        // One TYPE line for the two labelled gauge series.
        assert_eq!(
            text.matches("# TYPE serve_test_queue_depth gauge").count(),
            1
        );
        assert!(text.contains("serve_test_queue_depth{worker=\"0\"} 3\n"));
        assert!(text.contains("serve_test_queue_depth{worker=\"1\"} 5\n"));
        // Histogram: cumulative buckets + +Inf + sum + count.
        assert!(text.contains("# TYPE serve_test_wall_us histogram\n"));
        assert!(text.contains("serve_test_wall_us_bucket{le=\"10\"} 0\n"));
        assert!(text.contains("serve_test_wall_us_bucket{le=\"100\"} 1\n"));
        assert!(text.contains("serve_test_wall_us_bucket{le=\"10000\"} 2\n"));
        assert!(text.contains("serve_test_wall_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("serve_test_wall_us_sum 5050\n"));
        assert!(text.contains("serve_test_wall_us_count 2\n"));
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        let r = Registry::new();
        // A worker id that tries every reserved character: backslash,
        // double-quote, newline. The backslash must come out doubled, not
        // fused with the quote escape.
        r.counter_add("serve_esc.frames{worker=a\\b\"c\nd}", 2.0);
        r.counter_add("serve_esc.frames{worker=7}", 4.0);
        let text = prometheus_text(&r.snapshot());
        assert!(
            text.contains("serve_esc_frames{worker=\"a\\\\b\\\"c\\nd\"} 2\n"),
            "got: {text}"
        );
        assert!(text.contains("serve_esc_frames{worker=\"7\"} 4\n"));
        // The two labelled series share one TYPE line.
        assert_eq!(text.matches("# TYPE serve_esc_frames counter").count(), 1);
    }

    #[test]
    fn federated_worker_labels_render_as_series() {
        let r = Registry::new();
        r.counter_add("serve_fed.heartbeats{worker=1}", 3.0);
        r.counter_add("serve_fed.heartbeats{worker=2}", 5.0);
        r.gauge_set("serve_fed.clock_offset_us{worker=2}", -12.0);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("serve_fed_heartbeats{worker=\"1\"} 3\n"));
        assert!(text.contains("serve_fed_heartbeats{worker=\"2\"} 5\n"));
        assert!(text.contains("serve_fed_clock_offset_us{worker=\"2\"} -12\n"));
    }

    #[test]
    fn cluster_endpoint_serves_scoped_registration() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();

        // Wrong method on the route 405s; unknown path 404s. (The default
        // `/cluster` body is asserted by the router's own tests — another
        // test's coordinator could be shadowing it here.)
        let post = http_raw(server.addr(), "POST /cluster HTTP/1.1\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "got: {post}");
        let missing = http_get(server.addr(), "/cluster/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "got: {missing}");

        // A coordinator's scoped registration shadows the default table
        // while its guard lives...
        {
            let _guard = crate::global_router().register("GET", "/cluster", |_| {
                Response::ok_json("{\"workers\":[{\"id\":7,\"state\":\"idle\"}]}")
            });
            let body = http_get(server.addr(), "/cluster");
            assert!(body.contains("\"id\":7"), "got: {body}");
            assert!(body.contains("\"state\":\"idle\""));
        }
        // ...and drop restores the previous registration.
        let after = http_get(server.addr(), "/cluster");
        assert!(!after.contains("\"id\":7"), "got: {after}");
        assert!(after.starts_with("HTTP/1.1 200 OK"), "got: {after}");
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let r = Registry::new();
        r.counter_add("a.b", 1.0);
        r.observe("h", 3.0);
        let json = snapshot_json(&r.snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a.b\":1"));
        assert!(json.contains("\"p50\":"));
        // No exemplars recorded → no exemplars key.
        assert!(!json.contains("exemplars"));
    }

    #[test]
    fn snapshot_json_renders_exemplars_by_bucket_bound() {
        let r = Registry::new();
        r.observe_with_exemplar("exj.wall_us", 50.0, 77);
        r.observe_with_exemplar("exj.wall_us", 5e8, 88);
        let json = snapshot_json(&r.snapshot());
        assert!(
            json.contains("\"exemplars\":{\"100\":77,\"+Inf\":88}"),
            "got: {json}"
        );
    }

    #[test]
    fn profile_endpoints_respond_and_parse() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        {
            let _outer = crate::span!("profile_e2e_outer");
            let _inner = crate::span!("profile_e2e_inner");
        }

        let folded = http_get(server.addr(), "/profile");
        assert!(folded.starts_with("HTTP/1.1 200 OK"), "got: {folded}");
        // Whatever else the shared profile holds, every body line must be
        // folded format: `frames µs`.
        let body = folded.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        for line in body.lines() {
            let (stack, us) = line.rsplit_once(' ').expect("folded line has a weight");
            assert!(!stack.is_empty(), "got: {line}");
            assert!(us.parse::<u64>().is_ok(), "got: {line}");
        }
        assert!(
            body.contains("\nprofile_e2e_outer;profile_e2e_inner ")
                || body.starts_with("profile_e2e_outer;profile_e2e_inner "),
            "got: {body}"
        );

        let json = http_get(server.addr(), "/profile.json");
        assert!(json.starts_with("HTTP/1.1 200 OK"), "got: {json}");
        let body = json.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        assert!(body.starts_with("{\"stacks\":{") && body.trim_end().ends_with('}'));
        assert!(
            body.contains("\"profile_e2e_outer;profile_e2e_inner\":{\"count\":1,"),
            "got: {body}"
        );
    }

    #[test]
    fn two_bound_servers_fold_each_span_once() {
        let first = MetricsServer::bind("127.0.0.1:0").unwrap();
        let second = MetricsServer::bind("127.0.0.1:0").unwrap();
        drop(crate::span!("profile_twice_bound"));
        drop(first);
        drop(crate::span!("profile_twice_bound"));
        let json = http_get(second.addr(), "/profile.json");
        assert!(
            json.contains("\"profile_twice_bound\":{\"count\":2,"),
            "got: {json}"
        );
    }

    fn http_raw(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn malformed_requests_get_4xx_and_serving_continues() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();

        // No parseable request line → 400.
        let garbage = http_raw(server.addr(), "\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400"), "got: {garbage}");

        // Truncated request line → 400.
        let short = http_raw(server.addr(), "GET\r\n\r\n");
        assert!(short.starts_with("HTTP/1.1 400"), "got: {short}");

        // Not HTTP at all → 400.
        let junk = http_raw(server.addr(), "SSH-2.0-OpenSSH_9.6\r\n\r\n");
        assert!(junk.starts_with("HTTP/1.1 400"), "got: {junk}");

        // Unsupported method on a GET-only route → 405.
        let post = http_raw(server.addr(), "POST /metrics HTTP/1.1\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "got: {post}");

        // The listener thread survived all of it and still answers.
        let health = http_get(server.addr(), "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "got: {health}");
    }

    #[test]
    fn server_serves_metrics_and_404s() {
        // Unique metric names: the global registry is shared with parallel
        // tests.
        crate::counter_add("serve_e2e.before_enable", 1.0); // dropped: disabled
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        assert!(crate::enabled(), "server's NullSink must enable tracing");
        crate::counter_add("serve_e2e.requests", 2.0);
        crate::gauge_set("serve_e2e.depth{worker=0}", 4.0);
        crate::observe("serve_e2e.wall_us", 123.0);

        let metrics = http_get(server.addr(), "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("serve_e2e_requests 2"));
        assert!(metrics.contains("serve_e2e_depth{worker=\"0\"} 4"));
        assert!(metrics.contains("serve_e2e_wall_us_count 1"));

        let json = http_get(server.addr(), "/metrics.json");
        assert!(json.starts_with("HTTP/1.1 200 OK"));
        assert!(json.contains("\"serve_e2e.requests\":2"));

        let health = http_get(server.addr(), "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"));

        let missing = http_get(server.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        let addr = server.addr();
        drop(server);
        // The listener is gone (a fresh bind to the same port succeeds or
        // the connect fails; either way the thread exited without panic).
        let _ = TcpStream::connect(addr);
    }
}
