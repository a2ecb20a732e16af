//! End-to-end exercise of the full network stack: concurrent HTTP clients
//! ingest versioned corpora over loopback TCP, every stored version is
//! served back byte-identical, the metrics balance, and a restart from a
//! persisted snapshot serves the same documents.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use xydiff_suite::xydelta::XidDocument;
use xydiff_suite::xynet::{NetConfig, NetServer};
use xydiff_suite::xyserve::{ServeConfig, SnapshotPolicy};
use xydiff_suite::xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};

/// `docs` documents with `versions` snapshots each, as canonical XML.
fn corpus(docs: usize, versions: usize, nodes: usize, seed: u64) -> Vec<(String, Vec<String>)> {
    (0..docs)
        .map(|d| {
            let doc = generate(&DocGenConfig {
                kind: DocKind::Catalog,
                target_nodes: nodes,
                seed: seed + d as u64,
                id_attributes: false,
            });
            let mut cur = XidDocument::assign_initial(doc);
            let mut snaps = vec![cur.doc.to_xml()];
            for v in 1..versions {
                let step = seed ^ (d as u64 * 131 + v as u64);
                cur = simulate(&cur, &ChangeConfig::uniform(0.15, step)).new_version;
                snaps.push(cur.doc.to_xml());
            }
            (format!("doc-{d}"), snaps)
        })
        .collect()
}

/// One request with `Connection: close`; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(raw.as_bytes()).expect("write");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    let status: u16 = text.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// POST one snapshot, retrying briefly on backpressure `503`s.
fn post_snapshot(addr: SocketAddr, key: &str, xml: &str) -> (u16, String) {
    for _ in 0..200 {
        let (status, body) = request(addr, "POST", &format!("/ingest/{key}"), xml);
        if status != 503 {
            return (status, body);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("{key}: backpressure never cleared");
}

/// Every client drives its own keys over its own connections; afterwards
/// every version of every document must be served back byte-identical and
/// the exposition must balance with what the clients saw.
#[test]
fn concurrent_http_clients_ingest_and_read_back_byte_identical() {
    let corpus = Arc::new(corpus(6, 4, 300, 77));
    let server = NetServer::start(
        NetConfig::new(),
        ServeConfig::new()
            .with_workers(3)
            .unwrap()
            .with_queue_capacity(8)
            .unwrap()
            .with_shards(4)
            .unwrap(),
    )
    .expect("start");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..3)
        .map(|c| {
            let corpus = Arc::clone(&corpus);
            std::thread::spawn(move || {
                // Disjoint keys per client; versions of one key in order.
                for (key, versions) in corpus.iter().skip(c).step_by(3) {
                    for (v, xml) in versions.iter().enumerate() {
                        let (status, body) = post_snapshot(addr, key, xml);
                        assert_eq!(status, 200, "{key} v{v}: {body}");
                        assert!(body.contains(&format!("\"version\":{v}")), "{key}: {body}");
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    // Read every version back over HTTP: byte-identical to what was posted.
    for (key, versions) in corpus.iter() {
        for (v, xml) in versions.iter().enumerate() {
            let (status, body) = request(addr, "GET", &format!("/doc/{key}/{v}"), "");
            assert_eq!(status, 200, "{key} v{v}");
            assert_eq!(&body, xml, "{key} v{v} diverged over the wire");
        }
    }

    // The exposition agrees with what the clients observed.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("ingest_succeeded_total 24"), "{metrics}");
    assert!(metrics.contains("ingest_dead_lettered_total 0"), "{metrics}");
    assert!(metrics.contains("http_requests_total{route=\"ingest\"}"), "{metrics}");

    // Drain over HTTP and account for everything.
    let (status, _) = request(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 202);
    assert!(server.wait_for_shutdown_request(Duration::from_secs(5)));
    let report = server.shutdown();
    assert!(report.ingest.is_balanced(), "{report:?}");
    assert_eq!(report.ingest.succeeded, 24);
    assert_eq!(report.ingest.dead_lettered, 0);
}

/// The current value of a single-series metric family in an exposition.
fn metric_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| !l.starts_with('#') && l.starts_with(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{metrics}"))
}

/// A steal-heavy workload over HTTP: workers outnumber shards, and the hot
/// key's home worker is parked so its entire backlog is served by stealing
/// workers. Every version must read back byte-identical and the exposition
/// must show non-zero steal counters and the per-deque depth family.
#[test]
fn steal_heavy_workload_reads_back_byte_identical() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use xydiff_suite::xyserve::{home_worker, SchedEvent};

    let corpus = corpus(5, 3, 200, 55);
    let workers = 4;
    let home = home_worker("hot", workers);
    let hold = Arc::new(AtomicBool::new(true));
    let hold2 = Arc::clone(&hold);
    let server = NetServer::start(
        NetConfig::new(),
        ServeConfig::new()
            .with_workers(workers)
            .unwrap()
            .with_queue_capacity(32)
            .unwrap()
            // Deliberately fewer shards than workers.
            .with_shards(2)
            .unwrap()
            .with_steal_batch(2)
            .unwrap()
            .with_sched_hook(Arc::new(move |e| {
                if let SchedEvent::PopOwn { worker } = e {
                    if worker == home {
                        while hold2.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
            })),
    )
    .expect("start");
    let addr = server.local_addr();

    // Imbalanced on purpose: the hot key gets many versions, all homed to
    // the parked worker's deque — each 200 below proves a successful steal.
    let hot: Vec<String> = (0..8).map(|v| format!("<d><v>{v}</v></d>")).collect();
    for (v, xml) in hot.iter().enumerate() {
        let (status, body) = post_snapshot(addr, "hot", xml);
        assert_eq!(status, 200, "hot v{v}: {body}");
    }
    // A spread of other keys keeps the rest of the pool busy too.
    for (key, versions) in &corpus {
        for xml in versions {
            assert_eq!(post_snapshot(addr, key, xml).0, 200);
        }
    }
    hold.store(false, Ordering::SeqCst);

    for (v, xml) in hot.iter().enumerate() {
        let (status, body) = request(addr, "GET", &format!("/doc/hot/{v}"), "");
        assert_eq!(status, 200, "hot v{v}");
        assert_eq!(&body, xml, "hot v{v} diverged over the wire");
    }
    for (key, versions) in &corpus {
        for (v, xml) in versions.iter().enumerate() {
            let (status, body) = request(addr, "GET", &format!("/doc/{key}/{v}"), "");
            assert_eq!(status, 200, "{key} v{v}");
            assert_eq!(&body, xml, "{key} v{v} diverged over the wire");
        }
    }

    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metric_value(&metrics, "ingest_steals_total ") >= 1.0, "{metrics}");
    assert!(metric_value(&metrics, "ingest_stolen_jobs_total ") >= 1.0, "{metrics}");
    assert!(metrics.contains("ingest_deque_depth{deque=\"0\"}"), "{metrics}");
    assert!(metrics.contains(&format!("ingest_deque_depth{{deque=\"{}\"}}", workers - 1)));

    let report = server.shutdown();
    assert!(report.ingest.is_balanced(), "{report:?}");
    assert_eq!(report.ingest.succeeded as usize, 8 + 5 * 3);
    assert_eq!(report.ingest.dead_lettered, 0);
}

fn tmp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xynet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Kill a server that persisted a snapshot on drain, then boot a fresh one
/// from the same directory: it must serve the same versions and continue
/// the chains where the first instance stopped.
#[test]
fn restart_from_snapshot_serves_the_same_versions() {
    let dir = tmp_root("restart");
    let corpus = corpus(3, 3, 200, 91);
    let net = NetConfig::new;
    let serve = |shards: usize| {
        ServeConfig::new()
            .with_workers(2)
            .unwrap()
            .with_shards(shards)
            .unwrap()
            .with_snapshots(SnapshotPolicy::new(&dir).with_interval(Duration::from_secs(3600)))
    };

    let first = NetServer::start(net(), serve(2)).expect("first start");
    let addr = first.local_addr();
    for (key, versions) in &corpus {
        for xml in versions {
            assert_eq!(post_snapshot(addr, key, xml).0, 200);
        }
    }
    let report = first.shutdown(); // takes the final snapshot
    assert!(report.ingest.is_balanced());
    assert_eq!(report.ingest.succeeded, 9);

    // Second instance: different shard count, same snapshot directory.
    let second = NetServer::start(net(), serve(4)).expect("second start");
    let addr = second.local_addr();
    for (key, versions) in &corpus {
        for (v, xml) in versions.iter().enumerate() {
            let (status, body) = request(addr, "GET", &format!("/doc/{key}/{v}"), "");
            assert_eq!(status, 200, "{key} v{v} lost across restart");
            assert_eq!(&body, xml, "{key} v{v} diverged across restart");
        }
    }
    // Chains continue where the first instance stopped.
    let (status, body) = request(addr, "POST", "/ingest/doc-0", &corpus[0].1[0]);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"version\":3"), "restored chain must continue: {body}");

    let report = second.shutdown();
    assert!(report.ingest.is_balanced());
    let _ = std::fs::remove_dir_all(&dir);
}
