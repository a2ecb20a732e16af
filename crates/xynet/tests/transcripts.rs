//! Golden-transcript protocol test: the reactor's raw responses to a fixed
//! socket-level corpus must match the transcripts checked in under
//! `tests/transcripts/` **byte for byte**.
//!
//! The transcripts were recorded from the blocking thread-per-connection
//! front that preceded the reactor, replaying the corpus it was originally
//! tested against (well-formed roundtrips, every typed error, pipelined
//! keep-alive). Each script runs on a fresh connection against one server
//! per corpus, so sequence numbers, versions and diff outcomes are fixed.
//! `/metrics` bodies hold live histograms, so that route is pinned by its
//! family set instead: the `# TYPE` lines in `metrics_families.txt` are a
//! contract with every scraper, and renaming or dropping a family fails
//! here.
//!
//! A deliberate wire-format change re-records the files with
//! `UPDATE_GOLDENS=1 cargo test -p xynet --test transcripts`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use xynet::{NetConfig, NetServer};
use xyserve::ServeConfig;

/// One script: named raw writes on a single connection, sent in order, then
/// read to EOF. The transcript is `tests/transcripts/{name}.http`.
struct Script {
    name: &'static str,
    writes: &'static [&'static str],
}

/// Scripts run with the default limits. Bodies and keys are fixed so
/// sequence numbers, versions, and diff outcomes match run-to-run.
const CORPUS: &[Script] = &[
    Script {
        name: "healthz",
        writes: &["GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"],
    },
    Script {
        name: "malformed-request-line",
        writes: &["NONSENSE\r\n\r\n"],
    },
    Script {
        name: "missing-content-length",
        writes: &["POST /ingest/k HTTP/1.1\r\nHost: t\r\n\r\n"],
    },
    Script {
        name: "unsupported-version",
        writes: &["GET /healthz HTTP/2.0\r\n\r\n"],
    },
    Script {
        name: "unknown-route",
        writes: &["GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"],
    },
    Script {
        name: "method-not-allowed",
        writes: &[
            "GET /ingest/k HTTP/1.1\r\nHost: t\r\n\r\n",
            "DELETE /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        ],
    },
    Script {
        name: "empty-ingest-key",
        writes: &[
            "POST /ingest/ HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\nConnection: close\r\n\r\n<d/>",
        ],
    },
    Script {
        // The first body is one byte shorter than its Content-Length, so
        // the length swallows the next request's first byte: a dead letter,
        // then a desynchronized `OST` request answered 405.
        name: "ingest-then-fetch-pipelined",
        writes: &[
            "POST /ingest/diff-doc HTTP/1.1\r\nHost: t\r\nContent-Length: 26\r\n\r\n<c><p>alpha</p></c>\n\n\n\n\n\n",
            "POST /ingest/diff-doc HTTP/1.1\r\nHost: t\r\nContent-Length: 32\r\n\r\n<c><p>alpha</p><p>beta</p></c>\n\n",
            "GET /doc/diff-doc HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /doc/diff-doc/0 HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /doc/diff-doc/9 HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /doc/ghost HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        ],
    },
    Script {
        name: "ingest-then-fetch",
        writes: &[
            "POST /ingest/fetch-doc HTTP/1.1\r\nHost: t\r\nContent-Length: 19\r\n\r\n<c><p>alpha</p></c>",
            "POST /ingest/fetch-doc HTTP/1.1\r\nHost: t\r\nContent-Length: 30\r\n\r\n<c><p>alpha</p><p>beta</p></c>",
            "GET /doc/fetch-doc HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /doc/fetch-doc/0 HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /doc/fetch-doc/9 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        ],
    },
    Script {
        name: "dead-letter-parse-error",
        writes: &[
            "POST /ingest/broken HTTP/1.1\r\nHost: t\r\nContent-Length: 7\r\nConnection: close\r\n\r\n<broken",
        ],
    },
    Script {
        name: "expect-100-continue",
        writes: &[
            "POST /ingest/cont HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: 4\r\nConnection: close\r\n\r\n",
            "<d/>",
        ],
    },
];

/// Scripts whose config needs tight limits (64-byte bodies, 512-byte heads).
const LIMIT_CORPUS: &[Script] = &[
    Script {
        name: "body-too-large",
        writes: &[
            "POST /ingest/fat HTTP/1.1\r\nHost: t\r\nContent-Length: 65\r\n\r\n",
        ],
    },
    Script {
        name: "head-too-large",
        // 600 'c's, beyond the 512-byte head limit.
        writes: &[
            "GET /healthz HTTP/1.1\r\nCookie: cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc: v\r\n\r\n",
        ],
    },
];

/// Run one script against `addr` and collect the entire response stream.
fn run_script(addr: SocketAddr, script: &Script) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    for (i, chunk) in script.writes.iter().enumerate() {
        if stream.write_all(chunk.as_bytes()).is_err() {
            // The server may already have rejected and closed (e.g. 413 on
            // the declared length): stop writing, what's readable decides.
            break;
        }
        // Force each write onto the wire as its own packet-ish unit.
        if i + 1 < script.writes.len() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out); // reset after 413/431 is fine
    out
}

fn tight_config() -> NetConfig {
    NetConfig::new().with_max_body_bytes(64).with_max_head_bytes(512)
}

fn serve_config() -> ServeConfig {
    ServeConfig::new().with_workers(2).expect("valid worker count")
}

fn transcript_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/transcripts")
}

/// Compare `actual` with the checked-in file `name`, or rewrite the file
/// when `UPDATE_GOLDENS` is set.
fn check_golden(name: &str, actual: &[u8]) {
    let path = transcript_dir().join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write transcript");
        return;
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing transcript {name} ({e}); run with UPDATE_GOLDENS=1"));
    assert_eq!(
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(actual),
        "response to {name} diverged from the recorded transcript",
    );
}

/// Run `corpus` against one reactor and check every script's transcript,
/// then the pipeline's accounting: `(succeeded, dead_lettered)`.
fn run_corpus(corpus: &[Script], net: NetConfig, outcomes: (u64, u64)) {
    let server = NetServer::start(net, serve_config()).expect("reactor start");
    for script in corpus {
        check_golden(&format!("{}.http", script.name), &run_script(server.local_addr(), script));
    }
    let report = server.shutdown();
    assert!(report.ingest.is_balanced(), "{report:?}");
    assert_eq!((report.ingest.succeeded, report.ingest.dead_lettered), outcomes);
}

#[test]
fn corpus_matches_the_recorded_transcripts() {
    // Three snapshots stored (two versions of fetch-doc, the 100-continue
    // ingest); two dead letters (the malformed body and the pipelined POST
    // whose length overruns it).
    run_corpus(CORPUS, NetConfig::new(), (3, 2));
}

#[test]
fn limit_corpus_matches_the_recorded_transcripts() {
    run_corpus(LIMIT_CORPUS, tight_config(), (0, 0));
}

/// The `/metrics` families the front must render, in order.
#[test]
fn metrics_families_match_the_contract() {
    let server = NetServer::start(NetConfig::new(), serve_config()).expect("reactor start");
    let script = Script {
        name: "metrics",
        writes: &["GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"],
    };
    let text = String::from_utf8(run_script(server.local_addr(), &script)).expect("utf8");
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("Content-Type: text/plain; version=0.0.4"), "{text}");
    let families: String =
        text.lines().filter(|l| l.starts_with("# TYPE ")).map(|l| format!("{l}\n")).collect();
    check_golden("metrics_families.txt", families.as_bytes());
    drop(server.shutdown());
}
