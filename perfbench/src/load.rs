//! One crawler connection: owns half of the keys (by parity, so per-key
//! order holds without coordination), sends their versions in order, and
//! checks every answer against the snapshots it sent.

use std::net::SocketAddr;

use crate::client::Conn;
use crate::corpus::Doc;
use crate::rng::Rng;
use crate::spec::ReadTarget;

/// Requests sent and how they ended.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    /// Non-200 answers (503 sheds included) and failed checks.
    pub failed: u64,
    /// Failed checks and answers the inputs cannot explain.
    pub incorrect: u64,
    pub errors: Vec<String>,
    pub acked: u64,
    pub acked_bytes: u64,
    /// Sum of the ack's `ops` over non-initial versions, and their count.
    pub ops: u64,
    pub ops_docs: u64,
}

impl Tally {
    pub fn wrong(&mut self, msg: String) {
        self.failed += 1;
        self.incorrect += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.incorrect += o.incorrect;
        self.errors.extend(
            o.errors
                .into_iter()
                .take(8usize.saturating_sub(self.errors.len())),
        );
        self.acked += o.acked;
        self.acked_bytes += o.acked_bytes;
        self.ops += o.ops;
        self.ops_docs += o.ops_docs;
    }
}

/// Byte-equal, or equal once both sides are canonicalized (attribute order
/// is a set in this model).
pub fn same_xml(got: &[u8], want: &str) -> bool {
    if got == want.as_bytes() {
        return true;
    }
    let canon = |s: &str| {
        xytree::Document::parse(s)
            .map(|d| d.to_canonical_xml())
            .ok()
    };
    match std::str::from_utf8(got) {
        Ok(got) => canon(got).is_some() && canon(got) == canon(want),
        Err(_) => false,
    }
}

pub struct Client<'a> {
    conn: Conn,
    docs: &'a [Doc],
    /// Indices into `docs` of the keys this connection owns.
    keys: Vec<usize>,
    /// Next version to send, per owned key (= versions acknowledged).
    next: Vec<usize>,
    turn: usize,
    last: usize,
    rng: Rng,
    pub tally: Tally,
}

impl<'a> Client<'a> {
    /// Connection `parity` of two, for keys that already hold `versions`
    /// versions.
    pub fn open(
        addr: SocketAddr,
        docs: &'a [Doc],
        parity: usize,
        versions: usize,
        seed: u64,
    ) -> Result<Client<'a>, String> {
        let keys: Vec<usize> = (parity..docs.len()).step_by(2).collect();
        Ok(Client {
            conn: Conn::open(addr).map_err(|e| format!("connecting to {addr}: {e}"))?,
            next: vec![versions; keys.len()],
            keys,
            docs,
            turn: 0,
            last: 0,
            rng: Rng::new(seed),
            tally: Tally::default(),
        })
    }

    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// `(doc index, next version)` of every owned key.
    pub fn versions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.keys.iter().copied().zip(self.next.iter().copied())
    }

    /// Ingest the next version of the next key in round-robin order.
    /// Returns whether it was acknowledged; `Err` when the connection broke.
    pub fn ingest_next(&mut self) -> Result<bool, String> {
        let slot = self.turn % self.keys.len();
        self.turn += 1;
        self.ingest(slot)
    }

    pub fn ingest(&mut self, slot: usize) -> Result<bool, String> {
        let doc = &self.docs[self.keys[slot]];
        let v = self.next[slot];
        let xml = doc.snapshot(v);
        self.tally.attempted += 1;
        let reply = self
            .conn
            .ingest(&doc.key, xml)
            .map_err(|e| format!("{}: ingest v{v}: {e}", doc.key))?;
        match (reply.status, reply.json_u64("version")) {
            (200, Some(got)) if got == v as u64 => {
                self.next[slot] += 1;
                self.last = slot;
                self.tally.acked += 1;
                self.tally.acked_bytes += xml.len() as u64;
                if v > 0 {
                    self.tally.ops += reply.json_u64("ops").unwrap_or(0);
                    self.tally.ops_docs += 1;
                }
                Ok(true)
            }
            (503, _) => {
                self.tally.failed += 1;
                Ok(false)
            }
            (status, got) => {
                let body = String::from_utf8_lossy(&reply.body).into_owned();
                self.tally.wrong(format!(
                    "{}: ingest v{v}: status {status}, version {got:?}: {body}",
                    doc.key
                ));
                Ok(false)
            }
        }
    }

    /// The `(slot, version)` the next read asks for.
    pub fn pick_read(&mut self, target: ReadTarget) -> (usize, usize) {
        match target {
            ReadTarget::Latest => (self.last, self.next[self.last].saturating_sub(1)),
            ReadTarget::UniformPast => {
                let slot = self.rng.below(self.keys.len());
                (slot, self.rng.below(self.next[slot].max(1)))
            }
        }
    }

    /// `GET /doc/{key}/{v}` (or `/doc/{key}` when `v` is `None`, which must
    /// answer the latest version), checked against the snapshot sent.
    pub fn read(&mut self, slot: usize, v: Option<usize>) -> Result<bool, String> {
        let doc = &self.docs[self.keys[slot]];
        let path = match v {
            Some(v) => format!("/doc/{}/{v}", doc.key),
            None => format!("/doc/{}", doc.key),
        };
        let want = doc.snapshot(v.unwrap_or(self.next[slot].saturating_sub(1)));
        self.tally.attempted += 1;
        let reply = self
            .conn
            .get(&path)
            .map_err(|e| format!("GET {path}: {e}"))?;
        match reply.status {
            200 if same_xml(&reply.body, want) => Ok(true),
            200 => {
                self.tally
                    .wrong(format!("GET {path}: body differs from the snapshot sent"));
                Ok(false)
            }
            503 => {
                self.tally.failed += 1;
                Ok(false)
            }
            status => {
                self.tally.wrong(format!("GET {path}: status {status}"));
                Ok(false)
            }
        }
    }

    /// Check the latest version of every owned key.
    pub fn verify_latest(&mut self) -> Result<(), String> {
        for slot in 0..self.keys.len() {
            self.read(slot, None)?;
        }
        Ok(())
    }
}
