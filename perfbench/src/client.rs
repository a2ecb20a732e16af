//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, `Content-Length` framing, as a crawler would use.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    /// An unsigned integer field of a flat JSON object.
    pub fn json_u64(&self, field: &str) -> Option<u64> {
        let text = std::str::from_utf8(&self.body).ok()?;
        let at = text.find(&format!("\"{field}\":"))? + field.len() + 3;
        let digits: String = text[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    }
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stalled server fails the run instead of hanging it.
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 << 10),
        })
    }

    pub fn ingest(&mut self, key: &str, xml: &str) -> io::Result<Reply> {
        let head = format!(
            "POST /ingest/{key} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            xml.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(xml.as_bytes())?;
        self.reply()
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        let head = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.reply()
    }

    fn reply(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
        let len = head.lines().find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        });
        let (Some(status), Some(len)) = (status, len) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response head: {head:?}"),
            ));
        };
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Reply { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}
