//! A keep-alive HTTP/1.1 client for the loopback server, and the handle
//! of the served process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

/// A response: status and body.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One client connection, reopened after the server closes it (it does
/// so after `keep_alive_requests` responses).
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(1 << 16),
        }
    }

    /// Send `request` and read the whole response.
    pub fn exchange(&mut self, request: &[u8]) -> Result<Reply, String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            self.stream = Some(s);
        }
        let result = self.round_trip(request);
        if matches!(result, Err(_) | Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(reply, _)| reply)
    }

    fn round_trip(&mut self, request: &[u8]) -> Result<(Reply, bool), String> {
        let stream = self.stream.as_mut().expect("connected above");
        stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p;
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before a response".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        let mut length = None;
        let mut close = false;
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                return Err("malformed header".to_string());
            };
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                length = v.parse::<usize>().ok();
            } else if k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close") {
                close = true;
            }
        }
        let length = length.ok_or("response without content-length")?;
        let start = head_end + 4;
        while self.buf.len() < start + length {
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[start..start + length].to_vec();
        Ok((Reply { status, body }, close))
    }
}

/// One `GET` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    let req = format!("GET {path} HTTP/1.1\r\nhost: e2ebench\r\nconnection: close\r\n\r\n");
    Conn::new(addr).exchange(req.as_bytes())
}

/// What the served process reported once it was listening.
#[derive(Debug, Clone, Copy)]
pub struct Ready {
    pub addr: SocketAddr,
    pub base_triples: usize,
    pub base_hash: u64,
    /// Seconds the served process spent hashing its restarted base (an
    /// integrity check, not part of a restart; subtracted from setup).
    pub hash_secs: f64,
    pub served_triples: usize,
}

/// The served process: `e2ebench serve` restarted from a store copy.
/// Dropping the handle kills and reaps the process.
pub struct Served {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    pub ready: Ready,
}

impl Served {
    /// Start the served process on `store` and wait until it listens.
    pub fn spawn(store: &Path) -> Result<Served, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            // One malloc arena: peak RSS then measures live memory, not
            // how many per-thread arenas the workers happened to touch.
            .env("MALLOC_ARENA_MAX", "1")
            .arg("serve")
            .arg("--store")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut served = Served {
            child: Some(child),
            stdin,
            ready: Ready {
                addr: SocketAddr::from(([127, 0, 0, 1], 0)),
                base_triples: 0,
                base_hash: 0,
                hash_secs: 0.0,
                served_triples: 0,
            },
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("serve: {e}"))?;
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f.as_slice() {
            ["listening", addr, base, hash, secs, served] => Some(Ready {
                addr: addr.parse().map_err(|e| format!("serve addr: {e}"))?,
                base_triples: base.parse().map_err(|e| format!("{e}"))?,
                base_hash: u64::from_str_radix(hash, 16).map_err(|e| format!("{e}"))?,
                hash_secs: secs.parse().map_err(|e| format!("{e}"))?,
                served_triples: served.parse().map_err(|e| format!("{e}"))?,
            }),
            _ => None,
        };
        served.ready = parsed.ok_or_else(|| format!("serve did not start: {line:?}"))?;
        Ok(served)
    }

    /// The served process's id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running until stopped").id()
    }

    /// Peak resident set of the served process so far, in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Drain the server and wait for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"stop\n");
        }
        let status = self
            .child
            .take()
            .expect("stop runs once")
            .wait()
            .map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("served process exited with {status}"))
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
