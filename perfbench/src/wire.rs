//! The wire side: spawning `icdbd`, one closed-loop connection to it, and
//! `metrics` scrapes.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a fresh `icdbd` may take to report its listening address.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `icdbd` with one epoll worker and a fresh data directory,
/// logging to a file (sweeps over 100 ms log a slow-query line each).
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    dir: PathBuf,
}

impl Server {
    /// Spawns `icdbd` under `dir` (created, and removed again by
    /// dropping the server) and waits until it listens.
    pub fn spawn(icdbd: &Path, dir: &Path) -> Result<Server, String> {
        let data = dir.join("data");
        std::fs::create_dir_all(&data).map_err(|e| format!("{}: {e}", data.display()))?;
        let log_path = dir.join("icdbd.log");
        let log = File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
        let child = Command::new(icdbd)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg("1")
            .arg("--data-dir")
            .arg(&data)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", icdbd.display()))?;
        // Lets run.py stop the server should this process be killed.
        let _ = std::fs::write(dir.join("icdbd.pid"), child.id().to_string());
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            if let Some(addr) = listening_addr(&text) {
                server.addr = addr;
                return Ok(server);
            }
            let exited = server
                .child
                .as_mut()
                .map(|c| matches!(c.try_wait(), Ok(Some(_))))
                .unwrap_or(true);
            if exited || started.elapsed() > BOOT_TIMEOUT {
                return Err(format!("icdbd did not start listening:\n{text}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The process's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

/// Dropping a server kills it, waits for it and removes its directory.
impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The `addr=` field of the server's "listening" log line.
fn listening_addr(log: &str) -> Option<String> {
    let line = log.lines().find(|l| l.contains("listening"))?;
    let field = line.split_whitespace().find(|w| w.starts_with("addr="))?;
    Some(
        field
            .trim_start_matches("addr=")
            .trim_matches('"')
            .to_string(),
    )
}

/// One reply: whether it was `OK`, and its full text (head and lines).
pub struct Reply {
    pub ok: bool,
    pub text: String,
}

impl Reply {
    /// The reply's output lines, without the head.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.text.lines().skip(1)
    }
}

/// One session: a synthesis tool that waits for each reply before it
/// sends its next request.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        let greeting = conn.read_line()?;
        if !greeting.starts_with("OK") {
            return Err(format!("unexpected greeting `{greeting}`"));
        }
        Ok(conn)
    }

    /// Sends one CQL line and reads its whole reply.
    pub fn call(&mut self, line: &str) -> Result<Reply, String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let head = self.read_line()?;
        let Some(rest) = head.strip_prefix("OK ") else {
            return Ok(Reply {
                ok: false,
                text: head,
            });
        };
        let n: usize = rest
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad reply head `{head}`"))?;
        let mut text = head;
        for _ in 0..n {
            text.push('\n');
            text.push_str(&self.read_line()?);
        }
        Ok(Reply { ok: true, text })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                let trimmed = line.trim_end_matches(['\n', '\r']).len();
                line.truncate(trimmed);
                Ok(line)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Decodes a `?s[]` reply line (`S item␟item␟`).
pub fn decode_list(line: &str) -> Result<Vec<String>, String> {
    let body = line
        .strip_prefix("S ")
        .ok_or_else(|| format!("not a list line: `{line}`"))?;
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.strip_suffix('\u{1f}')
        .ok_or_else(|| "unterminated list".to_string())?
        .split('\u{1f}')
        .map(icdb::net::unescape)
        .collect()
}

/// Every sample of the server's `metrics` command, keyed `name{labels}`.
pub type Samples = HashMap<String, f64>;

pub fn scrape(conn: &mut Conn) -> Result<Samples, String> {
    let reply = conn.call("command:metrics; rows:?s[]")?;
    let line = reply
        .lines()
        .next()
        .ok_or_else(|| format!("metrics answered `{}`", reply.text))?;
    let mut samples = Samples::new();
    for row in decode_list(line)? {
        if let Some((key, value)) = row.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                samples.insert(key.to_string(), v);
            }
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_listening_address() {
        let log = "2026-01-01T00:00:00Z INFO  boot: recovered durable image generation=0\n\
                   2026-01-01T00:00:00Z INFO  boot: listening addr=127.0.0.1:40123 max_connections=32 workers=1\n";
        assert_eq!(listening_addr(log).as_deref(), Some("127.0.0.1:40123"));
        assert_eq!(listening_addr("INFO boot: recovered\n"), None);
    }

    #[test]
    fn decodes_list_lines() {
        assert_eq!(
            decode_list("S a\u{1f}b\\tc\u{1f}").unwrap(),
            vec!["a".to_string(), "b\tc".to_string()]
        );
        assert!(decode_list("S ").unwrap().is_empty());
        assert!(decode_list("s x").is_err());
    }
}
