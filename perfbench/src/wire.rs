//! The client side of the line-delimited JSON protocol.
//!
//! Replies are read with a small linear parser of the benchmark's own: the
//! server's `Json::parse` re-validates the rest of the frame for every string
//! character, so it would make the load generator, not the server, the
//! bottleneck on the 35 KB `wait` replies. Requests are encoded once with the
//! server's own `Json` encoder, before the timed phase.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.pos != p.b.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn arr(&self, key: &str) -> Option<&[Value]> {
        match self.get(key)? {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The reply's error code, when it is a failure reply.
    pub fn error_code(&self) -> Option<&str> {
        if self.bool("ok") == Some(true) {
            return None;
        }
        Some(
            self.get("error")
                .and_then(|e| e.str("code"))
                .unwrap_or("malformed"),
        )
    }
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.b.get(self.pos) == Some(&c);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.b.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        if !self.eat(b':') {
                            return Err(format!("expected `:` at {}", self.pos));
                        }
                        pairs.push((key, self.value()?));
                        if self.eat(b'}') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(format!("expected `,` at {}", self.pos));
                        }
                    }
                }
                Ok(Value::Obj(pairs))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(format!("expected `,` at {}", self.pos));
                        }
                    }
                }
                Ok(Value::Arr(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            _ => {
                let start = self.pos;
                while matches!(
                    self.b.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.b[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad value at {start}"))
            }
        }
    }

    fn word(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = self.b.get(self.pos + 1).copied();
                    self.pos += 2;
                    match escaped {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'b') => out.push(8),
                        Some(b'f') => out.push(12),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                            self.pos += 4;
                        }
                        Some(c) => out.push(c),
                        None => return Err("unterminated escape".into()),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        // A wedged server must fail the run, not hang it past its deadline.
        stream
            .set_read_timeout(Some(Duration::from_secs(150)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Writes one pre-encoded frame.
    pub fn send(&mut self, frame: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads and parses the next frame; `Err` on a closed or broken stream.
    pub fn recv(&mut self) -> Result<Value, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Value::parse(self.line.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends every frame from a second thread while reading the replies in
    /// order, so no request waits for the previous round trip (and neither
    /// side can fill its socket buffer while the other waits to write).
    /// Failure replies become `Err`.
    pub fn pipeline(&mut self, frames: &[String]) -> Result<Vec<Value>, String> {
        let mut writer = self.writer.try_clone().map_err(|e| e.to_string())?;
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || {
                let mut out = std::io::BufWriter::new(&mut writer);
                for frame in frames {
                    out.write_all(frame.as_bytes())?;
                    out.write_all(b"\n")?;
                }
                out.flush()
            });
            let replies: Result<Vec<Value>, String> = frames
                .iter()
                .map(|_| {
                    let reply = self.recv()?;
                    match reply.error_code() {
                        None => Ok(reply),
                        Some(code) => Err(format!("server replied {code}")),
                    }
                })
                .collect();
            let sent = sender.join().expect("pipeline sender thread");
            sent.map_err(|e| format!("send: {e}"))?;
            replies
        })
    }

    /// One request/reply round trip; failure replies become `Err`.
    pub fn call(&mut self, frame: &str) -> Result<Value, String> {
        self.send(frame)?;
        let reply = self.recv()?;
        match reply.error_code() {
            None => Ok(reply),
            Some(code) => Err(format!("server replied {code}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_reply_frames() {
        let v = Value::parse(
            r#"{"ok":true,"results":[{"property":"p\"1","wall_ms":0.25,"from_cache":false,"winner":null}],"n":-3e2}"#,
        )
        .unwrap();
        assert_eq!(v.bool("ok"), Some(true));
        assert_eq!(v.num("n"), Some(-300.0));
        let r = &v.arr("results").unwrap()[0];
        assert_eq!(r.str("property"), Some("p\"1"));
        assert_eq!(r.num("wall_ms"), Some(0.25));
        assert_eq!(r.get("winner"), Some(&Value::Null));
        assert_eq!(v.error_code(), None);
        let e = Value::parse(r#"{"ok":false,"error":{"code":"timeout","message":"x"}}"#).unwrap();
        assert_eq!(e.error_code(), Some("timeout"));
        assert!(Value::parse("{\"a\":1} x").is_err());
        assert!(Value::parse("{\"a\":").is_err());
    }

    #[test]
    fn round_trips_the_server_encoder() {
        use wlac_server::Json;
        let frame = Json::obj(vec![
            ("op", Json::str("submit_batch")),
            ("jobs", Json::Arr(vec![Json::str("é\n\u{1}")])),
        ]);
        let v = Value::parse(&frame.to_string()).unwrap();
        assert_eq!(v.str("op"), Some("submit_batch"));
        assert_eq!(
            v.arr("jobs").unwrap()[0],
            Value::Str("é\n\u{1}".to_string())
        );
    }
}
