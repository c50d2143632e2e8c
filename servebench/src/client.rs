//! A minimal HTTP/1.1 client over one keep-alive TCP connection: pipelined
//! sends, `Content-Length` and chunked responses, deadlines on every read.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A response head: status, framing and whether the server closes after it.
struct Head {
    status: u16,
    len: usize,
    content_length: Option<usize>,
    chunked: bool,
    close: bool,
}

/// One complete `Content-Length` response.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
    /// The server announced `Connection: close`.
    pub close: bool,
}

/// What a streamed (chunked) response carried besides its body.
pub struct StreamSummary {
    /// HTTP status code.
    pub status: u16,
    /// Body chunks, the terminating zero-length chunk excluded.
    pub chunks: u64,
    /// De-chunked body bytes.
    pub bytes: u64,
    /// The server announced `Connection: close`.
    pub close: bool,
}

/// One client connection with its read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    /// Requests written on this connection so far.
    pub sent: usize,
}

fn timed_out() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "response deadline passed")
}

impl Conn {
    /// Connect with Nagle off: requests are small and latency-bound.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(64 << 10),
            pos: 0,
            sent: 0,
        })
    }

    /// Write one whole request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)?;
        self.sent += 1;
        Ok(())
    }

    /// Read more bytes, waiting until `deadline` at most. `Ok(false)` when
    /// nothing arrived in time; end of stream is an error.
    fn fill(&mut self, deadline: Instant) -> io::Result<bool> {
        let wait = deadline.saturating_duration_since(Instant::now());
        if wait < Duration::from_micros(1) {
            return Ok(false);
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > self.buf.capacity() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.stream.set_read_timeout(Some(wait))?;
        let start = self.buf.len();
        self.buf.resize(start + (32 << 10), 0);
        let read = self.stream.read(&mut self.buf[start..]);
        self.buf.truncate(start + *read.as_ref().unwrap_or(&0));
        match read {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(_) => Ok(true),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Parse a response head at the read position, if one is complete.
    fn parse_head(&self) -> io::Result<Option<Head>> {
        let data = &self.buf[self.pos..];
        let Some(end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let text = std::str::from_utf8(&data[..end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let mut lines = text.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut head = Head {
            status,
            len: end + 4,
            content_length: None,
            chunked: false,
            close: false,
        };
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                head.content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                head.chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                head.close = value.eq_ignore_ascii_case("close");
            }
        }
        Ok(Some(head))
    }

    /// Take one complete `Content-Length` response out of the buffer.
    fn take_response(&mut self) -> io::Result<Option<Response>> {
        let Some(head) = self.parse_head()? else {
            return Ok(None);
        };
        if head.chunked {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected chunked response",
            ));
        }
        let body_len = head.content_length.unwrap_or(0);
        let start = self.pos + head.len;
        if self.buf.len() < start + body_len {
            return Ok(None);
        }
        let body = self.buf[start..start + body_len].to_vec();
        self.pos = start + body_len;
        Ok(Some(Response {
            status: head.status,
            body,
            close: head.close,
        }))
    }

    /// Return the next response if it completes before `deadline`.
    pub fn poll_response(&mut self, deadline: Instant) -> io::Result<Option<Response>> {
        loop {
            if let Some(response) = self.take_response()? {
                return Ok(Some(response));
            }
            if !self.fill(deadline)? {
                return Ok(None);
            }
        }
    }

    /// Wait for the next response until `deadline`; missing it is an error.
    pub fn read_response(&mut self, deadline: Instant) -> io::Result<Response> {
        self.poll_response(deadline)?.ok_or_else(timed_out)
    }

    /// Read one response whose body may be chunked, handing de-chunked body
    /// bytes to `on_body` as they arrive, with the instant of the read that
    /// delivered them.
    pub fn read_streamed(
        &mut self,
        deadline: Instant,
        mut on_body: impl FnMut(&[u8], Instant),
    ) -> io::Result<StreamSummary> {
        let head = loop {
            if let Some(head) = self.parse_head()? {
                break head;
            }
            if !self.fill(deadline)? {
                return Err(timed_out());
            }
        };
        self.pos += head.len;
        let mut summary = StreamSummary {
            status: head.status,
            chunks: 0,
            bytes: 0,
            close: head.close,
        };
        let mut arrived = Instant::now();
        if !head.chunked {
            let mut remaining = head.content_length.unwrap_or(0);
            while remaining > 0 {
                if self.pos == self.buf.len() {
                    if !self.fill(deadline)? {
                        return Err(timed_out());
                    }
                    arrived = Instant::now();
                }
                let take = remaining.min(self.buf.len() - self.pos);
                on_body(&self.buf[self.pos..self.pos + take], arrived);
                self.pos += take;
                remaining -= take;
                summary.bytes += take as u64;
            }
            return Ok(summary);
        }
        loop {
            // Chunk-size line.
            let line_end = loop {
                if let Some(i) = self.buf[self.pos..].windows(2).position(|w| w == b"\r\n") {
                    break self.pos + i;
                }
                if !self.fill(deadline)? {
                    return Err(timed_out());
                }
                arrived = Instant::now();
            };
            let size_text = std::str::from_utf8(&self.buf[self.pos..line_end]).unwrap_or("");
            let size = usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            self.pos = line_end + 2;
            let mut remaining = size;
            while remaining > 0 {
                if self.pos == self.buf.len() {
                    if !self.fill(deadline)? {
                        return Err(timed_out());
                    }
                    arrived = Instant::now();
                }
                let take = remaining.min(self.buf.len() - self.pos);
                on_body(&self.buf[self.pos..self.pos + take], arrived);
                self.pos += take;
                remaining -= take;
            }
            // The CRLF after the chunk data (or after the last-chunk line).
            while self.buf.len() - self.pos < 2 {
                if !self.fill(deadline)? {
                    return Err(timed_out());
                }
            }
            if &self.buf[self.pos..self.pos + 2] != b"\r\n" {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "chunk not terminated by CRLF",
                ));
            }
            self.pos += 2;
            if size == 0 {
                return Ok(summary);
            }
            summary.chunks += 1;
            summary.bytes += size as u64;
        }
    }
}

/// A `POST` request with a JSON body, as raw bytes.
pub fn post(path: &str, body: &[u8], extra_headers: &str) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         {extra_headers}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A `GET` request, as raw bytes.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}
