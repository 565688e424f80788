//! Blocking line-oriented client for the serve wire protocol.
//!
//! Used by the `serve-load` harness and the integration tests; small
//! enough to double as a reference implementation for external labelers.
//! One [`Client`] wraps one connection; `call` writes a request line and
//! blocks for the response line. Transport failures surface as
//! [`AlemError::Io`] so callers can apply the workspace's
//! [`alem_core::oracle::RetryPolicy`] backoff and reconnect.

use crate::proto::{self, Request, Response};
use alem_core::error::AlemError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One connection to an `alem-serve` instance.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
    trace_id: Option<String>,
}

impl Client {
    fn from_stream(stream: Stream) -> Result<Client, AlemError> {
        let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
        Ok(Client {
            reader,
            writer: stream,
            trace_id: None,
        })
    }

    /// Connect over TCP (`host:port`). Every request is sent in one
    /// write with `TCP_NODELAY` set, so a round trip never waits for a
    /// delayed ACK.
    pub fn connect_tcp(addr: &str) -> Result<Client, AlemError> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        Client::from_stream(Stream::Tcp(stream))
    }

    /// Connect over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> Result<Client, AlemError> {
        Client::from_stream(Stream::Unix(UnixStream::connect(path).map_err(io_err)?))
    }

    /// Connect to either transport: paths containing '/' are socket
    /// paths, everything else is a TCP address.
    pub fn connect(addr: &str) -> Result<Client, AlemError> {
        #[cfg(unix)]
        if addr.contains('/') {
            return Client::connect_unix(Path::new(addr));
        }
        Client::connect_tcp(addr)
    }

    /// Bound how long `call` may block on the response.
    pub fn set_read_timeout(&mut self, d: Option<Duration>) -> Result<(), AlemError> {
        self.writer.set_read_timeout(d).map_err(io_err)
    }

    /// Attach a trace id stamped onto every subsequent [`Client::call`]
    /// whose request does not already carry one; `None` clears it. The
    /// server propagates the id through its spans and echoes it back, so
    /// one labeling interaction is correlatable across the client thread,
    /// connection handler, and session worker in the trace sinks.
    pub fn set_trace_id(&mut self, id: Option<&str>) {
        self.trace_id = id.map(str::to_string);
    }

    /// Send `req`, block for the response. A connection-level trace id
    /// ([`Client::set_trace_id`]) is applied unless `req` carries its own.
    pub fn call(&mut self, req: &Request) -> Result<Response, AlemError> {
        if req.trace_id.is_none() {
            if let Some(t) = &self.trace_id {
                let mut stamped = req.clone();
                stamped.trace_id = Some(t.clone());
                return self.send_raw(&proto::encode(&stamped));
            }
        }
        self.send_raw(&proto::encode(req))
    }

    /// Send a pre-encoded (possibly deliberately malformed) frame and
    /// block for the response.
    pub fn send_raw(&mut self, line: &str) -> Result<Response, AlemError> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes()).map_err(io_err)?;
        self.writer.flush().map_err(io_err)?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).map_err(io_err)?;
        if n == 0 {
            return Err(AlemError::Io("server closed the connection".to_string()));
        }
        proto::decode_response(&reply)
            .map_err(|e| AlemError::Io(format!("unparsable response frame: {e}")))
    }
}

fn io_err(e: std::io::Error) -> AlemError {
    AlemError::Io(e.to_string())
}
