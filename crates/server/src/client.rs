//! A minimal blocking client for the line protocol — used by the
//! integration tests, the CI smoke check, and the load generator; also a
//! reference implementation for external clients.

use std::io::{BufRead, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use traclus_json::JsonValue;

use crate::protocol::{write_line, Request};

/// One connection speaking the line protocol synchronously: every
/// [`Self::request`] writes one line and blocks for the one-line answer.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends a typed request and returns the parsed response object.
    pub fn request(&mut self, request: &Request) -> std::io::Result<JsonValue> {
        self.send_line(request.to_line())
    }

    /// Sends one raw line verbatim (useful for probing the server's
    /// malformed-input handling) and returns the parsed response.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<JsonValue> {
        self.send_line(line.to_owned())
    }

    fn send_line(&mut self, line: String) -> std::io::Result<JsonValue> {
        write_line(&mut self.writer, line)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        JsonValue::parse(response.trim_end()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable response {response:?}: {e}"),
            )
        })
    }
}
