//! Frame transports: blocking TCP and an in-memory pipe.
//!
//! The [`Transport`] trait is the seam that lets every protocol driver
//! (the operator console, device agents, scripted test peers) run
//! unchanged over real loopback sockets *or* an in-memory byte pipe — the latter
//! still pushes every frame through the [`FrameDecoder`], so codec
//! behaviour is identical; only the syscalls disappear.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::wire::{Frame, FrameDecoder};

/// Default receive timeout for blocking transports.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// A bidirectional, frame-oriented transport.
pub trait Transport {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] when the peer is gone or the underlying
    /// byte channel fails.
    fn send(&mut self, frame: &Frame) -> Result<(), NetError>;

    /// Receives the next frame, blocking up to the transport's receive
    /// timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when no frame arrives in time,
    /// [`NetError::Closed`] when the peer hung up, [`NetError::Wire`]
    /// when the byte stream is not valid framing.
    fn recv(&mut self) -> Result<Frame, NetError>;

    /// Sends several frames, coalescing them where the transport can
    /// (one `write` syscall on TCP). The default just loops
    /// [`Transport::send`].
    ///
    /// # Errors
    ///
    /// As for [`Transport::send`]; frames before the failure may have
    /// been delivered.
    fn send_batch(&mut self, frames: &[Frame]) -> Result<(), NetError> {
        for frame in frames {
            self.send(frame)?;
        }
        Ok(())
    }

    /// Returns the next frame *already available* without blocking —
    /// frames sitting decoded (or decodable) in the receive buffer
    /// after an earlier [`Transport::recv`] pulled a whole burst off
    /// the wire. `Ok(None)` means "nothing buffered; you would block".
    ///
    /// Device agents drain this after every blocking `recv` so a
    /// burst of pushed probes becomes one read syscall and one
    /// coalesced reply write, not one of each per probe.
    ///
    /// # Errors
    ///
    /// [`NetError::Wire`] when the buffered bytes are not valid
    /// framing.
    fn recv_now(&mut self) -> Result<Option<Frame>, NetError> {
        Ok(None)
    }
}

/// Blocking TCP transport (client side of the gateway protocol).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    /// Reused encode buffer: steady-state sends allocate nothing.
    write_buf: Vec<u8>,
    timeout: Duration,
}

impl TcpTransport {
    /// Connects to `addr` with the default receive timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection failures as [`NetError::Io`].
    pub fn connect(addr: SocketAddr) -> Result<Self, NetError> {
        Self::connect_with_timeout(addr, DEFAULT_RECV_TIMEOUT)
    }

    /// Connects with an explicit receive timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection failures as [`NetError::Io`].
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
        Self::from_stream(stream, timeout)
    }

    /// Wraps an already-connected stream.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures as [`NetError::Io`].
    pub fn from_stream(stream: TcpStream, timeout: Duration) -> Result<Self, NetError> {
        // The protocol is request/response with small frames; Nagle
        // only adds latency here.
        stream.set_nodelay(true).map_err(NetError::Io)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(NetError::Io)?;
        Ok(TcpTransport {
            stream,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 16 * 1024],
            write_buf: Vec::with_capacity(4 * 1024),
            timeout,
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.write_buf.clear();
        frame.encode_into(&mut self.write_buf);
        self.stream.write_all(&self.write_buf)?;
        Ok(())
    }

    /// All frames encoded back-to-back into the reused buffer, one
    /// `write` syscall for the lot — the peer-side half of the
    /// protocol's coalesced-write discipline (an agent sends a whole
    /// burst of attaches or replies per syscall).
    fn send_batch(&mut self, frames: &[Frame]) -> Result<(), NetError> {
        if frames.is_empty() {
            return Ok(());
        }
        self.write_buf.clear();
        for frame in frames {
            frame.encode_into(&mut self.write_buf);
        }
        self.stream.write_all(&self.write_buf)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        let deadline = Instant::now() + self.timeout;
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            // Shrink the socket timeout to the *remaining* deadline so
            // a peer trickling partial frames cannot stretch one recv
            // to a multiple of the configured timeout.
            self.stream
                .set_read_timeout(Some(deadline - now))
                .map_err(NetError::Io)?;
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => self.decoder.extend(&self.read_buf[..n]),
                Err(err) => return Err(err.into()),
            }
        }
    }

    fn recv_now(&mut self) -> Result<Option<Frame>, NetError> {
        Ok(self.decoder.next_frame()?)
    }
}

/// One end of an in-memory duplex byte pipe.
///
/// Frames are encoded to bytes on send and re-parsed through a
/// [`FrameDecoder`] on receive, so the full codec runs exactly as it
/// does over TCP.
#[derive(Debug)]
pub struct PipeTransport {
    tx: SyncSender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    decoder: FrameDecoder,
    timeout: Duration,
}

impl PipeTransport {
    /// Creates a connected pair of pipe ends with the default timeout.
    pub fn pair() -> (PipeTransport, PipeTransport) {
        Self::pair_with_timeout(DEFAULT_RECV_TIMEOUT)
    }

    /// Creates a connected pair with an explicit receive timeout.
    pub fn pair_with_timeout(timeout: Duration) -> (PipeTransport, PipeTransport) {
        // Bounded both ways: a runaway sender blocks instead of
        // buffering unboundedly, mirroring TCP's flow control.
        let (a_tx, b_rx) = mpsc::sync_channel(256);
        let (b_tx, a_rx) = mpsc::sync_channel(256);
        (
            PipeTransport {
                tx: a_tx,
                rx: a_rx,
                decoder: FrameDecoder::new(),
                timeout,
            },
            PipeTransport {
                tx: b_tx,
                rx: b_rx,
                decoder: FrameDecoder::new(),
                timeout,
            },
        )
    }
}

impl Transport for PipeTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.tx.send(frame.encode()).map_err(|_| NetError::Closed)
    }

    /// One channel message for the whole batch (the pipe's analogue of
    /// a single coalesced `write`).
    fn send_batch(&mut self, frames: &[Frame]) -> Result<(), NetError> {
        if frames.is_empty() {
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(frames.len() * 32);
        for frame in frames {
            frame.encode_into(&mut bytes);
        }
        self.tx.send(bytes).map_err(|_| NetError::Closed)
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        let deadline = Instant::now() + self.timeout;
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            match self.rx.recv_timeout(deadline - now) {
                Ok(bytes) => self.decoder.extend(&bytes),
                Err(RecvTimeoutError::Timeout) => return Err(NetError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Closed),
            }
        }
    }

    fn recv_now(&mut self) -> Result<Option<Frame>, NetError> {
        // Drain whatever the peer already pushed, then decode.
        while let Ok(bytes) = self.rx.try_recv() {
            self.decoder.extend(&bytes);
        }
        Ok(self.decoder.next_frame()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::PROTOCOL_VERSION;
    use std::time::Duration;

    #[test]
    fn pipe_round_trips_frames_through_the_codec() {
        let (mut a, mut b) = PipeTransport::pair();
        a.send(&Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        })
        .unwrap();
        a.send(&Frame::Bye).unwrap();
        assert_eq!(
            b.recv().unwrap(),
            Frame::Hello {
                min_version: PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
            }
        );
        assert_eq!(b.recv().unwrap(), Frame::Bye);
    }

    #[test]
    fn pipe_reports_timeout_and_close() {
        let (mut a, b) = PipeTransport::pair_with_timeout(Duration::from_millis(20));
        assert!(matches!(a.recv(), Err(NetError::Timeout)));
        drop(b);
        assert!(matches!(a.recv(), Err(NetError::Closed)));
        assert!(matches!(a.send(&Frame::Bye), Err(NetError::Closed)));
    }
}
