//! Fault injection for the durable-directory I/O path.
//!
//! The recovery guarantees of [`crate::durable`] are only worth
//! something if they are *demonstrated* against real failure modes.
//! This module provides the failure modes: [`io::Write`]/[`io::Read`]
//! wrappers that die at byte *N* or dribble short writes, and a
//! [`FaultPlan`] that aborts [`DurableDir::save_with`] between
//! protocol steps — simulating a process killed mid-write, between the
//! rename and the `LATEST` update ("torn rename"), or mid-pointer
//! update. The wrappers are ordinary I/O adapters with no test-only
//! compilation gates, so integration tests in any crate can use them.
//!
//! [`DurableDir::save_with`]: crate::durable::DurableDir::save_with

use std::io;

/// A write-side fault schedule for one
/// [`crate::durable::DurableDir::save_with`] call.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Fail the payload write once this many bytes have been
    /// accepted (simulates a crash or `ENOSPC` mid-write; the temp file
    /// is left truncated and never renamed).
    pub write_fail_at: Option<usize>,
    /// Cap every `write` call at this many bytes (short writes — must
    /// be *harmless*, since the store writes through `write_all`).
    pub short_write_chunk: Option<usize>,
    /// Abort after the temp file is written and fsynced but before it
    /// is renamed into place (stray temp file, no new data file).
    pub crash_before_rename: bool,
    /// Abort after the data-file rename but before the `LATEST`
    /// pointer is updated (the "torn rename" sequence: newest file
    /// exists, pointer is stale).
    pub crash_before_latest: bool,
    /// Fail the `LATEST` temp-file write after this many bytes (the
    /// pointer update itself dies; the old pointer must survive).
    pub latest_write_fail_at: Option<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing — the normal save path.
    pub fn none() -> Self {
        Self::default()
    }
}

fn injected_failure() -> io::Error {
    io::Error::other("injected write fault")
}

/// An [`io::Write`] adapter that optionally fails once `fail_at` bytes
/// have passed through, and optionally accepts at most `max_chunk`
/// bytes per call (forcing callers to handle short writes).
#[derive(Debug)]
pub struct FaultyWriter<W: io::Write> {
    inner: W,
    written: usize,
    fail_at: Option<usize>,
    max_chunk: Option<usize>,
}

impl<W: io::Write> FaultyWriter<W> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: W, fail_at: Option<usize>, max_chunk: Option<usize>) -> Self {
        Self {
            inner,
            written: 0,
            fail_at,
            max_chunk,
        }
    }

    /// Bytes accepted so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Unwraps the inner writer (e.g. to fsync the underlying file).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: io::Write> io::Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut budget = buf.len();
        if let Some(fail_at) = self.fail_at {
            if self.written >= fail_at {
                return Err(injected_failure());
            }
            // Accept only up to the failure point so the next call dies.
            budget = budget.min(fail_at - self.written);
        }
        if let Some(chunk) = self.max_chunk {
            budget = budget.min(chunk.max(1));
        }
        let n = self.inner.write(&buf[..budget])?;
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// An [`io::Read`] adapter that fails once `fail_at` bytes have been
/// produced — a torn read (e.g. medium error mid-file).
#[derive(Debug)]
pub struct FaultyReader<R: io::Read> {
    inner: R,
    read: usize,
    fail_at: Option<usize>,
}

impl<R: io::Read> FaultyReader<R> {
    /// Wraps `inner`, failing after `fail_at` bytes when set.
    pub fn new(inner: R, fail_at: Option<usize>) -> Self {
        Self {
            inner,
            read: 0,
            fail_at,
        }
    }
}

impl<R: io::Read> io::Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut budget = buf.len();
        if let Some(fail_at) = self.fail_at {
            if self.read >= fail_at {
                return Err(io::Error::other("injected read fault"));
            }
            budget = budget.min(fail_at - self.read);
        }
        let n = self.inner.read(&mut buf[..budget])?;
        self.read += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn writer_fails_exactly_at_byte_n() {
        let mut w = FaultyWriter::new(Vec::new(), Some(10), None);
        assert!(w.write_all(&[0u8; 10]).is_ok());
        assert_eq!(w.written(), 10);
        assert!(w.write_all(&[0u8; 1]).is_err());
        assert_eq!(w.into_inner().len(), 10);
    }

    #[test]
    fn writer_partial_then_fail_mid_buffer() {
        let mut w = FaultyWriter::new(Vec::new(), Some(5), None);
        // write_all must surface the failure after 5 bytes land.
        assert!(w.write_all(&[1u8; 8]).is_err());
        assert_eq!(w.into_inner(), vec![1u8; 5]);
    }

    #[test]
    fn short_writes_chunk_but_never_fail() {
        let mut w = FaultyWriter::new(Vec::new(), None, Some(3));
        assert_eq!(w.write(&[2u8; 100]).unwrap(), 3);
        w.write_all(&[2u8; 97]).unwrap();
        assert_eq!(w.into_inner().len(), 100);
    }

    #[test]
    fn reader_fails_at_byte_n() {
        let data = vec![7u8; 32];
        let mut r = FaultyReader::new(data.as_slice(), Some(16));
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        assert_eq!(err.to_string(), "injected read fault");
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn unfaulted_wrappers_are_transparent() {
        let mut w = FaultyWriter::new(Vec::new(), None, None);
        w.write_all(b"hello").unwrap();
        let bytes = w.into_inner();
        assert_eq!(bytes, b"hello");
        let mut r = FaultyReader::new(bytes.as_slice(), None);
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello");
    }
}
