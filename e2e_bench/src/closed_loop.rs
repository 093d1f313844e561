//! A closed-loop client with one outstanding request, run on the
//! server's own thread.
//!
//! The server reads its requests from [`Requests`] and writes its
//! responses to [`Responses`]. When the server asks for the next request
//! line, the previous response's newline must already have been written:
//! only then is the client asked for the next line, and the line is
//! handed over. A request's latency runs from that hand-off to the
//! newline that ends its response. Client and server share one thread,
//! so no thread wake-up or core migration enters the measurement.

use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One request and its response.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub response: String,
    pub latency: Duration,
    /// When the response's newline was written.
    pub arrived: Instant,
}

/// The client: given the previous exchange (`None` before the first
/// request), returns the next request line, or `None` to end the stream.
pub type Client<'c> = Box<dyn FnMut(Option<Exchange>) -> Option<String> + 'c>;

#[derive(Default)]
struct Shared {
    /// Hand-off time of the request awaiting its response.
    outstanding: Option<Instant>,
    /// The bytes of a response whose newline has not been written yet.
    partial: Vec<u8>,
    /// A response whose newline has been written, not yet delivered.
    completed: Option<(String, Instant)>,
    /// Set when the server breaks the closed loop.
    violation: Option<String>,
}

impl Shared {
    /// The exchange of the outstanding request, if its response is in.
    fn take_exchange(&mut self) -> Option<Exchange> {
        let (response, arrived) = self.completed.take()?;
        let handoff = self.outstanding.take()?;
        Some(Exchange {
            response,
            latency: arrived.saturating_duration_since(handoff),
            arrived,
        })
    }
}

/// The server's request stream.
pub struct Requests<'c> {
    shared: Rc<RefCell<Shared>>,
    client: Client<'c>,
    current: Vec<u8>,
    pos: usize,
    ended: bool,
}

impl Read for Requests<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Requests<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.current.len() && !self.ended {
            let mut shared = self.shared.borrow_mut();
            let previous = match (shared.outstanding, shared.completed.is_some()) {
                (None, _) => None,
                (Some(_), true) => shared.take_exchange(),
                (Some(_), false) => {
                    shared.violation =
                        Some("the server read a request before answering the last".into());
                    self.ended = true;
                    return Ok(&[]);
                }
            };
            drop(shared);
            match (self.client)(previous) {
                Some(line) => {
                    self.current = format!("{line}\n").into_bytes();
                    self.pos = 0;
                    self.shared.borrow_mut().outstanding = Some(Instant::now());
                }
                None => self.ended = true,
            }
        }
        Ok(&self.current[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.current.len());
    }
}

/// The server's response stream: a newline completes a response and is
/// stamped as it is written.
pub struct Responses {
    shared: Rc<RefCell<Shared>>,
}

impl Write for Responses {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut shared = self.shared.borrow_mut();
        for &byte in buf {
            if byte != b'\n' {
                shared.partial.push(byte);
                continue;
            }
            let at = Instant::now();
            let line = String::from_utf8_lossy(&shared.partial).into_owned();
            shared.partial.clear();
            if shared.completed.is_some() || shared.outstanding.is_none() {
                shared.violation = Some(format!("unrequested response: {line}"));
            }
            shared.completed = Some((line, at));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs `server` over a closed loop driven by `client` and returns what
/// the server returned. The client also receives the last exchange when
/// the server stops on its own.
pub fn drive<'c, T>(
    client: impl FnMut(Option<Exchange>) -> Option<String> + 'c,
    server: impl FnOnce(&mut Requests<'c>, Responses) -> T,
) -> Result<T, String> {
    let shared = Rc::new(RefCell::new(Shared::default()));
    let mut requests = Requests {
        shared: Rc::clone(&shared),
        client: Box::new(client),
        current: Vec::new(),
        pos: 0,
        ended: false,
    };
    let out = server(
        &mut requests,
        Responses {
            shared: Rc::clone(&shared),
        },
    );
    let mut shared = shared.borrow_mut();
    if let Some(violation) = shared.violation.take() {
        return Err(violation);
    }
    if let Some(last) = shared.take_exchange() {
        drop(shared);
        (requests.client)(Some(last));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    /// Echoes each line after `delay`, writing the newline `tail` later
    /// than the rest of the response.
    fn slow_echo(
        requests: &mut Requests,
        mut responses: Responses,
        delay: Duration,
        tail: Duration,
    ) {
        let mut line = String::new();
        while requests
            .read_line(&mut line)
            .expect("in-memory reads succeed")
            > 0
        {
            sleep(delay);
            write!(responses, "echo {}", line.trim_end()).unwrap();
            sleep(tail);
            responses.write_all(b"\n").unwrap();
            line.clear();
        }
    }

    #[test]
    fn each_line_is_handed_over_after_the_previous_response() {
        let mut seen = Vec::new();
        let mut sent = 0;
        drive(
            |previous: Option<Exchange>| {
                seen.push(previous.map(|e| e.response));
                sent += 1;
                (sent <= 3).then(|| format!("r{sent}"))
            },
            |requests, responses| slow_echo(requests, responses, Duration::ZERO, Duration::ZERO),
        )
        .unwrap();
        let expected = [None, Some("echo r1"), Some("echo r2"), Some("echo r3")];
        assert_eq!(seen, expected.map(|e| e.map(str::to_string)));
    }

    #[test]
    fn a_server_that_reads_ahead_breaks_the_loop() {
        let mut sent = 0;
        let result = drive(
            |_| {
                sent += 1;
                (sent <= 2).then(|| "x".to_string())
            },
            |requests, mut responses| {
                let mut line = String::new();
                requests.read_line(&mut line).unwrap();
                // Reads a second request before answering the first.
                requests.read_line(&mut line).unwrap();
                responses.write_all(b"late\n").unwrap();
            },
        );
        assert!(result.is_err());
    }

    #[test]
    fn latency_runs_from_hand_off_to_the_response_newline() {
        let delay = Duration::from_millis(20);
        let tail = Duration::from_millis(30);
        let think = Duration::from_millis(100);
        let mut latencies = Vec::new();
        let mut sent = 0;
        drive(
            |previous: Option<Exchange>| {
                latencies.extend(previous.map(|e| e.latency));
                // Client-side think time before the hand-off is not latency.
                sleep(think);
                sent += 1;
                (sent <= 2).then(|| "x".to_string())
            },
            |requests, responses| slow_echo(requests, responses, delay, tail),
        )
        .unwrap();
        assert_eq!(latencies.len(), 2);
        for latency in latencies {
            // The first bytes go out after `delay`, the newline only
            // after `delay + tail`.
            assert!(latency >= delay + tail, "{latency:?}");
            assert!(latency < delay + tail + think, "{latency:?}");
        }
    }
}
