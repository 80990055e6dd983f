//! The socket-free core of a TCP connection: a [`Connection`] frames the bytes a
//! client sends into lines, classifies them (blank, control, `!shutdown`, admitted or
//! shed request) and answers them in batches through the [`Session`].  The server's
//! driver only reads, writes, and keeps the budget, the metrics and the shutdown poll.

use crate::server::MAX_LINE_BYTES;
use std::ops::Range;
use std::sync::OnceLock;
use tcp_advisor::{render_line, ErrorLine, Session};

/// What the driver does after [`Connection::feed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Next {
    /// The input is used up: answer the batch, then read again.
    #[default]
    Read,
    /// The batch is full and input is left: answer it, then feed the rest.
    Answer,
    /// The stream ended: answer the batch and close.
    Close,
    /// A `!shutdown` line: answer the lines before it, acknowledge, and close.
    Shutdown,
}

/// The outcome of one [`Connection::feed`].
#[derive(Default)]
pub(crate) struct Fed {
    /// Input bytes taken; the caller passes the rest to the next `feed`.
    pub(crate) consumed: usize,
    /// Lines longer than [`MAX_LINE_BYTES`] rejected by this call.
    pub(crate) too_long: u64,
    pub(crate) next: Next,
}

/// Where a piece of input ends: inside its line, at the line's `\n`, or at EOF.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cut {
    Open,
    Newline,
    Eof,
}

/// One queued output slot of a batch, in input order.
enum Slot {
    /// A line for the session engine (request or control), as its byte range in
    /// `lines`; `bool` says whether it holds an in-flight permit (control lines do
    /// not).
    Line(Range<usize>, bool),
    /// A request line shed by admission control.
    Overloaded,
    /// A line longer than [`MAX_LINE_BYTES`], discarded unread.
    LineTooLong,
}

/// The framing, admission and batching state of one connection.
#[derive(Default)]
pub(crate) struct Connection<'a> {
    max_batch: usize,
    /// The answer to a shed request line (no newline).
    shed_line: &'a str,
    /// Bytes of a line whose `\n` has not arrived yet, so a read boundary never
    /// splits a multi-byte character.  It never exceeds [`MAX_LINE_BYTES`]: past
    /// that, `discarding` drops the rest of the line.
    partial: Vec<u8>,
    discarding: bool,
    slots: Vec<Slot>,
    /// The lines of the `Slot::Line`s, back to back; emptied by each answer.
    lines: String,
    /// Empty between answers; only its allocation carries over.
    run: Vec<&'static str>,
}

impl<'a> Connection<'a> {
    pub(crate) fn new(max_batch: usize, shed_line: &'a str) -> Self {
        Connection {
            max_batch,
            shed_line,
            ..Connection::default()
        }
    }

    /// Lines queued and not answered yet.
    pub(crate) fn pending(&self) -> usize {
        self.slots.len()
    }

    /// Queues the complete lines of `input` and keeps its unterminated tail; each
    /// request line asks `admit` for an in-flight permit.  Stops after a line that
    /// fills the batch while input is left, and after `!shutdown`.  An empty `input`
    /// is the end of the stream, as a read reports it: an unterminated last line is
    /// still one line, and an over-long one gets its one error line.
    pub(crate) fn feed(&mut self, input: &[u8], mut admit: impl FnMut() -> bool) -> Fed {
        let mut fed = Fed::default();
        while let Some(offset) = input[fed.consumed..].iter().position(|&b| b == b'\n') {
            let line = &input[fed.consumed..fed.consumed + offset];
            fed.consumed += offset + 1;
            self.take(line, Cut::Newline, &mut admit, &mut fed);
            if fed.next == Next::Shutdown {
                return fed;
            }
            if self.slots.len() >= self.max_batch && fed.consumed < input.len() {
                fed.next = Next::Answer;
                return fed;
            }
        }
        let cut = if input.is_empty() {
            Cut::Eof
        } else {
            Cut::Open
        };
        self.take(&input[fed.consumed..], cut, &mut admit, &mut fed);
        fed.consumed = input.len();
        fed
    }

    /// Takes the next bytes of the current line, up to `cut`: the one place that
    /// moves the partial-line and discard state, and that classifies each line.
    fn take(&mut self, bytes: &[u8], cut: Cut, admit: &mut impl FnMut() -> bool, fed: &mut Fed) {
        if cut == Cut::Eof {
            fed.next = Next::Close;
        }
        if self.discarding || self.partial.len() + bytes.len() > MAX_LINE_BYTES {
            // Past the cap: free the buffer and drop the rest of the line, which is
            // answered in place once its end arrives.
            self.partial = Vec::new();
            self.discarding = cut == Cut::Open;
            if cut != Cut::Open {
                fed.too_long += 1;
                self.slots.push(Slot::LineTooLong);
            }
            return;
        }
        if cut == Cut::Open {
            self.partial.extend_from_slice(bytes);
            return;
        }
        let mut line: &[u8] = if self.partial.is_empty() {
            bytes
        } else {
            self.partial.extend_from_slice(bytes);
            &self.partial
        };
        if cut == Cut::Newline {
            // Strip the `\r` of a `\r\n` exactly like `str::lines` in file mode —
            // parse-error byte offsets must match it.
            line = line.strip_suffix(b"\r").unwrap_or(line);
        }
        // Invalid UTF-8 cannot even be represented in file mode (reading the document
        // would fail); here it degrades to a replacement-character line whose parse
        // error is still a typed in-place response — never a dropped connection.
        let text = String::from_utf8_lossy(line);
        let holds_permit = match text.trim() {
            "" => None,
            "!shutdown" => {
                fed.next = Next::Shutdown;
                None
            }
            // Control lines bypass admission control: health probes and reloads must
            // keep working while the budget is exhausted.
            control if control.starts_with('!') => Some(false),
            _ if admit() => Some(true),
            _ => {
                self.slots.push(Slot::Overloaded);
                None
            }
        };
        if let Some(holds_permit) = holds_permit {
            let start = self.lines.len();
            self.lines.push_str(&text);
            self.slots
                .push(Slot::Line(start..self.lines.len(), holds_permit));
        }
        self.partial.clear();
    }

    /// Answers the batch into `out` in input order, then empties it; a shed or
    /// over-long line is answered in place.  Returns the admitted request lines
    /// answered (each hands back its in-flight permit) and the shed ones.
    pub(crate) fn answer(&mut self, session: &mut Session<'_>, out: &mut String) -> (usize, u64) {
        let (mut served, mut shed) = (0, 0);
        let mut run = recycle(std::mem::take(&mut self.run));
        for slot in &self.slots {
            let line = match slot {
                Slot::Line(range, holds_permit) => {
                    run.push(&self.lines[range.clone()]);
                    served += usize::from(*holds_permit);
                    continue;
                }
                Slot::Overloaded => {
                    shed += 1;
                    self.shed_line
                }
                Slot::LineTooLong => too_long_line(),
            };
            // The lines queued before it are answered first.
            session.process(&run, out);
            run.clear();
            out.push_str(line);
            out.push('\n');
        }
        session.process(&run, out);
        self.run = recycle(run);
        self.slots.clear();
        self.lines.clear();
        (served, shed)
    }
}

/// The in-place answer to an over-long line (no newline), rendered once per process.
pub(crate) fn too_long_line() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        let error = format!(
            "line too long: more than {MAX_LINE_BYTES} bytes before its newline; discarded"
        );
        render_line(&ErrorLine { error, id: None })
    })
}

/// Empties `run` and hands back its allocation for borrows of another lifetime (an
/// in-place `collect` of an empty iterator keeps the buffer).
fn recycle<'b>(mut run: Vec<&str>) -> Vec<&'b str> {
    run.clear();
    run.into_iter().map(|_| "").collect()
}

#[cfg(test)]
mod tests;
