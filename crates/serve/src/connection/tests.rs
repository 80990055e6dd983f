//! The connection core without a socket: any chunking of a document is answered
//! like one session over its lossy text, a fake budget sheds exactly the requests
//! past it, and the two in-place error lines keep their bytes.

#[path = "../../tests/common/mod.rs"]
mod common;

use super::{too_long_line, Connection, Next};
use crate::server::{shed_line, MAX_LINE_BYTES};
use common::{advisor, request_corpus, tiny_pack_json};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::OnceLock;
use tcp_advisor::{AdvisorHandle, Session};

/// A small pack and 200 request lines over it.
fn fixture() -> &'static (String, Vec<String>) {
    static FIXTURE: OnceLock<(String, Vec<String>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let json = tiny_pack_json("core", "exp8", 8.0);
        let corpus = request_corpus(&json, 200, 11);
        let lines = corpus.lines().map(str::to_string).collect();
        (json, lines)
    })
}

/// A fresh handle per run: `!stats` reports pack-wide counters, so each side of a
/// comparison starts from zero.
fn handle() -> AdvisorHandle {
    AdvisorHandle::new(advisor(&fixture().0))
}

/// `Session::process` over `text` split like file mode.
fn process(session: &mut Session<'_>, text: &str, out: &mut String) {
    session.process(&text.lines().collect::<Vec<_>>(), out);
}

/// `out` with the clock readings of its `!stats` lines zeroed.
fn timeless(out: &str) -> String {
    let mut out = out.to_string();
    for key in ["\"pack_age_secs\":", "\"uptime_secs\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let end = start + out[start..].find([',', '}']).unwrap();
            out.replace_range(start..end, "0");
            from = start;
        }
    }
    out
}

/// A document of corpus lines mixed with CRLF endings, blank and whitespace-only
/// lines, invalid UTF-8, cut requests, `!stats`, one over-long line and an
/// unterminated last line.  Returns it with the over-long line's range (its `\n`
/// excluded) and the offset of the second byte of a two-byte character.
fn document(rng: &mut StdRng) -> (Vec<u8>, Range<usize>, usize) {
    let corpus = &fixture().1;
    let pick = |rng: &mut StdRng| corpus[rng.gen_range(0..corpus.len())].clone().into_bytes();
    let mut doc = Vec::new();
    let mut long = 0..0;
    let mut split_char = 0;
    let count = rng.gen_range(8..40);
    let long_at = rng.gen_range(0..count);
    let char_at = (long_at + rng.gen_range(1..count)) % count;
    for i in 0..=count {
        if i == long_at {
            let start = doc.len();
            doc.resize(start + MAX_LINE_BYTES + rng.gen_range(1..300), b'x');
            long = start..doc.len();
            doc.push(b'\n');
            continue;
        }
        let mut line = match rng.gen_range(0..9) {
            0 => Vec::new(),
            1 => b" \t  ".to_vec(),
            2 => b"!stats".to_vec(),
            3 => {
                let mut line = pick(rng);
                let at = rng.gen_range(0..line.len() + 1);
                line.insert(at, [0xff, 0xc3, 0x80, b'\r'][rng.gen_range(0..4)]);
                line
            }
            4 => {
                // Cut mid-request: the parse error names the line's last byte.
                let mut line = pick(rng);
                line.truncate(rng.gen_range(1..line.len()));
                line
            }
            _ => pick(rng),
        };
        if i == char_at {
            // `é` inside the first string value.
            let at = line.iter().position(|&b| b == b'"').map_or(0, |q| q + 1);
            line.splice(at..at, "é".bytes());
            split_char = doc.len() + at + 1;
        }
        doc.extend_from_slice(&line);
        // The last line has no `\n`, so a `\r` there stays part of it.
        let ending: &[u8] = if rng.gen_bool(0.5) { b"\r\n" } else { b"\n" };
        doc.extend_from_slice(if i < count {
            ending
        } else {
            &ending[..ending.len() - 1]
        });
    }
    (doc, long, split_char)
}

/// Random cut offsets of `doc`, from one byte up to 64 KiB apart, plus `forced`.
fn cuts(rng: &mut StdRng, len: usize, forced: usize) -> BTreeSet<usize> {
    let mut cuts = BTreeSet::from([0, forced, len]);
    let mut at = 0;
    while at < len {
        at += match rng.gen_range(0..4) {
            0 => 1,
            1 => rng.gen_range(1..16),
            2 => rng.gen_range(1..512),
            _ => rng.gen_range(1..1 << 16),
        };
        cuts.insert(at.min(len));
    }
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_chunking_is_answered_like_one_session_over_the_lossy_text(
        seed in 0u64..u64::MAX,
        max_batch in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (doc, long, split_char) = document(&mut rng);
        prop_assert!(std::str::from_utf8(&doc[split_char - 1..=split_char]) == Ok("é"));

        // File mode over the lossy text, with the over-long line's error line in place.
        let file_handle = handle();
        let mut file_session = Session::new(&file_handle, 1);
        let mut expected = String::new();
        let (before, after) = (&doc[..long.start], &doc[long.end + 1..]);
        process(&mut file_session, &String::from_utf8_lossy(before), &mut expected);
        expected.push_str(too_long_line());
        expected.push('\n');
        process(&mut file_session, &String::from_utf8_lossy(after), &mut expected);

        let core_handle = handle();
        let mut session = Session::new(&core_handle, 1);
        let shed = shed_line(1);
        let mut core = Connection::new(max_batch, &shed);
        let mut out = String::new();
        let mut too_long = 0;
        let cuts: Vec<usize> = cuts(&mut rng, doc.len(), split_char).into_iter().collect();
        for window in cuts.windows(2) {
            let mut chunk = &doc[window[0]..window[1]];
            loop {
                let fed = core.feed(chunk, || true);
                chunk = &chunk[fed.consumed..];
                too_long += fed.too_long;
                prop_assert!(core.pending() <= max_batch);
                prop_assert!(fed.next != Next::Shutdown);
                core.answer(&mut session, &mut out);
                if fed.next == Next::Read {
                    prop_assert!(chunk.is_empty());
                    break;
                }
            }
        }
        let fed = core.feed(b"", || true);
        prop_assert!(fed.next == Next::Close);
        too_long += fed.too_long;
        core.answer(&mut session, &mut out);
        prop_assert_eq!(too_long, 1);
        let same = timeless(&out) == timeless(&expected);
        prop_assert!(same, "chunked answers differ from file mode (seed {seed})");
    }
}

#[test]
fn the_in_place_error_lines_are_rendered_once_with_fixed_bytes() {
    assert_eq!(
        shed_line(4096),
        "{\"error\":\"overloaded: in-flight budget exhausted (max 4096); retry later\",\
         \"code\":503,\"id\":null}"
    );
    assert_eq!(
        too_long_line(),
        "{\"error\":\"line too long: more than 1048576 bytes before its newline; \
         discarded\",\"id\":null}"
    );
    assert!(std::ptr::eq(too_long_line(), too_long_line()));
}

#[test]
fn a_fake_budget_sheds_exactly_the_requests_past_it() {
    let corpus = &fixture().1;
    let input = format!(
        "{}\n{}\n!stats\n\n{}\n{}\n  !stats  \n{}\n",
        corpus[0], corpus[1], corpus[2], corpus[3], corpus[4]
    );
    for permits in [0, 1, 3, 5] {
        let core_handle = handle();
        let mut session = Session::new(&core_handle, 1);
        let shed = shed_line(permits);
        let mut core = Connection::new(64, &shed);
        let (mut asked, mut left) = (0, permits);
        let fed = core.feed(input.as_bytes(), || {
            asked += 1;
            left > 0 && {
                left -= 1;
                true
            }
        });
        assert_eq!((fed.consumed, fed.next), (input.len(), Next::Read));
        // Control lines bypass the budget: only the five requests ask for a permit.
        assert_eq!(asked, 5);
        let mut out = String::new();
        let answered = core.answer(&mut session, &mut out);
        assert_eq!(answered, (permits, 5 - permits as u64));
        // The first `permits` requests are answered, every later one is shed in
        // place, and the `!stats` lines are answered regardless.
        let file_handle = handle();
        let mut file_session = Session::new(&file_handle, 1);
        let mut expected = String::new();
        for (i, line) in input.lines().enumerate() {
            let request = !line.trim().is_empty() && !line.trim().starts_with('!');
            let rank = input.lines().take(i).filter(|l| l.starts_with('{')).count();
            if request && rank >= permits {
                expected.push_str(&shed);
                expected.push('\n');
            } else {
                process(&mut file_session, line, &mut expected);
            }
        }
        assert_eq!(timeless(&out), timeless(&expected), "{permits} permits");
        assert_eq!(core.pending(), 0);
    }
}

#[test]
fn a_full_batch_shutdown_and_eof_stop_the_feed_after_their_line() {
    let shed = shed_line(1);
    let mut core = Connection::new(2, &shed);
    let input = b"!stats\n\n!stats\n!stats\n";
    let fed = core.feed(input, || true);
    assert_eq!((fed.consumed, fed.next), (15, Next::Answer));
    assert_eq!(core.pending(), 2);
    let core_handle = handle();
    let mut session = Session::new(&core_handle, 1);
    core.answer(&mut session, &mut String::new());
    // A batch filled by the input's last line waits for the driver's next answer.
    let fed = core.feed(b"!stats\n!stats\n", || true);
    assert_eq!(
        (fed.consumed, fed.next, core.pending()),
        (14, Next::Read, 2)
    );

    let mut core = Connection::new(64, &shed);
    let input = b"!stats\r\n !shutdown \r\n!stats\n";
    let fed = core.feed(input, || true);
    assert_eq!((fed.consumed, fed.next), (21, Next::Shutdown));
    assert_eq!(core.pending(), 1);
    // An empty feed is the end of the stream: it closes after answering the
    // unterminated last line, unless that line is `!shutdown`.
    for (last, next, pending) in [("!stats", Next::Close, 1), ("!shutdown", Next::Shutdown, 0)] {
        let mut core = Connection::new(64, &shed);
        assert_eq!(core.feed(last.as_bytes(), || true).next, Next::Read);
        assert_eq!(core.pending(), 0);
        assert_eq!(core.feed(b"", || true).next, next);
        assert_eq!(core.pending(), pending);
    }
}

#[test]
fn an_over_long_line_is_answered_once_wherever_it_ends() {
    let shed = shed_line(1);
    let core_handle = handle();
    let mut session = Session::new(&core_handle, 1);
    let long = vec![b'x'; MAX_LINE_BYTES + 1];
    // Terminated within one feed, split over two, and cut off by EOF.
    for (pieces, terminated) in [(1, true), (2, true), (3, false)] {
        let mut core = Connection::new(64, &shed);
        let mut too_long = 0;
        for piece in long.chunks(long.len().div_ceil(pieces)) {
            too_long += core.feed(piece, || true).too_long;
        }
        if terminated {
            too_long += core.feed(b"\n", || true).too_long;
        }
        too_long += core.feed(b"", || true).too_long;
        let mut out = String::new();
        core.answer(&mut session, &mut out);
        assert_eq!(too_long, 1);
        assert_eq!(out, format!("{}\n", too_long_line()));
    }
    // A line of exactly `MAX_LINE_BYTES` is served as usual.
    let mut core = Connection::new(64, &shed);
    let mut at_cap = " ".repeat(MAX_LINE_BYTES - 6);
    at_cap.push_str("!stats\n");
    assert_eq!(core.feed(at_cap.as_bytes(), || true).too_long, 0);
    assert_eq!(core.pending(), 1);
}

#[test]
fn a_recycled_run_keeps_its_allocation() {
    let line = String::from("{\"kind\":\"best-policy\"}");
    let mut run: Vec<&str> = Vec::with_capacity(64);
    run.push(&line);
    let buffer = run.as_ptr() as usize;
    let recycled: Vec<&'static str> = super::recycle(run);
    assert!(recycled.is_empty());
    assert_eq!(recycled.capacity(), 64);
    assert_eq!(recycled.as_ptr() as usize, buffer);
}
