//! Hardened framing and reconnect-backoff suite.
//!
//! Both supervisors trust `FrameReader` for three load-bearing
//! guarantees, on sockets and pipes alike: a corrupt length prefix
//! cannot trigger a giant allocation, a stalled peer surfaces as
//! countable `Timeout` ticks instead of a hung thread, and a close
//! mid-frame is distinguishable from a clean goodbye at a frame
//! boundary. Every reader test runs over both transports. `Backoff`
//! must double up to its cap, jitter by at most a quarter, and restart
//! after `reset`.

use autocc_journal::ipc::{write_frame, Backoff, FrameReader, Polled, MAX_FRAME_BYTES};
use autocc_journal::json::Json;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A connected loopback pair: (client writer, server-side reader).
fn socket_pair() -> (TcpStream, FrameReader) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let client = TcpStream::connect(addr).expect("connect loopback");
    let (server, _) = listener.accept().expect("accept loopback");
    (client, FrameReader::socket(server))
}

/// Both transports as (writer, reader): a loopback socket and an
/// anonymous pipe.
fn pairs() -> Vec<(Box<dyn Write>, FrameReader)> {
    let (client, socket) = socket_pair();
    let (pipe_in, pipe_out) = std::io::pipe().expect("anonymous pipe");
    vec![
        (Box::new(client), socket),
        (Box::new(pipe_out), FrameReader::pipe(pipe_in)),
    ]
}

fn sample_frame() -> Vec<u8> {
    let payload = Json::Obj(vec![("kind".into(), Json::Str("probe".into()))]);
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &payload).expect("encode frame");
    bytes
}

#[test]
fn complete_frame_round_trips() {
    for (mut client, mut reader) in pairs() {
        client.write_all(&sample_frame()).expect("send frame");
        match reader.poll_frame(Duration::from_secs(5)).expect("poll") {
            Polled::Frame(json) => {
                assert_eq!(json.get("kind").and_then(Json::as_str), Some("probe"));
            }
            _ => panic!("expected a complete frame"),
        }
    }
}

#[test]
fn two_frames_in_one_write_are_both_delivered() {
    for (mut client, mut reader) in pairs() {
        let mut bytes = sample_frame();
        bytes.extend_from_slice(&sample_frame());
        client.write_all(&bytes).expect("send both frames");
        for _ in 0..2 {
            match reader.poll_frame(Duration::from_secs(5)).expect("poll") {
                Polled::Frame(_) => {}
                _ => panic!("expected back-to-back frames"),
            }
        }
    }
}

/// A declared length above the 64 MiB ceiling is rejected as soon as the
/// 8-byte prefix arrives — no payload is ever read or buffered, so the
/// attacker-controlled length never sizes an allocation.
#[test]
fn oversized_declared_length_is_rejected_from_prefix_alone() {
    for (mut client, mut reader) in pairs() {
        let declared = MAX_FRAME_BYTES + 1;
        client
            .write_all(format!("{declared:08x}").as_bytes())
            .expect("send prefix");
        // Deliberately send no payload: the reject must come from the
        // prefix.
        let err = match reader.poll_frame(Duration::from_secs(5)) {
            Err(e) => e,
            Ok(_) => panic!("oversized frame must be an error"),
        };
        assert!(
            err.to_string().contains("ceiling"),
            "unexpected error: {err}"
        );
    }
}

#[test]
fn non_hex_length_prefix_is_rejected() {
    for (mut client, mut reader) in pairs() {
        client.write_all(b"zzzzzzzz{}").expect("send junk");
        assert!(reader.poll_frame(Duration::from_secs(5)).is_err());
    }
}

/// A partial frame left in the buffer at a timeout must survive into the
/// next poll: polling is lossless.
#[test]
fn partial_frame_carries_over_between_polls() {
    for (mut client, mut reader) in pairs() {
        let bytes = sample_frame();
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        client.write_all(head).expect("send first half");
        match reader.poll_frame(Duration::from_millis(50)).expect("poll") {
            Polled::Timeout => {}
            _ => panic!("half a frame must time out, not parse"),
        }
        client.write_all(tail).expect("send second half");
        match reader.poll_frame(Duration::from_secs(5)).expect("poll") {
            Polled::Frame(json) => {
                assert_eq!(json.get("kind").and_then(Json::as_str), Some("probe"));
            }
            _ => panic!("carried-over frame must complete"),
        }
    }
}

/// `poll_frame` returns within (roughly) its deadline against a silent
/// peer — the half-open-socket guarantee the lease clock depends on,
/// and the wedged-worker guarantee the stall clock depends on.
#[test]
fn poll_frame_honors_its_deadline_against_a_silent_peer() {
    for (_client, mut reader) in pairs() {
        let started = Instant::now();
        match reader.poll_frame(Duration::from_millis(100)).expect("poll") {
            Polled::Timeout => {}
            _ => panic!("silent peer must time out"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "poll blocked far past its deadline"
        );
    }
}

#[test]
fn peer_close_at_frame_boundary_is_clean_eof() {
    for (client, mut reader) in pairs() {
        drop(client);
        match reader.poll_frame(Duration::from_secs(5)).expect("poll") {
            Polled::Eof => {}
            _ => panic!("close at a boundary must be Eof"),
        }
    }
}

#[test]
fn peer_close_mid_frame_is_an_error() {
    for (mut client, mut reader) in pairs() {
        let bytes = sample_frame();
        client.write_all(&bytes[..6]).expect("send partial prefix");
        client.flush().expect("flush");
        drop(client);
        assert!(
            reader.poll_frame(Duration::from_secs(5)).is_err(),
            "close mid-frame must be an error, not Eof"
        );
    }
}

// ---------------------------------------------------------------------
// Backoff schedule
// ---------------------------------------------------------------------

#[test]
fn backoff_doubles_and_caps_at_max() {
    let base = Duration::from_millis(100);
    let max = Duration::from_millis(1000);
    let mut backoff = Backoff::new(base, max);
    let mut previous = Duration::ZERO;
    for attempt in 0..10 {
        let delay = backoff.next_delay();
        // The un-jittered exponential for this attempt, capped at max.
        let exp = base.saturating_mul(1u32 << attempt.min(20)).min(max);
        assert!(
            delay >= exp,
            "attempt {attempt}: delay {delay:?} below exponential floor {exp:?}"
        );
        assert!(
            delay <= exp + exp / 4 && delay <= max,
            "attempt {attempt}: delay {delay:?} above jitter ceiling"
        );
        // Monotone until the cap: the schedule never shrinks mid-climb.
        if exp < max {
            assert!(delay >= previous.min(exp));
        }
        previous = delay;
    }
    assert_eq!(backoff.attempts(), 10);
}

#[test]
fn backoff_reset_restarts_the_schedule() {
    let base = Duration::from_millis(200);
    let mut backoff = Backoff::new(base, Duration::from_secs(10));
    for _ in 0..5 {
        backoff.next_delay();
    }
    assert_eq!(backoff.attempts(), 5);
    backoff.reset();
    assert_eq!(backoff.attempts(), 0);
    let first = backoff.next_delay();
    assert!(
        first <= base + base / 4,
        "post-reset delay {first:?} did not restart from base"
    );
}

#[test]
fn backoff_is_deterministic_within_a_process() {
    let mut a = Backoff::new(Duration::from_millis(50), Duration::from_secs(2));
    let mut b = Backoff::new(Duration::from_millis(50), Duration::from_secs(2));
    for _ in 0..8 {
        assert_eq!(a.next_delay(), b.next_delay());
    }
}

#[test]
fn backoff_survives_extreme_attempt_counts() {
    let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_secs(30));
    let mut last = Duration::ZERO;
    for _ in 0..100 {
        last = backoff.next_delay();
        assert!(last <= Duration::from_secs(30));
    }
    assert!(
        last >= Duration::from_secs(20),
        "cap never reached: {last:?}"
    );
}
