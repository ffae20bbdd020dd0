//! Protocol-robustness fuzzing: a live server fed truncated frames,
//! oversized length prefixes, malformed JSON/UTF-8 payloads and
//! mid-request disconnects must answer each with a structured error or a
//! clean close — never a panic, never a wedged connection — and must
//! stay fully serviceable afterwards.

use simcov_obs::json::Json;
use simcov_prng::Prng;
use simcov_serve::client;
use simcov_serve::{Client, ExitStatus, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;

/// A well-formed, fast submit request used as the fuzzing substrate.
fn valid_submit(id: &str) -> String {
    format!(r#"{{"type":"lint","id":"{id}","model":{{"dlx":"reduced-obs"}}}}"#)
}

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// Reads one frame straight off the socket (the payload may be invalid
/// UTF-8 from the fuzzer's perspective, so no protocol parsing here).
fn read_raw_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

fn start_server() -> (
    String,
    std::thread::JoinHandle<simcov_serve::server::ServeSummary>,
) {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

#[test]
fn fuzzed_frames_never_wedge_the_server() {
    let (addr, handle) = start_server();
    let mut prng = Prng::seed_from_u64(0x5eed);
    let substrate = valid_submit("fuzz");

    for round in 0..200 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        match prng.bounded_u64(5) {
            // Truncated frame: honest length prefix, short payload, cut
            // at a random point (including after zero bytes).
            0 => {
                let cut = prng.bounded_u64(substrate.len() as u64) as usize;
                let mut bytes = frame_bytes(substrate.as_bytes());
                bytes.truncate(4 + cut);
                stream.write_all(&bytes).expect("write");
                drop(stream); // mid-request disconnect
            }
            // Mid-prefix disconnect: fewer than 4 length bytes.
            1 => {
                let cut = prng.bounded_u64(4) as usize;
                let bytes = frame_bytes(substrate.as_bytes());
                stream.write_all(&bytes[..cut]).expect("write");
                drop(stream);
            }
            // Oversized length prefix: must be refused without the
            // server allocating the claimed size, with a structured
            // error, then a close.
            2 => {
                let claimed = simcov_serve::MAX_FRAME_BYTES as u32
                    + 1
                    + prng.bounded_u64(u32::MAX as u64 / 2) as u32;
                stream
                    .write_all(&claimed.to_be_bytes())
                    .expect("write prefix");
                let reply = read_raw_frame(&mut stream).expect("error frame");
                let text = String::from_utf8(reply).expect("server frames are UTF-8");
                assert!(text.contains("\"error\""), "oversized answered: {text}");
                // After the error the server closes: EOF, not a hang.
                let mut rest = Vec::new();
                stream.read_to_end(&mut rest).expect("clean close");
                assert!(rest.is_empty());
            }
            // Malformed payload: random bytes (often invalid UTF-8 or
            // invalid JSON) in a well-formed frame. The server must
            // answer a structured error; the same connection must then
            // still serve a real request.
            3 => {
                let len = 1 + prng.bounded_u64(48) as usize;
                let junk: Vec<u8> = (0..len).map(|_| prng.next_u64() as u8).collect();
                stream
                    .write_all(&frame_bytes(&junk))
                    .expect("write junk frame");
                let reply = read_raw_frame(&mut stream).expect("error frame");
                let text = String::from_utf8(reply).expect("server frames are UTF-8");
                assert!(text.contains("\"error\""), "junk answered: {text}");
                if std::str::from_utf8(&junk).is_ok() {
                    // Payload was consumed in full: connection stays
                    // usable (resync is possible after a JSON error).
                    stream
                        .write_all(&frame_bytes(br#"{"type":"stats"}"#))
                        .expect("write stats");
                    let reply = read_raw_frame(&mut stream).expect("stats after junk");
                    let text = String::from_utf8(reply).expect("utf-8");
                    assert!(text.contains("\"counters\""), "stats answered: {text}");
                }
            }
            // Structurally valid JSON, protocol-invalid request (bad
            // type, missing id/model, forbidden fields): structured
            // error, connection stays open.
            _ => {
                let bad = [
                    r#"{"type":"mystery"}"#,
                    r#"{"type":"campaign"}"#,
                    r#"{"type":"campaign","id":"x"}"#,
                    r#"{"type":"campaign","id":"x","model":{}}"#,
                    r#"{"type":"campaign","id":"x","model":{"dlx":"reduced-obs"},"checkpoint":"f"}"#,
                    r#"{"type":"campaign","id":"x","model":{"dlx":"reduced-obs"},"resume":true}"#,
                    r#"{"type":"campaign","id":"x","model":{"dlx":"reduced-obs"},"engine":"warp"}"#,
                    r#"{"type":"lint","model":{"dlx":"reduced-obs"}}"#,
                    r#"{"type":"query"}"#,
                    r#"[1,2,3]"#,
                    r#""just a string""#,
                ];
                let payload = *prng.choose(&bad).unwrap();
                stream
                    .write_all(&frame_bytes(payload.as_bytes()))
                    .expect("write bad request");
                let reply = read_raw_frame(&mut stream).expect("error frame");
                let text = String::from_utf8(reply).expect("utf-8");
                assert!(
                    text.contains("\"error\""),
                    "round {round}: bad request {payload} answered: {text}"
                );
                // Connection survives a protocol-level error.
                stream
                    .write_all(&frame_bytes(br#"{"type":"stats"}"#))
                    .expect("write stats");
                let reply = read_raw_frame(&mut stream).expect("stats after bad request");
                assert!(String::from_utf8(reply).unwrap().contains("\"counters\""));
            }
        }
    }

    // Requests that pass the protocol but fail in the job layer
    // (unknown model, bad tour kind) are *admitted* and complete with a
    // job-level error exit — the distinction the exit-code contract is
    // for.
    let mut cl = Client::connect(&addr).expect("connect");
    let semantic = [
        (
            "bad-model",
            r#"{"type":"campaign","id":"bad-model","model":{"dlx":"no-such-model"}}"#,
        ),
        (
            "bad-kind",
            r#"{"type":"tour","id":"bad-kind","model":{"dlx":"reduced-obs"},"kind":"scenic"}"#,
        ),
    ];
    for (id, payload) in semantic {
        let frame = cl.run_job(payload, id).expect("semantic failure completes");
        assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
        assert_ne!(
            frame.get("exit").and_then(Json::as_u64),
            Some(0),
            "{id} must exit nonzero"
        );
    }

    // The server took 200 rounds of abuse; it must still run a real job
    // to completion, and its accounting must have seen the abuse.
    let frame = cl
        .run_job(&valid_submit("after-the-storm"), "after-the-storm")
        .expect("real job completes after fuzzing");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(frame.get("exit").and_then(Json::as_u64), Some(0));

    let stats = cl.request(&client::stats()).expect("stats");
    let errors = stats
        .get("counters")
        .and_then(|c| c.get("serve.protocol_errors"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(errors > 0, "fuzzing must have registered protocol errors");

    let ack = cl.request(&client::shutdown()).expect("shutdown ack");
    assert_eq!(ack.get("status").and_then(Json::as_str), Some("draining"));
    let summary = handle.join().expect("server thread never panics");
    assert_eq!(summary.completed, 3, "two semantic failures + one success");
    assert_eq!(summary.status(), ExitStatus::Ok);
}

#[test]
fn disconnect_after_admission_parks_the_result() {
    // A client that submits a job and vanishes must not leak: the job
    // still runs, the result is stored, and a later connection can
    // query it.
    let (addr, handle) = start_server();
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(&frame_bytes(valid_submit("orphan").as_bytes()))
            .expect("submit");
        let ack = read_raw_frame(&mut stream).expect("ack");
        assert!(String::from_utf8(ack).unwrap().contains("admitted"));
        // Vanish mid-request, before the result is delivered.
    }
    let mut cl = Client::connect(&addr).expect("reconnect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let frame = loop {
        let frame = cl.request(&client::query("orphan")).expect("query");
        match frame.get("type").and_then(Json::as_str) {
            Some("result") => break frame,
            _ => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "orphaned job never completed"
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
    };
    assert_eq!(frame.get("exit").and_then(Json::as_u64), Some(0));
    let _ = cl.request(&client::shutdown()).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.completed, 1);
}

#[test]
fn symbolic_close_is_a_usage_error_not_a_retry() {
    // Closure runs explicit campaigns only. A `close` request naming the
    // symbolic engine must complete with the usage exit code on its
    // first attempt, never panic into retries and quarantine.
    let (addr, handle) = start_server();
    let mut cl = Client::connect(&addr).expect("connect");
    let frame = cl
        .run_job(
            r#"{"type":"close","id":"sym-close","model":{"dlx":"reduced-obs"},"engine":"symbolic","rounds":1}"#,
            "sym-close",
        )
        .expect("job completes");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(
        frame.get("exit").and_then(Json::as_u64),
        Some(2),
        "{frame:?}"
    );
    let stats = cl.request(&client::stats()).expect("stats");
    let counter = |name: &str| {
        stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(counter("serve.jobs_retried"), 0);
    assert_eq!(counter("serve.jobs_quarantined"), 0);
    let _ = cl.request(&client::shutdown()).expect("shutdown");
    let summary = handle.join().expect("server thread never panics");
    assert_eq!(summary.quarantined, 0);
}

#[test]
fn symbolic_campaign_refuses_fields_it_would_ignore() {
    // A symbolic campaign is the implicit campaign, which reads only `k`
    // and `jobs`. A wire field that would bound or collapse an explicit
    // run is a usage error naming the field, on the first attempt; an
    // explicit `"collapse":"off"` is the default and runs.
    let (addr, handle) = start_server();
    let mut cl = Client::connect(&addr).expect("connect");
    let cases = [
        (r#""deadline_ms":1"#, Some("deadline_ms")),
        (r#""max_steps":10"#, Some("max_steps")),
        (r#""collapse":"on""#, Some("collapse")),
        (r#""collapse":"verify""#, Some("collapse")),
        (r#""collapse":"off""#, None),
    ];
    for (i, (field, refused)) in cases.into_iter().enumerate() {
        let id = format!("sym-{i}");
        let req = format!(
            r#"{{"type":"campaign","id":"{id}","model":{{"dlx":"reduced"}},"engine":"symbolic","k":1,"jobs":1,{field}}}"#
        );
        let frame = cl.run_job(&req, &id).expect("job completes");
        let output = frame.get("output").and_then(Json::as_str).unwrap_or("");
        let exit = frame.get("exit").and_then(Json::as_u64);
        match refused {
            Some(name) => {
                assert_eq!(exit, Some(2), "{field}: {frame:?}");
                assert!(output.contains(name), "{field}: {output}");
            }
            None => {
                assert_eq!(exit, Some(0), "{field}: {frame:?}");
                assert!(
                    output.contains("transfer flips 1136 detected of 4608"),
                    "{output}"
                );
            }
        }
    }
    let stats = cl.request(&client::stats()).expect("stats");
    let retried = stats
        .get("counters")
        .and_then(|c| c.get("serve.jobs_retried"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert_eq!(retried, 0);
    let _ = cl.request(&client::shutdown()).expect("shutdown");
    let summary = handle.join().expect("server thread never panics");
    assert_eq!(summary.quarantined, 0);
}

#[test]
fn sequential_requests_do_not_wait_for_delayed_acks() {
    // Each request/response pair must cost a loopback round trip, not a
    // ~40 ms delayed ACK: a frame whose length prefix leaves in a write
    // of its own waits in Nagle's buffer until the peer ACKs it.
    let (addr, handle) = start_server();
    let mut cl = Client::connect(&addr).expect("connect");
    let start = std::time::Instant::now();
    for _ in 0..100 {
        let stats = cl.request(&client::stats()).expect("stats");
        assert_eq!(stats.get("type").and_then(Json::as_str), Some("stats"));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "100 sequential stats requests took {elapsed:?}"
    );
    let _ = cl.request(&client::shutdown()).expect("shutdown");
    handle.join().expect("server thread never panics");
}
