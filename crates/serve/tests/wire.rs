//! End-to-end wire tests: a real server on an ephemeral port, the typed
//! client, zero-downtime reloads, graceful shutdown — and the hostile-input
//! discipline of `roundtrip.rs` applied to the socket: truncated frames,
//! oversized length prefixes, wrong-version hellos, and mid-stream
//! disconnects must each produce a typed error (and leave the server
//! serving), never a panic.

use er_model::{EntityCollection, EntityId, EntityProfile};
use mb_core::{Noop, PipelineConfig, Retention};
use mb_serve::protocol::{
    parse_response, parse_upsert_ok, read_frame, read_hello, request_bytes, response_bytes,
    upsert_bytes, write_frame, MSG_ERROR, MSG_OK, MSG_REQUEST, MSG_RESPONSE, MSG_UPSERT,
    WIRE_MAGIC, WIRE_VERSION,
};
use mb_serve::{
    CandidateRequest, Client, DeltaOp, GenerationCell, QueryEngine, ServeError, Server,
    ServerConfig, Snapshot, APPEND,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

/// A snapshot where entity 0 ("jack miller") pairs with exactly one other
/// profile, selected by `variant`.
fn variant_snapshot(variant: usize) -> Snapshot {
    let decoys = ["aaa bbb", "ccc ddd", "eee fff"];
    let mut profiles = vec![EntityProfile::new("pivot").with("name", "jack miller")];
    for (i, decoy) in decoys.iter().enumerate() {
        let text = if i == variant { "jack miller" } else { decoy };
        profiles.push(EntityProfile::new(format!("p{i}")).with("name", text));
    }
    Snapshot::build(&EntityCollection::dirty(profiles), PipelineConfig::default()).unwrap()
}

fn quick_config() -> ServerConfig {
    // A short read timeout keeps shutdown drains fast in tests.
    ServerConfig { read_timeout: Duration::from_millis(50), ..ServerConfig::default() }
}

fn top1(client: &mut Client) -> (u32, u64) {
    let request = CandidateRequest::entity(EntityId(0)).with_retention(Retention::TopK(1));
    let response = client.execute(&request).unwrap();
    let scored = response.first().unwrap();
    assert_eq!(scored.candidates.len(), 1);
    (scored.candidates[0].id.0, response.generation)
}

#[test]
fn query_reload_requery_shutdown_round_trip() {
    let dir = std::env::temp_dir().join("mb-serve-wire-reload");
    std::fs::create_dir_all(&dir).unwrap();
    let next_path = dir.join("next.mbsnap");
    variant_snapshot(1).write_to(&next_path).unwrap();

    let handle = Server::start(variant_snapshot(0), quick_config()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(client.generation(), 1);

    // Generation 1: variant 0 pairs entity 0 with entity 1.
    assert_eq!(top1(&mut client), (1, 1));

    // Probe and batch flow through the same typed request.
    let probe = EntityProfile::new("probe").with("name", "jack miller");
    let response = client
        .execute(&CandidateRequest::probe(probe, true).with_retention(Retention::TopK(4)))
        .unwrap();
    assert!(!response.first().unwrap().candidates.is_empty());
    let response =
        client.execute(&CandidateRequest::batch().with_retention(Retention::TopK(1))).unwrap();
    assert_eq!(response.results.len(), 4);

    // Hostile-but-well-formed input: an out-of-range entity is a typed
    // remote error, and the connection keeps serving afterwards.
    let err = client.execute(&CandidateRequest::entity(EntityId(999))).unwrap_err();
    assert!(matches!(&err, ServeError::Remote(msg) if msg.contains("out of range")), "{err}");
    assert_eq!(top1(&mut client), (1, 1));

    // Zero-downtime reload: same connection, new generation, new answer.
    assert_eq!(client.reload(next_path.to_str().unwrap()).unwrap(), 2);
    assert_eq!(top1(&mut client), (2, 2));

    // A reload naming a broken snapshot is rejected and the current
    // generation keeps serving.
    let bogus = dir.join("bogus.mbsnap");
    std::fs::write(&bogus, b"not a snapshot").unwrap();
    let err = client.reload(bogus.to_str().unwrap()).unwrap_err();
    assert!(matches!(&err, ServeError::Remote(msg) if msg.contains("reload rejected")), "{err}");
    assert_eq!(top1(&mut client), (2, 2));

    // Graceful shutdown drains and acknowledges.
    assert_eq!(client.shutdown().unwrap(), 2);
    let report = handle.shutdown();
    assert!(report.counter_total(mb_observe::Counter::RequestsServed) >= 5);
    assert!(report.stage(mb_observe::Stage::SnapshotLoad).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trigger_file_reload_swaps_without_a_client() {
    let dir = std::env::temp_dir().join("mb-serve-wire-trigger");
    std::fs::create_dir_all(&dir).unwrap();
    let next_path = dir.join("next.mbsnap");
    variant_snapshot(2).write_to(&next_path).unwrap();
    let trigger = dir.join("reload.trigger");

    let config = ServerConfig { trigger_path: Some(trigger.clone()), ..quick_config() };
    let handle = Server::start(variant_snapshot(0), config).unwrap();
    assert_eq!(handle.generation(), 1);

    // The SIGHUP stand-in: drop the snapshot path into the trigger file and
    // the accept loop swaps it in.
    std::fs::write(&trigger, next_path.to_str().unwrap()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.generation() != 2 {
        assert!(std::time::Instant::now() < deadline, "trigger reload never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!Path::new(&trigger).exists(), "trigger file must be consumed");

    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(client.generation(), 2);
    assert_eq!(top1(&mut client), (3, 2));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// What `Client::connect` makes of a "server" that greets with `hello`.
fn connect_to_a_peer_greeting_with(hello: Vec<u8>) -> ServeError {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(&hello).unwrap();
    });
    let err = Client::connect(addr).unwrap_err();
    fake.join().unwrap();
    err
}

#[test]
fn wrong_version_hello_is_a_typed_handshake_error() {
    // A "server" speaking another protocol version — v1, whose frames carry
    // byte-wise checksums, or a future one: the client must refuse with the
    // typed handshake error, mirroring the snapshot loader's versioning
    // policy.
    assert_eq!(WIRE_VERSION, 2);
    for version in [1, WIRE_VERSION + 9] {
        let mut hello = Vec::new();
        hello.extend_from_slice(&WIRE_MAGIC);
        hello.extend_from_slice(&version.to_le_bytes());
        hello.extend_from_slice(&1u64.to_le_bytes());
        let err = connect_to_a_peer_greeting_with(hello);
        assert!(
            matches!(err, ServeError::Handshake { found, supported: 2 } if found == version),
            "v{version}: {err}"
        );
    }

    // And a peer that is not mb-serve at all (bad magic) is BadHello.
    let err = connect_to_a_peer_greeting_with(b"HTTP/1.1 200 OK\r\n\r\nmore".to_vec());
    assert!(matches!(err, ServeError::BadHello), "{err}");
}

#[test]
fn oversized_length_prefix_gets_an_error_frame_not_an_allocation() {
    let handle = Server::start(variant_snapshot(0), quick_config()).unwrap();
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    read_hello(&mut raw).unwrap();

    // Claim a 4 GiB payload. The server must answer with MSG_ERROR (typed
    // FrameTooLarge server-side) without ever allocating the claim.
    let mut head = Vec::new();
    head.push(MSG_REQUEST);
    head.extend_from_slice(&u32::MAX.to_le_bytes());
    head.extend_from_slice(&0u64.to_le_bytes());
    raw.write_all(&head).unwrap();
    let (kind, payload) = read_frame(&mut raw).unwrap();
    assert_eq!(kind, MSG_ERROR);
    assert!(String::from_utf8_lossy(&payload).contains("exceeds"));

    // The server survives hostile peers: a fresh client still gets answers.
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(top1(&mut client), (1, 1));
    handle.shutdown();
}

/// Sends `frame` on a fresh connection and returns the server's answer.
fn answer_to(addr: std::net::SocketAddr, frame: &[u8]) -> (u8, String) {
    let mut raw = TcpStream::connect(addr).unwrap();
    read_hello(&mut raw).unwrap();
    raw.write_all(frame).unwrap();
    let (kind, payload) = read_frame(&mut raw).unwrap();
    (kind, String::from_utf8_lossy(&payload).into_owned())
}

fn frame_of(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, kind, payload).unwrap();
    frame
}

#[test]
fn corrupt_and_unknown_frames_get_typed_errors() {
    let handle = Server::start(variant_snapshot(0), quick_config()).unwrap();
    let addr = handle.local_addr();

    // A probe whose payload ends off a word boundary, answered as sent.
    let probe = EntityProfile::new("probe").with("name", "jack miller").with("job", "carpenter");
    let payload = request_bytes(&CandidateRequest::probe(probe, false));
    assert!(payload.len() > 32 && payload.len() % 8 != 0, "{} bytes", payload.len());
    let frame = frame_of(MSG_REQUEST, &payload);
    assert_eq!(answer_to(addr, &frame).0, MSG_RESPONSE);
    let at = frame.len() - payload.len();

    let mut flipped = frame.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    // One zero byte appended, the length patched and the checksum kept: the
    // zero lands in the padding of the kernel's last word.
    let mut longer = frame.clone();
    longer.push(0);
    longer[1..5].copy_from_slice(&(payload.len() as u32 + 1).to_le_bytes());
    // Two payload words swapped between neighbouring lanes.
    let mut swapped = frame.clone();
    swapped[at..at + 8].copy_from_slice(&frame[at + 8..at + 16]);
    swapped[at + 8..at + 16].copy_from_slice(&frame[at..at + 8]);
    for (what, bad, says) in [
        ("bit-flipped payload", flipped, "checksum"),
        ("trailing zero", longer, "checksum"),
        ("swapped words", swapped, "checksum"),
        ("unknown message kind", frame_of(42, b""), "unknown message kind"),
        // Garbage *inside* a well-formed frame: decode fails, typed error back.
        ("garbage payload", frame_of(MSG_REQUEST, &[0xff, 0xff, 0xff]), ""),
    ] {
        let (kind, text) = answer_to(addr, &bad);
        assert_eq!(kind, MSG_ERROR, "{what}");
        assert!(text.contains(says), "{what}: {text}");
    }
    handle.shutdown();
}

#[test]
fn invalid_utf8_in_a_probe_or_an_upsert_gets_a_typed_error() {
    let handle = Server::start(variant_snapshot(0), quick_config()).unwrap();
    let profile = EntityProfile::new("uri").with("name", "value");
    // The profile follows 2 bytes of target in a probe and a 4-byte id in an
    // upsert; its name starts 15 bytes in, its value 23.
    let probe = request_bytes(&CandidateRequest::probe(profile.clone(), false));
    let upsert = upsert_bytes(APPEND, &profile);
    for (kind, payload, at, section) in
        [(MSG_REQUEST, probe, 2, "request"), (MSG_UPSERT, upsert, 4, "upsert")]
    {
        for field in [15, 23] {
            let mut bad = payload.clone();
            bad[at + field] = 0xff;
            let (answer, text) = answer_to(handle.local_addr(), &frame_of(kind, &bad));
            assert_eq!(answer, MSG_ERROR, "{section} byte {field}");
            assert!(
                text.contains(&format!("invalid UTF-8 in section '{section}'")),
                "{section} byte {field}: {text}"
            );
        }
    }
    // The live generation is untouched: no upsert got through.
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(top1(&mut client), (1, 1));
    handle.shutdown();
}

/// Hostile retention counts over the wire: `TopK(0)` is a typed
/// invalid-request error on a connection that keeps serving, and
/// `TopK(u64::MAX)` returns the whole neighborhood, ranked — nothing is
/// sized from `k` (run under `--features sanitize` / debug overflow checks
/// this would panic on a `k + 1`).
#[test]
fn hostile_top_k_counts_get_a_typed_error_or_the_whole_neighborhood() {
    let profiles: Vec<EntityProfile> = ["alpha beta gamma", "alpha beta", "alpha delta", "beta"]
        .iter()
        .enumerate()
        .map(|(i, text)| EntityProfile::new(format!("p{i}")).with("name", *text))
        .collect();
    let snapshot =
        Snapshot::build(&EntityCollection::dirty(profiles), PipelineConfig::default()).unwrap();
    let handle = Server::start(snapshot, quick_config()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let zero = CandidateRequest::entity(EntityId(0)).with_retention(Retention::TopK(0));
    let err = client.execute(&zero).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(msg)
            if msg.contains("invalid request") && msg.contains("positive count")),
        "{err}"
    );

    // Same connection: every k at or past the neighborhood size is the
    // same answer, in descending weight order.
    let query = |client: &mut Client, k: usize| {
        let request = CandidateRequest::entity(EntityId(0)).with_retention(Retention::TopK(k));
        client.execute(&request).unwrap().first().unwrap().clone()
    };
    let everything = query(&mut client, usize::MAX);
    assert_eq!(everything.candidates.len() as u64, everything.edges_scored);
    assert_eq!(everything.candidates.len(), 3);
    assert!(everything.candidates.windows(2).all(|w| w[0].weight >= w[1].weight));
    assert_eq!(query(&mut client, 3), everything);
    assert_eq!(query(&mut client, 2).candidates, everything.candidates[..2]);
    handle.shutdown();
}

/// A hostile batch thread count over the wire: the server holds it to what
/// the host can run, so `u32::MAX` is answered — bit-identically to one
/// thread, on a collection large enough to fan out — and the connection
/// keeps serving.
#[test]
fn hostile_batch_thread_count_is_clamped_not_spawned() {
    let collection =
        er_datagen::presets::build(&er_datagen::presets::tiny(46)).unwrap().into_dirty().collection;
    let snapshot = Snapshot::build(&collection, PipelineConfig::default()).unwrap();
    // The plain default config — the benchmark's only constructor call —
    // starts a server that answers.
    let handle = Server::start(snapshot, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let batch = |client: &mut Client, threads: usize| {
        client.execute(&CandidateRequest::batch().with_threads(threads)).unwrap().results
    };
    let one = batch(&mut client, 1);
    assert_eq!(one.len(), collection.len());
    assert_eq!(batch(&mut client, u32::MAX as usize), one);
    assert_eq!(batch(&mut client, 0), one);
    assert!(client.execute(&CandidateRequest::entity(EntityId(0))).is_ok());
    handle.shutdown();
}

#[test]
fn mid_stream_disconnect_leaves_the_server_serving() {
    let handle = Server::start(variant_snapshot(0), quick_config()).unwrap();

    // Send half a frame header, then vanish.
    {
        let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
        read_hello(&mut raw).unwrap();
        raw.write_all(&[MSG_REQUEST, 0x10, 0x00]).unwrap();
    }
    // And a peer that connects and says nothing at all, past the read
    // timeout.
    {
        let _silent = TcpStream::connect(handle.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(120));
    }

    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(top1(&mut client), (1, 1));
    handle.shutdown();
}

/// A peer slower than the read timeout: the handler's liveness poll fires
/// while a frame is half-read. What was read must be kept — at the parent
/// of this test the handler dropped it and parsed the rest of the frame as
/// a header (`frame payload of 3284844850 bytes exceeds the … cap`).
#[test]
fn a_read_timeout_inside_a_frame_does_not_desynchronise_the_connection() {
    let pause = 4 * quick_config().read_timeout;
    let handle = Server::start(variant_snapshot(0), quick_config()).unwrap();
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    read_hello(&mut raw).unwrap();
    let request = CandidateRequest::entity(EntityId(0)).with_retention(Retention::TopK(1));
    let mut frame = Vec::new();
    write_frame(&mut frame, MSG_REQUEST, &request_bytes(&request)).unwrap();
    assert!(frame.len() > 16);

    // Inside the header, at the header's end, inside the payload — one
    // after the other on the same connection.
    for cut in [5, 13, 16] {
        raw.write_all(&frame[..cut]).unwrap();
        std::thread::sleep(pause);
        raw.write_all(&frame[cut..]).unwrap();
        let (kind, payload) = read_frame(&mut raw).unwrap();
        assert_eq!(kind, MSG_RESPONSE, "cut at {cut}: {}", String::from_utf8_lossy(&payload));
        let response = parse_response(&payload).unwrap();
        assert_eq!(response.first().unwrap().candidates[0].id.0, 1, "cut at {cut}");
    }

    // A peer that stalls mid-frame and then vanishes is a clean close: the
    // handler ends, so the drain below does not wait on it, and the server
    // keeps serving others meanwhile.
    raw.write_all(&frame[..7]).unwrap();
    std::thread::sleep(pause);
    drop(raw);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(top1(&mut client), (1, 1));
    drop(client);
    let report = handle.shutdown();
    assert_eq!(report.meta("requests"), Some("4"));
}

/// The frames of `requests`, sent in one `write` on a raw connection. A
/// server that lost one of them fails the test's read by this timeout
/// instead of hanging it.
fn pipelined(raw: &mut TcpStream, requests: &[(u8, Vec<u8>)]) {
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut wire = Vec::new();
    for (kind, payload) in requests {
        write_frame(&mut wire, *kind, payload).unwrap();
    }
    raw.write_all(&wire).unwrap();
}

/// Two requests in one segment: the server parses the second out of its
/// buffer after answering the first, and the answers come back in order,
/// each the bytes the in-process engine's response encodes to.
#[test]
fn requests_pipelined_in_one_write_are_answered_in_order() {
    let handle = Server::start(variant_snapshot(0), quick_config()).unwrap();
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    assert_eq!(read_hello(&mut raw).unwrap(), 1);
    let entity = CandidateRequest::entity(EntityId(0)).with_retention(Retention::TopK(2));
    let probe = CandidateRequest::probe(EntityProfile::new("probe").with("name", "jack"), false);
    pipelined(
        &mut raw,
        &[(MSG_REQUEST, request_bytes(&entity)), (MSG_REQUEST, request_bytes(&probe))],
    );

    let cell = GenerationCell::new(variant_snapshot(0)).unwrap();
    let generation = cell.load();
    let mut engine = QueryEngine::from_generation(&generation);
    for request in [&entity, &probe] {
        let mut expected = engine.execute(request, &mut Noop).unwrap();
        expected.generation = 1;
        let (kind, payload) = read_frame(&mut raw).unwrap();
        assert_eq!(kind, MSG_RESPONSE, "{}", String::from_utf8_lossy(&payload));
        assert!(payload == response_bytes(&expected), "{request:?}: response bytes differ");
    }
    drop(raw);
    assert_eq!(handle.shutdown().meta("requests"), Some("2"));
}

/// An upsert and a read of the entity it appends, in one segment: the
/// handler re-pins after the upsert before it parses the read out of its
/// buffer, so the read is answered on the new generation.
#[test]
fn a_read_pipelined_behind_an_upsert_sees_the_new_generation() {
    let handle = Server::start(variant_snapshot(0), quick_config()).unwrap();
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    read_hello(&mut raw).unwrap();
    let newcomer = EntityProfile::new("p3").with("name", "jack miller");
    // Entity 4 is the append: out of range on generation 1.
    let read = CandidateRequest::entity(EntityId(4)).with_retention(Retention::TopK(usize::MAX));
    pipelined(
        &mut raw,
        &[(MSG_UPSERT, upsert_bytes(APPEND, &newcomer)), (MSG_REQUEST, request_bytes(&read))],
    );

    let (kind, payload) = read_frame(&mut raw).unwrap();
    assert_eq!(kind, MSG_OK, "{}", String::from_utf8_lossy(&payload));
    assert_eq!(parse_upsert_ok(&payload).unwrap(), (2, 4));

    let cell = GenerationCell::new(variant_snapshot(0)).unwrap();
    cell.apply(DeltaOp::Upsert { id: APPEND, profile: newcomer }, &mut Noop).unwrap();
    let generation = cell.load();
    let mut expected = QueryEngine::from_generation(&generation).execute(&read, &mut Noop).unwrap();
    expected.generation = 2;
    let (kind, payload) = read_frame(&mut raw).unwrap();
    assert_eq!(kind, MSG_RESPONSE, "{}", String::from_utf8_lossy(&payload));
    assert!(payload == response_bytes(&expected), "response bytes differ");
    let ids: Vec<u32> = expected.first().unwrap().candidates.iter().map(|c| c.id.0).collect();
    assert_eq!(ids.len(), 2, "the newcomer pairs with both jack millers: {ids:?}");
    handle.shutdown();
}

#[test]
fn upsert_delete_compact_round_trip_over_the_wire() {
    // The server starts on a bundle-built snapshot so a later MSG_COMPACT
    // can rebuild from the same profiles.
    let dir = std::env::temp_dir().join("mb-serve-wire-delta");
    let bundle_dir = dir.join("bundle");
    std::fs::create_dir_all(&bundle_dir).unwrap();
    let profiles = vec![
        EntityProfile::new("pivot").with("name", "jack miller"),
        EntityProfile::new("p0").with("name", "jack miller"),
        EntityProfile::new("p1").with("name", "ccc ddd"),
    ];
    let collection = EntityCollection::dirty(profiles);
    er_io::bundle::save(&bundle_dir, &collection, &er_model::GroundTruth::from_pairs([])).unwrap();
    let snapshot = Snapshot::build(&collection, PipelineConfig::default()).unwrap();

    let handle = Server::start(snapshot, quick_config()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(top1(&mut client), (1, 1));

    // Append a new duplicate of the pivot; the server assigns the id.
    let newcomer = EntityProfile::new("p2").with("name", "jack miller fresh");
    let (generation, id) = client.upsert(mb_serve::APPEND, &newcomer).unwrap();
    assert_eq!((generation, id), (2, 3));
    // Queryable on the same connection immediately.
    let response = client
        .execute(&CandidateRequest::entity(EntityId(3)).with_retention(Retention::TopK(usize::MAX)))
        .unwrap();
    let mut ids: Vec<u32> = response.first().unwrap().candidates.iter().map(|c| c.id.0).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1]);

    // Tombstone the old duplicate: it drops out of the pivot's answers.
    assert_eq!(client.delete(1).unwrap(), 3);
    let response = client
        .execute(&CandidateRequest::entity(EntityId(0)).with_retention(Retention::TopK(usize::MAX)))
        .unwrap();
    assert!(response.first().unwrap().candidates.iter().all(|c| c.id.0 != 1));

    // A delete of a dead entity is a typed remote error; serving continues.
    let err = client.delete(1).unwrap_err();
    assert!(matches!(&err, ServeError::Remote(msg) if msg.contains("not live")), "{err}");

    // Compaction folds the deltas into a clean arena and persists it.
    let out_path = dir.join("compacted.mbsnap");
    let generation =
        client.compact(bundle_dir.to_str().unwrap(), out_path.to_str().unwrap().into()).unwrap();
    assert_eq!(generation, 4);
    // The compacted file equals a from-scratch build over the merged set:
    // pivot, p1 ("ccc ddd" slid down to id 1), and the appended newcomer.
    let mut merged = collection.profiles().to_vec();
    merged.push(newcomer);
    merged.remove(1);
    let fresh =
        Snapshot::build(&EntityCollection::dirty(merged), PipelineConfig::default()).unwrap();
    assert_eq!(std::fs::read(&out_path).unwrap(), fresh.to_bytes());

    // Post-compaction queries serve the clean arena (ids shifted by the
    // fold): the pivot now pairs with the compacted newcomer.
    let response = client
        .execute(&CandidateRequest::entity(EntityId(0)).with_retention(Retention::TopK(usize::MAX)))
        .unwrap();
    assert_eq!(response.generation, 4);
    let ids: Vec<u32> = response.first().unwrap().candidates.iter().map(|c| c.id.0).collect();
    assert_eq!(ids, vec![2]);

    handle.shutdown();
}
