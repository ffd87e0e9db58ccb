//! End-to-end wire tests: a real server on an ephemeral port, the typed
//! client, zero-downtime reloads, graceful shutdown — and the hostile-input
//! discipline of `roundtrip.rs` applied to the socket: truncated frames,
//! oversized length prefixes, wrong-version hellos, and mid-stream
//! disconnects must each produce a typed error (and leave the server
//! serving), never a panic.

use er_model::{EntityCollection, EntityId, EntityProfile};
use mb_core::{PipelineConfig, Retention};
use mb_serve::protocol::{
    parse_response, read_frame, read_hello, request_bytes, write_frame, MSG_ERROR, MSG_REQUEST,
    MSG_RESPONSE, WIRE_MAGIC, WIRE_VERSION,
};
use mb_serve::{CandidateRequest, Client, ServeError, Server, ServerConfig, Snapshot};
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

#[test]
fn wrong_version_hello_is_a_typed_handshake_error() {
    // A "server" speaking a future protocol version: the client must refuse
    // with the typed handshake error, mirroring the snapshot loader's
    // versioning policy.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut hello = Vec::new();
        hello.extend_from_slice(&WIRE_MAGIC);
        hello.extend_from_slice(&(WIRE_VERSION + 9).to_le_bytes());
        hello.extend_from_slice(&1u64.to_le_bytes());
        stream.write_all(&hello).unwrap();
    });
    let err = Client::connect(addr).unwrap_err();
    assert!(
        matches!(err, ServeError::Handshake { found, supported }
            if found == WIRE_VERSION + 9 && supported == WIRE_VERSION),
        "{err}"
    );
    fake.join().unwrap();

    // And a peer that is not mb-serve at all (bad magic) is BadHello.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(b"HTTP/1.1 200 OK\r\n\r\nmore").unwrap();
    });
    let err = Client::connect(addr).unwrap_err();
    assert!(matches!(err, ServeError::BadHello), "{err}");
    fake.join().unwrap();
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

#[test]
fn corrupt_and_unknown_frames_get_typed_errors() {
    let handle = Server::start(variant_snapshot(0), quick_config()).unwrap();

    // Bit-flipped payload: checksum mismatch.
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    read_hello(&mut raw).unwrap();
    let mut frame = Vec::new();
    write_frame(&mut frame, MSG_REQUEST, b"payload").unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    raw.write_all(&frame).unwrap();
    let (kind, payload) = read_frame(&mut raw).unwrap();
    assert_eq!(kind, MSG_ERROR);
    assert!(String::from_utf8_lossy(&payload).contains("checksum"));

    // Unknown message kind.
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    read_hello(&mut raw).unwrap();
    write_frame(&mut raw, 42, b"").unwrap();
    let (kind, payload) = read_frame(&mut raw).unwrap();
    assert_eq!(kind, MSG_ERROR);
    assert!(String::from_utf8_lossy(&payload).contains("unknown message kind"));

    // Garbage *inside* a well-formed frame: decode fails, typed error back.
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    read_hello(&mut raw).unwrap();
    write_frame(&mut raw, MSG_REQUEST, &[0xff, 0xff, 0xff]).unwrap();
    let (kind, _) = read_frame(&mut raw).unwrap();
    assert_eq!(kind, MSG_ERROR);

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
