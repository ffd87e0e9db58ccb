//! A served request makes no `read(2)`-family system call of its own.
//!
//! `/proc/self/io`'s `syscr` counts them for the whole process (socket
//! `recv`s are not among them), which is why this test is a binary of its
//! own: no sibling test shares the process. Before the request-scale stages
//! stopped sampling the process CPU clock, every request read
//! `/proc/self/stat` twice — 12 `read`s per request.

use er_datagen::presets;
use er_model::{EntityId, EntityProfile};
use mb_core::PipelineConfig;
use mb_serve::{CandidateRequest, Client, Server, ServerConfig, Snapshot, APPEND};

fn syscr() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines().find_map(|line| line.strip_prefix("syscr:")?.trim().parse().ok())
}

#[test]
fn serving_reads_no_file_per_request() {
    let collection = presets::build(&presets::tiny(46)).unwrap().into_dirty().collection;
    let entities = collection.len() as u32;
    let snapshot = Snapshot::build(&collection, PipelineConfig::default()).unwrap();
    let handle = Server::start(snapshot, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    // Per-connection set-up (the handler sizes its thread ceiling from the
    // host once) is not per-request cost: let it finish first.
    client.execute(&CandidateRequest::entity(EntityId(0))).unwrap();

    let Some(before) = syscr() else {
        println!("note: /proc/self/io is unreadable here; nothing to count");
        handle.shutdown();
        return;
    };
    let (reads, probes, upserts) = (1_000u32, 100u32, 100u32);
    for i in 0..reads {
        client.execute(&CandidateRequest::entity(EntityId(i * 7 % entities))).unwrap();
    }
    let recycled = |i: u32, uri: String| {
        let mut profile = EntityProfile::new(uri);
        for a in collection.profile(EntityId(i * 13 % entities)).attributes() {
            profile.add(a.name, a.value);
        }
        profile
    };
    for i in 0..probes {
        client.execute(&CandidateRequest::probe(recycled(i, format!("probe-{i}")), false)).unwrap();
    }
    for i in 0..upserts {
        client.upsert(APPEND, &recycled(i, format!("upsert-{i}"))).unwrap();
    }
    // The second reading is one more call by this test.
    let after = syscr().expect("/proc/self/io was readable a moment ago");
    let operations = f64::from(reads + probes + upserts);
    let per_operation = (after - before) as f64 / operations;
    assert!(
        per_operation < 0.1,
        "syscr rose by {} over {operations} operations: {per_operation:.3} per operation",
        after - before
    );
    assert_eq!(handle.generation(), 1 + u64::from(upserts));
    handle.shutdown();
}
