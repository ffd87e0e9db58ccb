//! A profile costs its text: one buffer and one offset vector, never two
//! `String`s per name–value pair.
//!
//! The test is a binary of its own, since it installs the tracking
//! allocator, and it reads that allocator's tally of the measuring thread
//! only: the test harness's own thread allocates while a test runs, and a
//! process-wide count would charge those bytes to the collection.

use er_datagen::presets;
use er_model::EntityProfile;
use mb_observe::alloc_track::{self, TrackingAllocator};
use mb_serve::protocol::{parse_upsert, upsert_bytes};

#[global_allocator]
static ALLOC: TrackingAllocator<std::alloc::System> = TrackingAllocator::new(std::alloc::System);

/// Allocation events `run` makes, and what it returns.
fn allocations<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = alloc_track::thread_alloc_count();
    let out = run();
    (alloc_track::thread_alloc_count() - before, out)
}

/// What a profile's slot in a collection's `Vec` costs beside its buffers.
const SLOT: u64 = std::mem::size_of::<EntityProfile>() as u64;

#[test]
fn a_profile_costs_its_text_plus_its_offsets() {
    let pairs = [("FullName", "Jack Lloyd Miller"), ("job", "auto seller"), ("tag", "")];
    let text = pairs.iter().map(|(n, v)| n.len() + v.len()).sum();
    let (built, profile) = allocations(|| {
        let mut p = EntityProfile::sized("dblp/123", pairs.len(), text).unwrap();
        for (name, value) in pairs {
            p.add(name, value);
        }
        p
    });
    assert_eq!(built, 2, "building a sized profile");
    let frame = upsert_bytes(7, &profile);
    let (decoded, back) = allocations(|| parse_upsert(&frame).unwrap());
    assert_eq!(decoded, 2, "decoding a profile");
    assert_eq!(back.1, profile);
    let (cloned, copy) = allocations(|| profile.clone());
    assert_eq!(cloned, 2, "cloning a profile");
    assert_eq!(copy, profile);

    // A whole generated collection: live bytes are its text, 4 B per
    // offset (the uri's end, then a name end and a value end per pair), and
    // the profile's slot in the collection's vector.
    let before = alloc_track::thread_net_bytes();
    let dataset = presets::build(&presets::d3c(13, 0.005)).unwrap();
    drop(dataset.ground_truth);
    let live = alloc_track::thread_net_bytes().wrapping_sub(before);
    let collection = dataset.collection;
    let profiles = collection.len() as u64;
    let (mut text, mut offsets, mut pairs) = (0u64, 0u64, 0u64);
    for (_, p) in collection.iter() {
        text += p.uri().len() as u64;
        text += p.attributes().map(|a| (a.name.len() + a.value.len()) as u64).sum::<u64>();
        offsets += 1 + 2 * p.len() as u64;
        pairs += p.len() as u64;
    }
    let bound = text + 4 * offsets + SLOT * profiles;
    println!(
        "d3c 0.005: {profiles} profiles, {pairs} pairs, {text} B of text; {live} B live, \
         bound {bound} B"
    );
    assert!(profiles > 10_000 && pairs > 5 * profiles, "the fixture is too small to tell");
    assert!(live >= text, "the tracker missed the collection");
    assert!(live <= bound, "{live} B live for {bound} B of text, offsets and slots");
}
