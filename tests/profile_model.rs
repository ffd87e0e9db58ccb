//! Differential test of `EntityProfile`'s one-buffer layout against a plain
//! model: a uri and a `Vec<(String, String)>` of pairs.
//!
//! Seeded random profiles, with empty uris, names and values, repeated
//! names, `İ`, `straße` and 4-byte characters, and 0, 1 and 64 pairs, are
//! built three ways — `new` + `add`, the sized path, and `add_with` writing
//! one character at a time — and every accessor is held against the model.
//! The same profiles then go through every producer that builds profiles
//! from text: the CSV reader (write → read) and the wire/snapshot profile
//! decoder (`put_profile` → `Reader::profile`, reached through the upsert
//! frame), whose bytes are also checked against the format written out
//! from the model by hand.

use er_model::EntityProfile;
use mb_serve::protocol::{parse_upsert, upsert_bytes};

type Model = (String, Vec<(String, String)>);

/// xorshift64*, the house generator for seeded tests.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Text of 0–7 pieces drawn from ASCII, CSV metacharacters, `İ` (which
/// lowercases to two chars), `straße`, and 3- and 4-byte characters.
fn text(next: &mut impl FnMut() -> u64) -> String {
    const PIECES: [&str; 12] =
        ["a", "Bob", " ", ",", "\"", "\n", "İ", "straße", "€", "𝔘", "😀", "x1"];
    let len = next() % 8;
    (0..len).map(|_| PIECES[(next() % PIECES.len() as u64) as usize]).collect()
}

/// Seeded models: every fourth profile has 0, 1 or 64 pairs, the rest 2–9;
/// names come from a pool of five (so they repeat) that includes `""`.
fn models(seed: u64, count: usize) -> Vec<Model> {
    let mut next = rng(seed);
    let names = ["", "name", "İd", "straße", "𝔘rl"];
    (0..count)
        .map(|i| {
            let pairs = match i % 12 {
                0 => 0,
                4 => 1,
                8 => 64,
                _ => 2 + (next() % 8) as usize,
            };
            let uri = if i % 7 == 3 { String::new() } else { format!("u{i}{}", text(&mut next)) };
            let attrs = (0..pairs)
                .map(|_| (names[(next() % 5) as usize].to_owned(), text(&mut next)))
                .collect();
            (uri, attrs)
        })
        .collect()
}

fn with_add((uri, pairs): &Model) -> EntityProfile {
    let mut p = EntityProfile::new(uri);
    for (name, value) in pairs {
        p.add(name, value);
    }
    p
}

fn sized((uri, pairs): &Model) -> EntityProfile {
    let text = pairs.iter().map(|(n, v)| n.len() + v.len()).sum();
    let mut p = EntityProfile::sized(uri, pairs.len(), text).unwrap();
    for (name, value) in pairs {
        p.add(name.as_str(), value.as_str());
    }
    p
}

fn char_by_char((uri, pairs): &Model) -> EntityProfile {
    let mut p = EntityProfile::new(uri.as_str());
    for (name, value) in pairs {
        p.add_with(
            |n| name.chars().for_each(|c| n.push(c)),
            |v| value.chars().for_each(|c| v.push(c)),
        );
    }
    p
}

fn agrees(p: &EntityProfile, (uri, pairs): &Model) {
    assert_eq!(p.uri(), uri);
    assert_eq!(p.len(), pairs.len());
    assert_eq!(p.is_empty(), pairs.is_empty());
    assert_eq!(p.attributes().len(), pairs.len());
    let got: Vec<(&str, &str)> = p.attributes().map(|a| (a.name, a.value)).collect();
    let want: Vec<(&str, &str)> = pairs.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
    assert_eq!(got, want);
    assert_eq!(p.values().len(), pairs.len());
    assert!(p.values().eq(pairs.iter().map(|(_, v)| v.as_str())));
    let body: Vec<String> = pairs.iter().map(|(n, v)| format!("{n}: {v}")).collect();
    assert_eq!(p.to_string(), format!("{uri} {{{}}}", body.join(", ")));
    let copy = p.clone();
    assert_eq!(&copy, p);
    assert_eq!(copy.to_string(), p.to_string());
}

#[test]
fn every_builder_agrees_with_the_model() {
    let models = models(20160315, 240);
    assert!(models.iter().any(|(_, p)| p.iter().any(|(n, v)| n.is_empty() && v.is_empty())));
    let built: Vec<EntityProfile> = models.iter().map(sized).collect();
    for (model, p) in models.iter().zip(&built) {
        agrees(p, model);
        agrees(&with_add(model), model);
        agrees(&char_by_char(model), model);
        assert_eq!(&with_add(model), p);
        assert_eq!(&char_by_char(model), p);
    }
    // `==` is the model's equality, also between different profiles.
    for (i, a) in built.iter().enumerate().step_by(7) {
        for (j, b) in built.iter().enumerate() {
            assert_eq!(a == b, models[i] == models[j], "{i} vs {j}");
        }
    }
}

/// `put_profile`'s bytes, written from the model: uri, pair count, then
/// each name and value, every string behind a `u32` length.
fn encoded((uri, pairs): &Model) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    let mut out = Vec::new();
    put(&mut out, uri);
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (name, value) in pairs {
        put(&mut out, name);
        put(&mut out, value);
    }
    out
}

#[test]
fn the_profile_codec_round_trips_the_model_bytes() {
    for (i, model) in models(7, 120).iter().enumerate() {
        let bytes = upsert_bytes(i as u32, &sized(model));
        assert_eq!(bytes[..4], (i as u32).to_le_bytes());
        assert_eq!(bytes[4..], encoded(model)[..], "profile {i}");
        let (id, back) = parse_upsert(&bytes).unwrap();
        assert_eq!(id, i as u32);
        agrees(&back, model);
    }
}

#[test]
fn the_csv_reader_reads_back_what_the_writer_wrote() {
    // CSV needs a uri, drops empty cells, and holds one column per name:
    // repeated names are joined with a space, columns in first-seen order.
    let models: Vec<Model> = models(11, 120).into_iter().filter(|(u, _)| !u.is_empty()).collect();
    let mut columns: Vec<&str> = Vec::new();
    for (_, pairs) in &models {
        for (name, _) in pairs {
            if !columns.contains(&name.as_str()) {
                columns.push(name);
            }
        }
    }
    let expected: Vec<Model> = models
        .iter()
        .map(|(uri, pairs)| {
            let mut cells = vec![String::new(); columns.len()];
            for (name, value) in pairs {
                let cell = &mut cells[columns.iter().position(|c| c == name).unwrap()];
                if !cell.is_empty() {
                    cell.push(' ');
                }
                cell.push_str(value);
            }
            let pairs = columns
                .iter()
                .zip(cells)
                .filter(|(_, cell)| !cell.is_empty())
                .map(|(name, cell)| (name.to_string(), cell))
                .collect();
            (uri.clone(), pairs)
        })
        .collect();
    let profiles: Vec<EntityProfile> = models.iter().map(sized).collect();
    let back = er_io::profiles::read_str(&er_io::profiles::write_str(&profiles)).unwrap();
    assert_eq!(back.len(), expected.len());
    for (p, model) in back.iter().zip(&expected) {
        agrees(p, model);
    }
}
