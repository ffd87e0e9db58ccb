//! codec-coverage corpus: encode/decode op-sequence parity per `SECTION_*`
//! key. Linted as `crates/serve/src/sections.rs`.
//!
//! Seeded drift, one of each shape the pass reports:
//! * `SECTION_STATS` — decode reads fewer ops than encode writes
//!   (flagged at the decode segment's `Reader::new`);
//! * `SECTION_LOG` — decode never calls `finish()`, so trailing bytes
//!   would go unnoticed;
//! * `SECTION_ORPHAN` — encoded but never decoded (flagged at the first
//!   encode op);
//! * `SECTION_GHOST` — decoded but never encoded.
//!
//! `SECTION_PAIRS` (count-prefixed loop) and `SECTION_IDS`
//! (`put_u32_slice`/`u32s`) are the drift-free twins exercising loop
//! compression and slice ops.

const SECTION_STATS: u8 = 1;
const SECTION_LOG: u8 = 2;
const SECTION_PAIRS: u8 = 3;
const SECTION_IDS: u8 = 4;
const SECTION_ORPHAN: u8 = 5;
const SECTION_GHOST: u8 = 6;

fn encode_snapshot(out: &mut Vec<u8>, kind: u8, pairs: &[(u32, u32)], ids: &[u32]) {
    match kind {
        SECTION_STATS => {
            put_u8(out, 1);
            put_u32(out, 7);
            put_u64(out, 9);
        }
        SECTION_LOG => {
            put_u32(out, 1);
        }
        SECTION_PAIRS => {
            put_u32(out, pairs.len() as u32);
            for p in pairs {
                put_u32(out, p.0);
                put_u32(out, p.1);
            }
        }
        SECTION_IDS => {
            put_u8(out, 2);
            put_u32_slice(out, ids);
        }
        SECTION_ORPHAN => {
            put_u8(out, 0); //~ codec-coverage
        }
        _ => {}
    }
}

fn decode_stats(buf: &[u8]) -> Result<(), String> {
    let mut r = Reader::new(section(buf, SECTION_STATS)?, 1); //~ codec-coverage
    r.u8()?;
    r.u32()?;
    r.finish()?;
    Ok(())
}

fn decode_log(buf: &[u8]) -> Result<(), String> {
    let mut r = Reader::new(section(buf, SECTION_LOG)?, 2); //~ codec-coverage
    r.u32()?;
    Ok(())
}

fn decode_pairs(buf: &[u8]) -> Result<Vec<(u32, u32)>, String> {
    let mut r = Reader::new(section(buf, SECTION_PAIRS)?, 3);
    let n = r.u32()?;
    let mut out = Vec::new();
    for _ in 0..n {
        let a = r.u32()?;
        let b = r.u32()?;
        out.push((a, b));
    }
    r.finish()?;
    Ok(out)
}

fn decode_ids(buf: &[u8]) -> Result<Vec<u32>, String> {
    let mut r = Reader::new(section(buf, SECTION_IDS)?, 4);
    r.u8()?;
    let ids = r.u32s()?;
    r.finish()?;
    Ok(ids)
}

fn decode_ghost(buf: &[u8]) -> Result<(), String> {
    let mut r = Reader::new(section(buf, SECTION_GHOST)?, 6); //~ codec-coverage
    r.u8()?;
    r.finish()?;
    Ok(())
}
