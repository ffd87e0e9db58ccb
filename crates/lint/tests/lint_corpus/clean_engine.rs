//! Known-good twin: a serve surface that produces zero findings under the
//! full workspace pass set. Linted as `crates/serve/src/clean_engine.rs`.
//!
//! Guarded indexing, total error handling, and one drift-free codec
//! section — the shape every real mb-serve entry point is held to.

const SECTION_CLEAN: u8 = 9;

pub struct CleanEngine {
    slots: Vec<u32>,
}

impl CleanEngine {
    /// Validates once, then indexes freely.
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.slots.len(), "caller-checked bound");
        self.slots[i]
    }

    /// Total over empty input.
    pub fn max_slot(&self) -> u32 {
        self.slots.iter().copied().max().unwrap_or(0)
    }
}

fn encode_clean(out: &mut Vec<u8>, kind: u8, slots: &[u32]) {
    match kind {
        SECTION_CLEAN => {
            put_u8(out, 1);
            put_u32_slice(out, slots);
        }
        _ => {}
    }
}

fn decode_clean(buf: &[u8]) -> Result<Vec<u32>, String> {
    let mut r = Reader::new(buf, SECTION_CLEAN);
    r.u8()?;
    let slots = r.u32s()?;
    r.finish()?;
    Ok(slots)
}
