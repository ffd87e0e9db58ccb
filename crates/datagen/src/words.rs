//! Deterministic pseudo-word generation.
//!
//! Token *strings* matter to the tokenizer and to q-gram/suffix blocking, so
//! synthetic tokens are pronounceable syllable words rather than `tok123`:
//! distinct ids map to distinct words, words of nearby ids share no special
//! structure, and a typo on a word yields a string that is almost surely not
//! another vocabulary word (exactly how a real typo behaves under Token
//! Blocking).

use crate::rng::SmallRng;

const CONSONANTS: [char; 14] =
    ['b', 'd', 'f', 'g', 'k', 'l', 'm', 'n', 'p', 'r', 's', 't', 'v', 'z'];
const VOWELS: [char; 5] = ['a', 'e', 'i', 'o', 'u'];
const SYLLABLES: usize = CONSONANTS.len() * VOWELS.len(); // 70

/// The unique pseudo-word for id `i`: base-70 syllable expansion, minimum
/// two syllables (so every word survives tokenization and q-gram extraction).
///
/// ```
/// assert_eq!(er_datagen::words::word(0), "baba");
/// assert_ne!(er_datagen::words::word(1), er_datagen::words::word(70));
/// ```
pub fn word(i: u64) -> String {
    let mut out = String::with_capacity(word_len(i));
    push_word(i, |c| out.push(c));
    out
}

/// Writes [`word`]`(i)` one character at a time through `push`, so a caller
/// can build it in place.
pub(crate) fn push_word(i: u64, mut push: impl FnMut(char)) {
    let (digits, n) = syllables(i);
    for &s in digits[..n].iter().rev() {
        push(CONSONANTS[s / VOWELS.len()]);
        push(VOWELS[s % VOWELS.len()]);
    }
}

/// `word(i).len()`, without building the word.
pub(crate) fn word_len(i: u64) -> usize {
    2 * syllables(i).1
}

/// The base-70 digits of `i`, least significant first, and how many of
/// them the word spells (at least two; the padding digits are zero).
fn syllables(i: u64) -> ([usize; 11], usize) {
    // 70^11 > u64::MAX, so eleven digits hold any id.
    let mut digits = [0usize; 11];
    let mut n = 0;
    let mut v = i;
    loop {
        digits[n] = (v % SYLLABLES as u64) as usize;
        n += 1;
        v /= SYLLABLES as u64;
        if v == 0 {
            break;
        }
    }
    (digits, n.max(2))
}

/// Applies one random character-level edit (substitution, deletion or
/// duplication) to a word — the typo model of the noise pipeline.
pub fn typo(w: &str, rng: &mut SmallRng) -> String {
    let chars: Vec<char> = w.chars().collect();
    if chars.is_empty() {
        return String::from("x");
    }
    let pos = rng.gen_range(0, chars.len());
    let mut out = String::with_capacity(w.len() + 1);
    match rng.gen_below(3) {
        0 => {
            // Substitute with a random letter.
            for (i, &c) in chars.iter().enumerate() {
                if i == pos {
                    out.push(CONSONANTS[rng.gen_range(0, CONSONANTS.len())]);
                } else {
                    out.push(c);
                }
            }
        }
        1 if chars.len() > 1 => {
            // Delete.
            for (i, &c) in chars.iter().enumerate() {
                if i != pos {
                    out.push(c);
                }
            }
        }
        _ => {
            // Duplicate.
            for (i, &c) in chars.iter().enumerate() {
                out.push(c);
                if i == pos {
                    out.push(c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn words_are_unique_and_lowercase() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            let w = word(i);
            assert!(w.chars().all(|c| c.is_ascii_lowercase()), "{w}");
            assert!(w.len() >= 4);
            assert!(seen.insert(w), "collision at {i}");
        }
    }

    #[test]
    fn words_survive_tokenization_unchanged() {
        let mut scratch = er_model::tokenize::KeyScratch::new();
        for i in [0u64, 1, 69, 70, 4900, 343_000] {
            let w = word(i);
            scratch.fill_tokens(&er_model::EntityProfile::new("p").with("v", w.as_str()));
            assert!(scratch.iter().eq([w.as_str()]), "{w}");
        }
    }

    #[test]
    fn words_are_written_in_place_at_their_length() {
        for i in [0u64, 1, 69, 70, 4900, 343_000, u64::MAX] {
            let mut w = String::new();
            push_word(i, |c| w.push(c));
            assert_eq!(w, word(i));
            assert_eq!(w.len(), word_len(i));
        }
    }

    #[test]
    fn typo_changes_the_word() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut changed = 0;
        for i in 0..100u64 {
            let w = word(i);
            let t = typo(&w, &mut rng);
            if t != w {
                changed += 1;
            }
            assert!(!t.is_empty());
        }
        // Substitution can pick the same letter, but rarely.
        assert!(changed > 90);
    }

    #[test]
    fn typo_on_empty_is_safe() {
        let mut rng = SmallRng::seed_from_u64(6);
        assert_eq!(typo("", &mut rng), "x");
    }
}
