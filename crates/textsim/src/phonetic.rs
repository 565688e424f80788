//! Phonetic similarity: Soundex encoding compared with Jaro-Winkler.
//!
//! Simmetrics' Soundex metric encodes both inputs with the classic American
//! Soundex algorithm and compares the codes with Jaro-Winkler. We encode the
//! first token of each value (Soundex is a single-word code). When either
//! first token has no code (it holds no ASCII letter), we fall back to plain
//! Jaro-Winkler on the two first tokens themselves.

use crate::prepared::Prepared;
use crate::scratch::Scratch;
use crate::seq;

/// Classic 4-character American Soundex code of the ASCII letters in
/// `word`, ignoring every other char: `soundex("9th")` is `T000`. `None`
/// when `word` holds no ASCII letter.
pub fn soundex(word: &str) -> Option<String> {
    let letters: Vec<char> = word
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_uppercase())
        .collect();
    let first = *letters.first()?;
    let digit = |c: char| -> u8 {
        match c {
            'B' | 'F' | 'P' | 'V' => b'1',
            'C' | 'G' | 'J' | 'K' | 'Q' | 'S' | 'X' | 'Z' => b'2',
            'D' | 'T' => b'3',
            'L' => b'4',
            'M' | 'N' => b'5',
            'R' => b'6',
            _ => b'0', // vowels + H, W, Y
        }
    };
    let mut code = String::with_capacity(4);
    code.push(first);
    let mut last = digit(first);
    for &c in &letters[1..] {
        let d = digit(c);
        // H and W are transparent: they do not reset the previous code.
        if c == 'H' || c == 'W' {
            continue;
        }
        if d != b'0' && d != last {
            code.push(d as char);
            if code.len() == 4 {
                break;
            }
        }
        last = d;
    }
    while code.len() < 4 {
        code.push('0');
    }
    Some(code)
}

/// Similarity of the Soundex codes of the first tokens, compared with
/// Jaro-Winkler. Falls back to Jaro-Winkler on the first tokens themselves
/// when either side has no code.
pub fn soundex_sim(a: &Prepared, b: &Prepared, s: &mut Scratch) -> f64 {
    match (a.soundex(), b.soundex()) {
        (Some(ca), Some(cb)) => seq::jaro_winkler(ca, cb, s),
        _ => seq::jaro_winkler(a.first_token(), b.first_token(), s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soundex_known_codes() {
        assert_eq!(soundex("Robert").unwrap(), "R163");
        assert_eq!(soundex("Rupert").unwrap(), "R163");
        assert_eq!(soundex("Ashcraft").unwrap(), "A261");
        assert_eq!(soundex("Ashcroft").unwrap(), "A261");
        assert_eq!(soundex("Tymczak").unwrap(), "T522");
        assert_eq!(soundex("Pfister").unwrap(), "P236");
        assert_eq!(soundex("Honeyman").unwrap(), "H555");
    }

    #[test]
    fn soundex_no_letters() {
        assert!(soundex("12345").is_none());
        assert!(soundex("").is_none());
    }

    #[test]
    fn soundex_skips_leading_non_letters() {
        // Only an input without any ASCII letter has no code.
        assert_eq!(soundex("9th").unwrap(), "T000");
        assert_eq!(soundex("3com").unwrap(), "C500");
    }

    #[test]
    fn phonetically_equal_names_score_one() {
        let s = &mut Scratch::default();
        let sim = soundex_sim(&Prepared::new("robert"), &Prepared::new("rupert"), s);
        assert_eq!(sim, 1.0);
    }

    #[test]
    fn numeric_tokens_fall_back() {
        let s = &mut Scratch::default();
        let sim = soundex_sim(&Prepared::new("123"), &Prepared::new("123"), s);
        assert_eq!(sim, 1.0);
    }

    #[test]
    fn one_side_without_code_compares_first_tokens() {
        // "123" has no code, so the first tokens are compared as they
        // are, not the raw strings and not "robert"'s code R163.
        let s = &mut Scratch::default();
        let (digits, name) = (Prepared::new("123 robert"), Prepared::new("robert 123"));
        assert_eq!(soundex_sim(&digits, &name, s), 0.0);
        assert_eq!(soundex_sim(&name, &digits, s), 0.0);
        let shared = Prepared::new("123 x");
        assert_eq!(soundex_sim(&digits, &shared, s), 1.0);
    }
}
