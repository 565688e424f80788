//! Property-based tests of the similarity functions' metric structure, and
//! differential tests of every measure against the kernels as first
//! written (`oracle`), compared bit for bit.

mod oracle;

use proptest::prelude::*;
use textsim::seq;
use textsim::tokenize::{counted, normalize, qgrams};
use textsim::{phonetic, qgram, Prepared, Scratch, SimilarityFunction};

fn chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

/// Score all 21 measures on `(a, b)` twice — each with a fresh scratch,
/// and all through one pair scorer on the shared `scratch` — and assert
/// that the bits of both equal the oracle's.
fn check_against_oracle(a: &str, b: &str, scratch: &mut Scratch) {
    let (pa, pb) = (Prepared::new(a), Prepared::new(b));
    let mut pair = scratch.pair(&pa, &pb);
    for f in SimilarityFunction::ALL {
        let want = oracle::compute(f, a, b);
        let alone = f.compute_prepared(&pa, &pb);
        let shared = pair.score(f);
        assert!(
            alone.to_bits() == want.to_bits() && shared.to_bits() == want.to_bits(),
            "{f:?} on {a:?} vs {b:?}: oracle {want}, alone {alone}, shared {shared}"
        );
    }
}

/// Check `(a, b)`, `(b, a)` and `(a, a)` on one scratch, so each pair
/// starts from buffers another pair left behind.
fn differential(a: &str, b: &str) {
    let mut scratch = Scratch::default();
    for (x, y) in [(a, b), (b, a), (a, a)] {
        check_against_oracle(x, y, &mut scratch);
    }
}

#[test]
fn edge_inputs_match_oracle() {
    let long = "ab".repeat(70);
    let words = "ipod nano ".repeat(14);
    let inputs = [
        "",
        "a",
        "İ",
        "İstanbul İzmir",
        "ǅemal ß straße",
        "Σίσυφος ΣΊΣΥΦΟΣ",
        &long[..63],
        &long[..64],
        &long[..65],
        &long,
        &words,
        "apple apple apple ipod",
        "9th 3com",
        "123 robert",
        "a b a b a b",
    ];
    let mut scratch = Scratch::default();
    for a in inputs {
        for b in inputs {
            check_against_oracle(a, b, &mut scratch);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Levenshtein is a metric: triangle inequality holds.
    #[test]
    fn levenshtein_triangle(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        let (ca, cb, cc) = (chars(&a), chars(&b), chars(&c));
        let s = &mut Scratch::default();
        let ab = seq::levenshtein(&ca, &cb, s);
        let bc = seq::levenshtein(&cb, &cc, s);
        let ac = seq::levenshtein(&ca, &cc, s);
        prop_assert!(ac <= ab + bc, "d(a,c)={ac} > d(a,b)={ab} + d(b,c)={bc}");
    }

    /// Levenshtein lower bound: at least the length difference.
    #[test]
    fn levenshtein_length_bound(a in "[a-z]{0,15}", b in "[a-z]{0,15}") {
        let d = seq::levenshtein(&chars(&a), &chars(&b), &mut Scratch::default());
        let diff = a.chars().count().abs_diff(b.chars().count());
        prop_assert!(d >= diff);
        prop_assert!(d <= a.chars().count().max(b.chars().count()));
    }

    /// Damerau-Levenshtein never exceeds Levenshtein (transpositions are
    /// an extra edit option).
    #[test]
    fn damerau_at_most_levenshtein(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
        let (ca, cb) = (chars(&a), chars(&b));
        let s = &mut Scratch::default();
        prop_assert!(seq::damerau_levenshtein(&ca, &cb, s) <= seq::levenshtein(&ca, &cb, s));
    }

    /// Jaro-Winkler boosts but never reduces Jaro, staying in [0, 1].
    #[test]
    fn jaro_winkler_dominates_jaro(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        let (ca, cb) = (chars(&a), chars(&b));
        let s = &mut Scratch::default();
        let j = seq::jaro(&ca, &cb, s);
        let w = seq::jaro_winkler(&ca, &cb, s);
        prop_assert!(w >= j - 1e-12);
        prop_assert!((0.0..=1.0).contains(&w));
    }

    /// Normalization is idempotent.
    #[test]
    fn normalize_idempotent(s in ".{0,40}") {
        let once = normalize(&s);
        prop_assert_eq!(normalize(&once), once.clone());
    }

    /// q-gram similarity is 1 exactly when the gram multisets coincide.
    #[test]
    fn qgram_identity(a in "[a-z ]{0,20}", b in "[a-z ]{0,20}") {
        let ga = counted(qgrams(&normalize(&a), 3));
        let gb = counted(qgrams(&normalize(&b), 3));
        let s = qgram::qgram_sim(&ga, &gb);
        if ga == gb {
            prop_assert!((s - 1.0).abs() < 1e-12);
        } else {
            prop_assert!(s < 1.0);
        }
    }

    /// Soundex codes always have the 1-letter + 3-digit shape.
    #[test]
    fn soundex_shape(word in "[a-zA-Z]{1,15}") {
        let code = phonetic::soundex(&word).expect("alphabetic input");
        prop_assert_eq!(code.len(), 4);
        let cs: Vec<char> = code.chars().collect();
        prop_assert!(cs[0].is_ascii_uppercase());
        prop_assert!(cs[1..].iter().all(|c| c.is_ascii_digit()));
    }

    /// Every one of the 21 measures scores an exact copy 1 and stays
    /// bounded against a perturbed copy.
    #[test]
    fn all_measures_selfsim(s in "[a-z0-9]{1,10}( [a-z0-9]{1,10}){0,4}") {
        let p = Prepared::new(&s);
        let mangled = format!("{s} extra");
        let q = Prepared::new(&mangled);
        for f in SimilarityFunction::ALL {
            prop_assert!((f.compute_prepared(&p, &p) - 1.0).abs() < 1e-9, "{:?}", f);
            let v = f.compute_prepared(&p, &q);
            prop_assert!((0.0..=1.0).contains(&v), "{:?} -> {}", f, v);
        }
    }

    /// Monge-Elkan with identical token multisets is 1; with disjoint
    /// character sets it is 0.
    #[test]
    fn monge_elkan_extremes(toks in prop::collection::vec("[a-f]{2,6}", 1..5)) {
        let s = toks.join(" ");
        let p = Prepared::new(&s);
        prop_assert!(
            (SimilarityFunction::MongeElkan.compute_prepared(&p, &p) - 1.0).abs() < 1e-9
        );
        let disjoint = Prepared::new("zzz xyx");
        let v = SimilarityFunction::MongeElkan.compute_prepared(&p, &disjoint);
        prop_assert!(v < 0.5, "disjoint ME should be low, got {v}");
    }

    /// Short strings over a small alphabet with multi-byte chars and a
    /// capital whose lowercase is two chars: many equal chars and tokens.
    #[test]
    fn short_strings_match_oracle(a in "[abİé ß1-]{0,14}", b in "[abİé ß1-]{0,14}") {
        differential(&a, &b);
    }

    /// Lengths around one and two 64-char blocks.
    #[test]
    fn block_boundaries_match_oracle(a in "[ab c]{60,70}", b in "[abc é]{0,140}") {
        differential(&a, &b);
    }

    /// Long strings, past two blocks on both sides.
    #[test]
    fn long_strings_match_oracle(a in "[a-e ]{120,200}", b in "[a-eİ ]{100,200}") {
        differential(&a, &b);
    }

    /// Values that repeat tokens, so multisets count above 1 and the soft
    /// measures see ties.
    #[test]
    fn repeated_tokens_match_oracle(
        xs in prop::collection::vec("[abİ]{1,3}", 1..12),
        ys in prop::collection::vec("[abé]{1,3}", 1..12),
    ) {
        differential(&xs.join(" "), &ys.join(" "));
    }

    /// Mixed-case Unicode text with digits and punctuation.
    #[test]
    fn unicode_text_matches_oracle(
        a in "[a-zA-ZİÉßΣσ0-9 ,.-]{0,80}",
        b in "[a-zA-ZİÉßΣσ0-9 ,.-]{0,80}",
    ) {
        differential(&a, &b);
    }
}
