//! The one `LIKE` (`nimble_xml::atomic::like`) stays polynomial: a
//! pattern of many `%`s against a value that almost matches backs up only
//! to the last `%`, never through every earlier one. Run in release too
//! (CI's kernel guards), where a backtracking matcher took seconds.

use nimble_xml::atomic::{cmp, like};
use nimble_xml::{Atomic, CmpOp};
use std::time::{Duration, Instant};

/// The fastest of a few runs of `f`.
fn fastest(f: impl Fn() -> bool) -> (bool, Duration) {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let matched = f();
            (matched, t.elapsed())
        })
        .min_by_key(|(_, d)| *d)
        .unwrap_or((false, Duration::MAX))
}

#[test]
fn a_fifty_char_value_against_many_percents_takes_under_a_millisecond() {
    let pattern = "%a%a%a%a%a%a%a%ab";
    let bound = if cfg!(debug_assertions) { 20 } else { 1 };
    for text in ["a".repeat(50), format!("{}c", "a".repeat(49)), format!("{}b", "a".repeat(49))] {
        let want = text.ends_with('b');
        let (matched, took) = fastest(|| like(&text, pattern));
        assert_eq!(matched, want, "{:?}", text);
        assert!(took <= Duration::from_millis(bound), "{:?} LIKE {:?} took {:?}", text, pattern, took);
        // Through the comparison, as a value and a literal reach it.
        let (a, p) = (Atomic::Str(text.clone()), Atomic::from(pattern));
        let (matched, took) = fastest(|| cmp(CmpOp::Like, &a, &p));
        assert_eq!(matched, want);
        assert!(took <= Duration::from_millis(bound), "cmp took {:?}", took);
    }
}

#[test]
fn an_underscore_is_one_char_however_many_bytes() {
    for (text, pattern, want) in [
        ("é", "_", true),
        ("é", "__", false),
        ("aé", "a_", true),
        ("日本語", "_本_", true),
        ("日本語", "%語", true),
        ("naïve", "na_ve", true),
        ("naïve", "na__ve", false),
        ("", "%", true),
        ("x", "", false),
        ("a%b", "a%b", true),
    ] {
        assert_eq!(like(text, pattern), want, "{:?} LIKE {:?}", text, pattern);
    }
}
