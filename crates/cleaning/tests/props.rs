//! Property sweeps for the cleaning layer: metric laws for the
//! matchers, normalizer idempotence, and union-find invariants. Each
//! property runs over [`sweep`]'s seeded cases, after the inputs earlier
//! failures shrank to.

use nimble_cleaning::matching::{
    levenshtein_distance, soundex, JaroWinkler, Levenshtein, Matcher, QGramJaccard,
};
use nimble_cleaning::merge_purge::UnionFind;
use nimble_cleaning::normalize::{
    AbbrevExpander, AddressNormalizer, BasicNormalizer, NameStandardizer, Normalizer,
};
use nimble_trace::rng::sweep;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Levenshtein is a metric: identity, symmetry, triangle inequality.
#[test]
fn levenshtein_is_a_metric() {
    sweep(256, |rng| {
        let [a, b, c] = [(); 3].map(|_| rng.string("ab", 0..9));
        assert_eq!(levenshtein_distance(&a, &a), 0);
        assert_eq!(levenshtein_distance(&a, &b), levenshtein_distance(&b, &a));
        assert!(
            levenshtein_distance(&a, &c)
                <= levenshtein_distance(&a, &b) + levenshtein_distance(&b, &c)
        );
        if a != b {
            assert!(levenshtein_distance(&a, &b) > 0);
        }
    });
}

/// Every similarity stays in [0, 1], is symmetric, and scores
/// identity as 1.
#[test]
fn similarities_are_bounded_and_symmetric() {
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(Levenshtein),
        Box::new(JaroWinkler),
        Box::new(QGramJaccard::default()),
    ];
    let check = |a: &str, b: &str| {
        for m in &matchers {
            let s = m.similarity(a, b);
            assert!((0.0..=1.0).contains(&s), "{} out of range for {}", s, m.name());
            let s2 = m.similarity(b, a);
            assert!((s - s2).abs() < 1e-9, "{} asymmetric on {:?} / {:?}", m.name(), a, b);
            assert!((m.similarity(a, a) - 1.0).abs() < 1e-9);
        }
    };
    // Shrunk from an earlier failure.
    check("c b ", "  cbaa");
    sweep(256, |rng| {
        check(&rng.string("abc ", 0..11), &rng.string("abc ", 0..11))
    });
}

/// An edit of one character never drops normalized Levenshtein
/// similarity below (len-1)/len.
#[test]
fn single_typo_bounded_damage() {
    sweep(256, |rng| {
        let s = rng.string(LOWER, 2..13);
        let chars: Vec<char> = s.chars().collect();
        let pos = rng.below(chars.len());
        let mut corrupted = chars.clone();
        corrupted[pos] = if corrupted[pos] == 'z' { 'a' } else { 'z' };
        let corrupted: String = corrupted.into_iter().collect();
        assert!(levenshtein_distance(&s, &corrupted) <= 1);
        let sim = Levenshtein.similarity(&s, &corrupted);
        assert!(sim >= (chars.len() as f64 - 1.0) / chars.len() as f64 - 1e-9);
    });
}

/// Soundex always yields letter + 3 digits and is case-insensitive.
#[test]
fn soundex_shape() {
    sweep(256, |rng| {
        let s = rng.string(&format!("{}{}", LOWER, UPPER), 1..13);
        let code = soundex(&s);
        assert_eq!(code.len(), 4);
        assert!(code.chars().next().unwrap().is_ascii_uppercase());
        assert!(code.chars().skip(1).all(|c| c.is_ascii_digit()));
        assert_eq!(soundex(&s.to_uppercase()), code);
    });
}

/// Normalizers are idempotent: normalize(normalize(x)) ==
/// normalize(x). The address normalizer re-parses its own canonical
/// form (comma structure is gone), so it is only *eventually*
/// idempotent — it must reach a fixpoint by the second application.
#[test]
fn normalizers_idempotent() {
    let strict: Vec<Box<dyn Normalizer>> = vec![
        Box::new(BasicNormalizer),
        Box::new(AbbrevExpander::with_defaults()),
        Box::new(NameStandardizer),
    ];
    let check = |s: &str| {
        for n in &strict {
            let once = n.normalize(s);
            let twice = n.normalize(&once);
            assert_eq!(&twice, &once, "{} not idempotent on {:?}", n.name(), s);
        }
        let addr = AddressNormalizer;
        let twice = addr.normalize(&addr.normalize(s));
        let thrice = addr.normalize(&twice);
        assert_eq!(&thrice, &twice, "address does not converge on {:?}", s);
    };
    // Shrunk from an earlier failure.
    check(",S");
    let alphabet = format!("{}{}0123456789 ,.", LOWER, UPPER);
    sweep(256, |rng| check(&rng.string(&alphabet, 0..25)));
}

/// Union-find: union is commutative/associative in effect; find is
/// consistent with the generated edge set's connected components.
#[test]
fn union_find_components() {
    sweep(256, |rng| {
        let n = 12;
        let edges: Vec<(usize, usize)> = (0..rng.below(24))
            .map(|_| (rng.below(n), rng.below(n)))
            .collect();
        let mut uf = UnionFind::new(n);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        // Reference components by BFS.
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut queue = vec![start];
            comp[start] = next;
            while let Some(x) = queue.pop() {
                for &y in &adj[x] {
                    if comp[y] == usize::MAX {
                        comp[y] = next;
                        queue.push(y);
                    }
                }
            }
            next += 1;
        }
        for a in 0..n {
            for b in 0..n {
                assert_eq!(uf.find(a) == uf.find(b), comp[a] == comp[b]);
            }
        }
    });
}
