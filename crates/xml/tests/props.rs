//! Property sweeps for the XML data model: parse/serialize roundtrips
//! over generated documents, atomic-order laws, and path display/parse
//! stability. Each property runs over [`sweep`]'s seeded cases, after the
//! inputs earlier failures shrank to.

use nimble_trace::rng::{sweep, Rng};
use nimble_xml::{parse, to_string, to_string_pretty, Atomic, AtomicKey, DocumentBuilder, Path};
use std::sync::Arc;

/// Generated document description: a tree of elements with text and
/// attributes drawn from awkward character sets.
#[derive(Debug, Clone)]
enum GenNode {
    Element {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<GenNode>,
    },
    Text(String),
    Comment(String),
}

const NAME_START: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
const NAME_REST: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";

fn name(rng: &mut Rng) -> String {
    rng.string(NAME_START, 1..2) + &rng.string(NAME_REST, 0..9)
}

/// Includes the characters that must be escaped, plus unicode.
fn text(rng: &mut Rng) -> String {
    rng.string("<>&\"'é本😀 abcdefghijklmnopqrstuvwxyz", 1..12)
}

fn attrs(rng: &mut Rng) -> Vec<(String, String)> {
    (0..rng.below(3)).map(|_| (name(rng), text(rng))).collect()
}

/// A tree at most `depth` elements deep below this node, at most four
/// children wide.
fn node(rng: &mut Rng, depth: usize) -> GenNode {
    if depth > 0 && rng.chance(0.5) {
        return GenNode::Element {
            name: name(rng),
            attrs: attrs(rng),
            children: (0..rng.below(4)).map(|_| node(rng, depth - 1)).collect(),
        };
    }
    match rng.below(3) {
        0 => GenNode::Text(text(rng)),
        // Comments must not contain "--".
        1 => GenNode::Comment(rng.string("abcdefghijklmnopqrstuvwxyz ", 0..11)),
        _ => GenNode::Element {
            name: name(rng),
            attrs: attrs(rng),
            children: vec![],
        },
    }
}

/// Build children under the currently-open element, coalescing adjacent
/// text nodes (they would merge on reparse) so the generated tree is in
/// parser-normal form. Shared by the root and nested elements.
fn build_children(children: &[GenNode], b: &mut DocumentBuilder) {
    let mut pending_text = String::new();
    for c in children {
        if let GenNode::Text(t) = c {
            pending_text.push_str(t);
            continue;
        }
        if !pending_text.trim().is_empty() {
            b.text_str(&pending_text);
        }
        pending_text.clear();
        build(c, b);
    }
    if !pending_text.trim().is_empty() {
        b.text_str(&pending_text);
    }
}

fn build(node: &GenNode, b: &mut DocumentBuilder) {
    match node {
        GenNode::Element {
            name,
            attrs,
            children,
        } => {
            b.start_element(name);
            let mut seen = std::collections::HashSet::new();
            for (k, v) in attrs {
                // Duplicate attribute names are not well-formed XML.
                if seen.insert(k.clone()) {
                    b.attr(k, v);
                }
            }
            build_children(children, b);
            b.end_element();
        }
        GenNode::Text(t) => {
            // Whitespace-only text is dropped by the parser by design;
            // generate only meaningful text. (Callers coalesce adjacency.)
            if !t.trim().is_empty() {
                b.text_str(t);
            }
        }
        GenNode::Comment(c) => {
            b.comment(c);
        }
    }
}

fn doc_of(root: &str, children: &[GenNode]) -> Arc<nimble_xml::Document> {
    let mut b = DocumentBuilder::new(root);
    build_children(children, &mut b);
    b.finish()
}

/// Run `property` over the two documents the proptest suite once shrank
/// a failure to — adjacent `<`-text children, under the root and two
/// levels down (they merge on reparse, hence `build_children`'s
/// coalescing) — and then over 256 generated documents.
fn for_each_doc(property: impl Fn(&Arc<nimble_xml::Document>)) {
    let lt = || GenNode::Text("<".to_string());
    let nest = |children| GenNode::Element {
        name: "_".to_string(),
        attrs: vec![],
        children,
    };
    property(&doc_of("a", &[lt(), lt()]));
    property(&doc_of("a", &[nest(vec![nest(vec![lt(), lt()])])]));
    sweep(256, |rng| {
        let children: Vec<GenNode> = (0..rng.below(4)).map(|_| node(rng, 3)).collect();
        property(&doc_of(&name(rng), &children));
    });
}

/// serialize → parse is the identity on document structure.
#[test]
fn serialize_parse_roundtrip() {
    for_each_doc(|doc| {
        let text = to_string(&doc.root());
        let back = parse(&text).unwrap();
        assert!(doc.root().deep_eq(&back.root()), "roundtrip failed for {}", text);
    });
}

/// Pretty-printing parses back to a document with identical text
/// content and element structure names.
#[test]
fn pretty_parse_keeps_element_structure() {
    for_each_doc(|doc| {
        let pretty = to_string_pretty(&doc.root());
        let back = parse(&pretty).unwrap();
        let names = |d: &Arc<nimble_xml::Document>| -> Vec<String> {
            d.root()
                .descendants()
                .filter_map(|n| n.name().map(str::to_string))
                .collect()
        };
        assert_eq!(names(doc), names(&back));
    });
}

/// Document order (node-id order) matches pre-order traversal.
#[test]
fn node_ids_are_preorder() {
    for_each_doc(|doc| {
        let ids: Vec<u32> = doc
            .root()
            .descendants()
            .map(|n| n.id().index() as u32)
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    });
}

fn atomic(rng: &mut Rng) -> Atomic {
    match rng.below(5) {
        0 => Atomic::Null,
        1 => Atomic::Bool(rng.chance(0.5)),
        2 => Atomic::Int(rng.any_i64()),
        // Finite floats only; the engine normalizes NaN away.
        3 => Atomic::Float((rng.f64() * 2.0 - 1.0) * 1e12),
        _ => {
            let printable: String = (' '..='~').collect();
            Atomic::Str(rng.string(&printable, 0..13))
        }
    }
}

/// A number where `i64` and `f64` part: ±2^53 ± k as an Int or as the
/// Float it rounds to, the `i64` extremes and 2^63, both zeros.
fn edge_number(rng: &mut Rng) -> Atomic {
    let p53 = 1i64 << 53;
    let base = *rng.pick(&[p53, -p53, i64::MAX, i64::MIN, 0]);
    let i = base.saturating_add(rng.below(9) as i64 - 4);
    match rng.below(4) {
        0 | 1 => Atomic::Int(i),
        2 => Atomic::Float(i as f64),
        _ => Atomic::Float(*rng.pick(&[-0.0, 0.0, 9_223_372_036_854_775_808.0, -9_223_372_036_854_775_808.0])),
    }
}

/// Atomic total order is antisymmetric and transitive (checked by
/// sorting consistency and over every triple) and key_eq agrees with
/// Ordering::Equal — numbers where i64 and f64 part included.
#[test]
fn atomic_order_laws() {
    use std::cmp::Ordering;
    sweep(256, |rng| {
        let values: Vec<Atomic> = (0..2 + rng.below(14))
            .map(|_| if rng.chance(0.5) { edge_number(rng) } else { atomic(rng) })
            .collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for w in sorted.windows(2) {
            assert_ne!(w[0].total_cmp(&w[1]), Ordering::Greater);
        }
        for a in &values {
            for b in &values {
                assert_eq!(a.key_eq(b), a.total_cmp(b) == Ordering::Equal);
                assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse());
                for c in &values {
                    if a.total_cmp(b).is_le() && b.total_cmp(c).is_le() {
                        assert!(a.total_cmp(c).is_le(), "{:?} <= {:?} <= {:?}", a, b, c);
                    }
                }
            }
        }
    });
}

/// AtomicKey hashing is consistent with equality.
#[test]
fn atomic_key_hash_consistency() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let h = |k: &AtomicKey| {
        let mut s = DefaultHasher::new();
        k.hash(&mut s);
        s.finish()
    };
    sweep(256, |rng| {
        // Independent draws are rarely equal; every other case pairs a
        // value with a copy or a numeric twin of itself.
        let a = atomic(rng);
        let b = match (rng.below(4), &a) {
            (0, _) => a.clone(),
            (1, Atomic::Int(i)) => Atomic::Float(*i as f64),
            (1, Atomic::Float(f)) => Atomic::Int(*f as i64),
            _ => atomic(rng),
        };
        let (ka, kb) = (AtomicKey(a), AtomicKey(b));
        if ka == kb {
            assert_eq!(h(&ka), h(&kb), "{:?} == {:?}", ka.0, kb.0);
        }
    });
}

/// The XML and path grammars' own punctuation, fragments of their
/// keywords, and multi-byte and astral characters.
#[rustfmt::skip]
const SOUP: &[&str] = &[
    "<", ">", "</", "/>", "<a>", "</a>", "<a", "<!--", "-->", "--", "<![CDATA[", "]]>", "<?xml",
    "?>", "<!DOCTYPE", "&", "&amp;", "&lt;", "&#x41;", "&#65;", "&#x110000;", "&#", "&bogus;", ";",
    "=", "'", "\"", "x='1'", "/", "//", "@", "*", "[", "]", "(", ")", ".", "..", ":", ",", " ",
    "\t", "\n", "a", "b7", "text", "_", "-", "0", "é", "ß", "本", "\u{301}", "\u{a0}", "\u{2028}",
    "😀", "\u{10ffff}", "\u{feff}",
];

fn soup(rng: &mut Rng, max_pieces: usize) -> String {
    (0..rng.below(max_pieces + 1))
        .map(|_| *rng.pick(SOUP))
        .collect()
}

/// Arbitrary input never panics the XML parser or the path parser.
#[test]
fn parsers_never_panic() {
    sweep(256, |rng| {
        let input = soup(rng, 60);
        let _ = parse(&input);
        let _ = Path::parse(&input);
    });
}

/// Tag-soup-ish input never panics either.
#[test]
fn tag_soup_never_panics() {
    #[rustfmt::skip]
    const PARTS: &[&str] = &[
        "<a>", "</a>", "<a", "/>", "<!--", "-->", "<![CDATA[", "]]>", "&amp;", "&#x41;", "&bogus;",
        "x='1'", "text",
    ];
    sweep(256, |rng| {
        let parts: String = (0..rng.below(12)).map(|_| *rng.pick(PARTS)).collect();
        let _ = parse(&parts);
    });
}

/// Path display/parse is stable.
#[test]
fn path_display_roundtrip() {
    sweep(256, |rng| {
        let steps: Vec<String> = (0..1 + rng.below(3))
            .map(|_| {
                rng.string("abcdefghijklmnopqrstuvwxyz", 1..2)
                    + &rng.string("abcdefghijklmnopqrstuvwxyz0123456789", 0..6)
            })
            .collect();
        let mut text = steps.join("/");
        if rng.chance(0.5) {
            text = format!("{}//{}", text, "leaf");
        }
        let p = Path::parse(&text).unwrap();
        let p2 = Path::parse(&p.to_string()).unwrap();
        assert_eq!(p, p2);
    });
}
