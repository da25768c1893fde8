//! The plan-cache key against its references. The engine finds a hit
//! by the key and values the lexer cuts from a text
//! (`nimble_xmlql::lex_keyed`); on every text here they must be the
//! parser's (`parse_keyed`: the same key, and the values of
//! `eq_params`). A key may be shared only by texts whose parsed queries
//! print the same `QueryShape`, and a parameter spelled in another type
//! moves both.

#![allow(dead_code)]

use nimble_xml::Atomic;
use nimble_xmlql::{lex_keyed, parse_keyed, parse_query, QueryShape};
use std::collections::HashMap;

const PLACEHOLDERS: [&str; 4] = ["?int", "?float", "?str", "?bool"];

/// A literal of the type `placeholder` stands for, or — `other` — of
/// another type.
fn literal(placeholder: &str, other: bool) -> &'static str {
    match (placeholder, other) {
        ("?int", false) | ("?float" | "?str" | "?bool", true) => "3",
        ("?float", false) | ("?int", true) => "3.5",
        ("?str", false) => "\"s\"",
        _ => "true",
    }
}

/// `key` with each placeholder spelled as a literal of its type, but
/// for the `flip`-th, spelled as one of another type.
fn respell(key: &str, flip: Option<usize>) -> String {
    let mut text = String::new();
    let mut rest = key;
    let mut n = 0;
    while let Some((at, placeholder)) = PLACEHOLDERS
        .iter()
        .filter_map(|p| rest.find(p).map(|at| (at, *p)))
        .min()
    {
        text.push_str(&rest[..at]);
        text.push_str(literal(placeholder, flip == Some(n)));
        rest = &rest[at + placeholder.len()..];
        n += 1;
    }
    text.push_str(rest);
    text
}

/// The key the lexer cuts from `text`, checked against the parser's
/// cut and the parsed query's parameters.
pub fn lexed_key(text: &str) -> String {
    let lexed = lex_keyed(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
    let (query, parsed) = parse_keyed(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
    assert_eq!(lexed, parsed, "the lexer cuts what the parser does not:\n{}", text);
    assert_eq!(lexed.params.iter().collect::<Vec<&Atomic>>(), query.eq_params(), "{}", text);
    lexed.key.into_owned()
}

/// DESIGN.md §12's literal forms, each in a lookup text: every type of
/// parameter on either side, what is not one, an escaped string, a
/// literal in a nested subquery, a range, other whitespace, and a shard
/// coordinator's `$k = K`.
pub fn literal_forms() -> Vec<String> {
    let lookup = |cond: &str| {
        format!(r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", {} CONSTRUCT <c>$n</c>"#, cond)
    };
    let mut texts: Vec<String> = [
        "$i = 42", "$i = 42.0", r#"$i = "42""#, "42 = $i", "$i = -42", "$i = - 42", "$i = true",
        "$i = null", r#"$n = "say \"hi\"""#, r#"$n = 'O\'Hare'"#, r#""x" = $n, $i = 7"#,
        "$i > 300", "$i > 3", "$i=42", "$i =\n      42", "\t42\t=\t$i", "$i = 4 AND $n = 5",
        "NOT $i = 3", "$i = 40 + 2", "upper($n) = \"X\", $i = 1",
    ]
    .iter()
    .map(|cond| lookup(cond))
    .collect();
    texts.push(
        r#"WHERE <row><id>$i</id></row> ELEMENT_AS $e IN "customers", $i = 1
CONSTRUCT <o>{ WHERE <name>$n</name> IN $e, $n = "x" CONSTRUCT <p>$n</p> }</o>"#
            .to_string(),
    );
    texts.push(
        r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events", $k = 17 CONSTRUCT <e>$v</e>"#
            .to_string(),
    );
    texts
}

/// Over `texts` and every text their keys respell: equal keys ⇒ equal
/// shapes, and flipping one parameter's type moves the key and the
/// shape. Returns how many keys were compared.
pub fn keys_partition_like_shapes(texts: &[String]) -> usize {
    let mut pool: Vec<String> = texts.to_vec();
    for text in texts {
        let key = lexed_key(text);
        let params = parse_query(text).unwrap().eq_params().len();
        pool.push(respell(&key, None));
        for i in 0..params {
            let flipped = respell(&key, Some(i));
            assert_ne!(lexed_key(&flipped), key, "{}\nflipped: {}", text, flipped);
            assert_ne!(
                QueryShape(&parse_query(&flipped).unwrap()).to_string(),
                QueryShape(&parse_query(text).unwrap()).to_string(),
                "{}\nflipped: {}",
                text,
                flipped
            );
            pool.push(flipped);
        }
    }
    let mut shapes: HashMap<String, (String, String)> = HashMap::new();
    for text in &pool {
        let key = lexed_key(text);
        let shape = QueryShape(&parse_query(text).unwrap()).to_string();
        let (first, seen) = shapes.entry(key).or_insert_with(|| (text.clone(), shape.clone()));
        assert_eq!(*seen, shape, "one key, two shapes:\n{}\n{}", first, text);
    }
    shapes.len()
}
