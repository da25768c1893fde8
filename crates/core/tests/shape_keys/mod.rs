//! The plan-cache key against its reference: a text's key
//! (`nimble_xmlql::parse_keyed`, cut from the text) may be shared only by
//! texts whose parsed queries print the same `QueryShape`, and a
//! parameter spelled in another type moves both.

use nimble_xmlql::{parse_keyed, parse_query, QueryShape};
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

/// Over `texts` and every text their keys respell: equal keys ⇒ equal
/// shapes, and flipping one parameter's type moves the key and the
/// shape. Returns how many keys were compared.
pub fn keys_partition_like_shapes(texts: &[String]) -> usize {
    let mut pool: Vec<String> = texts.to_vec();
    for text in texts {
        let (_, key) = parse_keyed(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
        let params = parse_query(text).unwrap().eq_params().len();
        pool.push(respell(&key, None));
        for i in 0..params {
            let flipped = respell(&key, Some(i));
            let (query, flipped_key) = parse_keyed(&flipped).unwrap_or_else(|e| panic!("{}: {}", flipped, e));
            assert_ne!(flipped_key, key, "{}\nflipped: {}", text, flipped);
            assert_ne!(
                QueryShape(&query).to_string(),
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
        let (query, key) = parse_keyed(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
        let shape = QueryShape(&query).to_string();
        let (first, seen) = shapes.entry(key).or_insert_with(|| (text.clone(), shape.clone()));
        assert_eq!(*seen, shape, "one key, two shapes:\n{}\n{}", first, text);
    }
    shapes.len()
}
