//! Pretty-printing queries back to XML-QL text.
//!
//! `Display` for [`Query`] produces canonical text that re-parses to the
//! same AST (`parse ∘ display = id`, checked by a property test). Used
//! for logging, EXPLAIN output, and storing view definitions
//! canonically.

use crate::ast::*;
use std::fmt::{self, Write};

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_query(self, f, false)
    }
}

/// `Display`s a query with every equality parameter
/// ([`Query::eq_params`]) lifted out: `($i = 42)` prints as
/// `($i = ?int)`, everything else as [`Query`] prints it. Two queries
/// print alike exactly when they are one AST up to those values — the
/// type and the orientation stay. It is not XML-QL: `?` lexes nowhere,
/// so no query's own spelling is another's shape. The plan cache's key
/// is cut from the text instead ([`crate::parse_keyed`]), without
/// printing the parsed query; this print is the reference the tests
/// hold that key to.
pub struct QueryShape<'a>(pub &'a Query);

impl fmt::Display for QueryShape<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_query(self.0, f, true)
    }
}

fn write_query(q: &Query, f: &mut fmt::Formatter<'_>, lifted: bool) -> fmt::Result {
    f.write_str("WHERE ")?;
    for (i, c) in q.conditions.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        match c {
            Condition::Pattern(pb) => {
                write!(f, "{}", pb.pattern)?;
                match &pb.source {
                    SourceRef::Named(n) => write!(f, " IN \"{}\"", n)?,
                    SourceRef::Var(v) => write!(f, " IN ${}", v)?,
                }
            }
            Condition::Predicate(e) => match e.eq_param().filter(|_| lifted) {
                Some(a) => write_lifted(e, a, f)?,
                None => write!(f, "{}", e)?,
            },
        }
    }
    write!(f, " CONSTRUCT {}", q.construct)?;
    if !q.order_by.is_empty() {
        f.write_str(" ORDER-BY ")?;
        for (i, k) in q.order_by.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "${}", k.var)?;
            if k.descending {
                f.write_str(" DESC")?;
            }
        }
    }
    Ok(())
}

/// An equality parameter as [`Expr`] prints it, its literal `a`
/// replaced by a placeholder naming the literal's type.
fn write_lifted(e: &Expr, a: &nimble_xml::Atomic, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let slot = crate::parser::placeholder(a.atomic_type());
    match e {
        Expr::Binary(op, l, _) if matches!(**l, Expr::Var(_)) => write!(f, "({} {} {})", l, op, slot),
        Expr::Binary(op, _, r) => write!(f, "({} {} {})", slot, op, r),
        other => write!(f, "{}", other),
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('<')?;
        match &self.tag {
            TagPattern::Name(n) => f.write_str(n)?,
            TagPattern::Wildcard => f.write_char('*')?,
            TagPattern::Descendant(n) => write!(f, "**{}", n)?,
            TagPattern::ClosurePlus(n) => write!(f, "{}+", n)?,
        }
        for a in &self.attrs {
            write!(f, " {}={}", a.name, a.value)?;
        }
        if self.content.is_empty() {
            f.write_str("/>")?;
        } else {
            f.write_char('>')?;
            for (i, c) in self.content.iter().enumerate() {
                if i > 0 {
                    f.write_char(' ')?;
                }
                match c {
                    PatternContent::Var(v) => write!(f, "${}", v)?,
                    PatternContent::Lit(a) => write!(f, "{}", lit(a))?,
                    PatternContent::Nested(p) => write!(f, "{}", p)?,
                }
            }
            f.write_str("</>")?;
        }
        if let Some(v) = &self.element_as {
            write!(f, " ELEMENT_AS ${}", v)?;
        }
        if let Some(v) = &self.content_as {
            write!(f, " CONTENT_AS ${}", v)?;
        }
        Ok(())
    }
}

impl fmt::Display for PatternValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternValue::Var(v) => write!(f, "${}", v),
            PatternValue::Lit(a) => f.write_str(&lit(a)),
        }
    }
}

/// Render an atomic as an XML-QL literal token.
fn lit(a: &nimble_xml::Atomic) -> String {
    use nimble_xml::Atomic;
    match a {
        Atomic::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Atomic::Sym(s) => {
            let s = s.as_str();
            format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
        }
        Atomic::Int(i) => i.to_string(),
        Atomic::Float(x) => nimble_xml::atomic::float_literal(*x),
        Atomic::Bool(b) => b.to_string(),
        Atomic::Null => "null".to_string(),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "${}", v),
            Expr::Lit(a) => f.write_str(&lit(a)),
            // Fully parenthesized so precedence survives the round trip.
            Expr::Binary(op, l, r) => write!(f, "({} {} {})", l, op, r),
            Expr::Not(e) => write!(f, "(NOT {})", e),
            // The space keeps the `-` an operator: `(-5)` would re-lex
            // as the literal −5.
            Expr::Neg(e) => write!(f, "(- {})", e),
            Expr::Call(name, args) => {
                write!(f, "{}(", name)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}", a)?;
                }
                f.write_char(')')
            }
        }
    }
}

impl fmt::Display for ElementTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}", self.tag)?;
        if let Some(sk) = &self.skolem {
            write!(f, " ID={}(", sk.func)?;
            for (i, a) in sk.args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "${}", a)?;
            }
            f.write_char(')')?;
        }
        for (name, value) in &self.attrs {
            match value {
                TemplateValue::Var(v) => write!(f, " {}=${}", name, v)?,
                TemplateValue::Lit(s) => write!(
                    f,
                    " {}=\"{}\"",
                    name,
                    s.replace('\\', "\\\\").replace('"', "\\\"")
                )?,
            }
        }
        if self.children.is_empty() {
            return f.write_str("/>");
        }
        f.write_char('>')?;
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                f.write_char(' ')?;
            }
            match c {
                TemplateNode::Element(e) => write!(f, "{}", e)?,
                TemplateNode::Var(v) => write!(f, "${}", v)?,
                TemplateNode::Text(s) => write!(
                    f,
                    "\"{}\"",
                    s.replace('\\', "\\\\").replace('"', "\\\"")
                )?,
                TemplateNode::Subquery(q) => write!(f, "{{ {} }}", q)?,
                TemplateNode::Agg { func, var } => {
                    let name = match func {
                        AggName::Count => "count",
                        AggName::Sum => "sum",
                        AggName::Min => "min",
                        AggName::Max => "max",
                        AggName::Avg => "avg",
                        AggName::Collect => "collect",
                    };
                    match var {
                        Some(v) => write!(f, "{}(${})", name, v)?,
                        None => write!(f, "{}()", name)?,
                    }
                }
            }
        }
        write!(f, "</{}>", self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::QueryShape;
    use crate::ast::{Condition, Expr};
    use crate::parse_query;
    use nimble_xml::Atomic;

    fn shape(text: &str) -> String {
        QueryShape(&parse_query(text).unwrap()).to_string()
    }

    #[test]
    fn shape_lifts_equality_parameters_and_nothing_else() {
        let q = |tail: &str| {
            format!(
                r#"WHERE <row><id>$i</id><n>$n</n></row> IN "c", {} CONSTRUCT <o>$n</o>"#,
                tail
            )
        };
        // One shape for every value, spacing and comment; the type and
        // the orientation stay in it.
        let base = shape(&q("$i = 42"));
        assert!(base.contains("($i = ?int)"), "{}", base);
        assert_eq!(base, shape(&q("$i   =  7 # a comment\n")));
        assert_eq!(base, shape(&q("$i = -42")));
        for other in ["$i = 42.0", r#"$i = "42""#, "$i = true", "42 = $i", "$i = null"] {
            assert_ne!(base, shape(&q(other)), "{}", other);
        }
        assert!(shape(&q("4.5 = $i")).contains("(?float = $i)"));
        assert_eq!(shape(&q(r#"$n = "a b""#)), shape(&q(r#"$n = "it's \"x\"""#)));
        // Ranges, other operators, compound predicates, pattern literals
        // and nested subqueries keep their literals.
        for kept in [
            "$i > 42",
            "$i != 42",
            "$i = 42 AND $n = \"x\"",
            "$i = 40 + 2",
            "NOT $i = 42",
            // A negation of a literal, to the parser and so to pushdown:
            // a `-` is a sign only hard against its digits.
            "$i = - 42",
            // Text that reads as a number: a source would compare it as
            // text, the mediator as a number.
            r#"$n = " 42 ""#,
        ] {
            let text = q(kept);
            assert_eq!(shape(&text), parse_query(&text).unwrap().to_string(), "{}", kept);
            assert!(parse_query(&text).unwrap().eq_params().is_empty());
        }
        let nested = r#"WHERE <row><id>$i</id><r>"NW"</r></row> IN "c", $i = 1
                        CONSTRUCT <o>{ WHERE <x>$y</x> IN "d", $y = 5 CONSTRUCT <p>$y</p> }</o>"#;
        let printed = shape(nested);
        assert!(printed.contains("($i = ?int)") && printed.contains("($y = 5)"), "{}", printed);
        assert!(printed.contains(r#"<r>"NW"</>"#), "{}", printed);
        // Parameters come back in the order their placeholders print.
        let two = parse_query(&q(r#"$i = 5, "x" = $n, $i = 6"#)).unwrap();
        assert_eq!(
            two.eq_params(),
            [&Atomic::Int(5), &Atomic::Str("x".into()), &Atomic::Int(6)]
        );
        assert!(shape(&q(r#"$i = 5, "x" = $n, $i = 6"#))
            .contains("($i = ?int), (?str = $n), ($i = ?int)"));
    }

    #[test]
    fn a_shape_key_is_the_text_with_each_parameter_cut_to_its_type() {
        let key = |text: &str| crate::parse_keyed(text).unwrap().1.key.into_owned();
        let q = |tail: &str| {
            format!(
                r#"WHERE <row><id>$i</id><n>$n</n></row> IN "c", {} CONSTRUCT <o>$n</o>"#,
                tail
            )
        };
        assert_eq!(key(&q("$i = 42")), q("$i = ?int"));
        assert_eq!(key(&q("$i = 42")), key(&q("$i = -7")));
        assert_eq!(key(&q(r#""a \"b\"" = $n"#)), q("?str = $n"));
        assert_eq!(key(&q("$n = true, $i = 4.5")), q("$n = ?bool, $i = ?float"));
        // What the shape keeps, the key keeps: types, orientation, every
        // literal that is not an equality parameter's.
        let base = key(&q("$i = 42"));
        for other in ["$i = 42.0", r#"$i = "42""#, "42 = $i", "$i = null", "$i = - 42", "$i > 42"] {
            assert_ne!(base, key(&q(other)), "{}", other);
        }
        let nested = r#"WHERE <row><id>$i</id><r>"NW"</r></row> IN "c", ($i = 1)
                        CONSTRUCT <o>{ WHERE <x>$y</x> IN "d", $y = 5 CONSTRUCT <p>$y</p> }</o>"#;
        assert_eq!(key(nested), nested.replacen("1", "?int", 1));
        // A text without parameters is its own key; another spelling of
        // one shape is another key.
        let plain = q("$i > 42");
        assert_eq!(key(&plain), plain);
        assert_ne!(base, key(&q("$i  =  42")));
        assert_eq!(shape(&q("$i = 42")), shape(&q("$i  =  42")));
    }

    #[test]
    fn eq_param_mut_writes_the_literal_eq_param_reads() {
        let mut q = parse_query(r#"WHERE <a>$x</a> IN "c", 5 = $x CONSTRUCT <o/>"#).unwrap();
        let Condition::Predicate(e) = &mut q.conditions[1] else {
            panic!()
        };
        *e.eq_param_mut().unwrap() = Atomic::Int(9);
        assert_eq!(e.eq_param(), Some(&Atomic::Int(9)));
        assert_eq!(e.to_string(), "(9 = $x)");
        assert!(Expr::Var("x".into()).eq_param_mut().is_none());
    }

    /// Every float prints as a literal the lexer reads back to the same
    /// bits — `{:?}` switched to exponent form below 1e-5 and from 1e16,
    /// which the lexer does not read.
    #[test]
    fn float_literals_roundtrip_bit_identically() {
        let mut sweep = vec![
            1e-7,
            1e-5,
            0.000001,
            1e15,
            1e16,
            10000000000000000.0,
            1.2345678901234567e19,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            0.1 + 0.2,
            -1e-7,
            -1e21,
            5e-324,
        ];
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = f64::from_bits(x);
            if f.is_finite() {
                sweep.push(f);
            }
        }
        for f in sweep {
            // In an expression `-x` parses as a negation, so the sign is
            // tested where a literal carries it: a pattern.
            let text = format!(
                r#"WHERE <a>{}</a> IN "c" CONSTRUCT <o/>"#,
                nimble_xml::atomic::float_literal(f)
            );
            let ast = parse_query(&text).unwrap_or_else(|e| panic!("{:e}: {}\n{}", f, e, text));
            let reparsed = parse_query(&ast.to_string()).unwrap();
            assert_eq!(reparsed, ast);
            let Condition::Pattern(pb) = &reparsed.conditions[0] else {
                panic!()
            };
            match pb.pattern.content[0] {
                crate::ast::PatternContent::Lit(Atomic::Float(back)) => {
                    assert_eq!(back.to_bits(), f.to_bits(), "{:e} came back {:e}", f, back)
                }
                ref other => panic!("{:e} parsed as {:?}", f, other),
            }
        }
    }

    /// parse(display(parse(q))) == parse(q) across the dialect surface.
    #[test]
    fn display_roundtrips() {
        let queries = [
            r#"WHERE <bib><book year=$y><title>$t</title></book></bib> IN "books",
               $y > 1995 AND contains(lower($t), "x")
               CONSTRUCT <r><t>$t</t></r> ORDER-BY $y DESC, $t"#,
            r#"WHERE <row lang="en" n=2><a>$x</a></row> IN "s", NOT $x = 1 OR -$x < 3
               CONSTRUCT <o ID=F($x)><v>$x</v><n>count()</n><s>sum($x)</s></o>"#,
            r#"WHERE <**leaf>$v</> ELEMENT_AS $e CONTENT_AS $c IN "d",
                     <part+>$p</> IN $e
               CONSTRUCT <out kind="x">$v "lit"
                  WHERE <i>$q</i> IN $e CONSTRUCT <q>$q</q>
               </out>"#,
            r#"WHERE <a><b>"text"</b><c>3.5</c></a> IN "d" CONSTRUCT <o/>"#,
        ];
        for q in queries {
            let ast = parse_query(q).unwrap();
            let printed = ast.to_string();
            let reparsed = parse_query(&printed)
                .unwrap_or_else(|e| panic!("printed form failed to parse: {}\n{}", e, printed));
            assert_eq!(reparsed, ast, "round trip changed AST for:\n{}", printed);
        }
    }
}
