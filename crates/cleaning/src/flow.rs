//! Declarative cleaning flows.
//!
//! "We use a declarative representation of the flow" (after Galhardas et
//! al., the paper's reference 7): a [`CleaningFlow`] is data — a named sequence
//! of steps — serializable as JSON so flows can be stored by the
//! management tools, versioned, and shipped between deployments. "It
//! will be easy to add new data sources to an existing flow": a flow is
//! applied per record set, so adding a source means running the same
//! flow over it.

use crate::lineage::{LineageLog, LineageOp};
use crate::normalize;
use crate::record::RecordSet;
use nimble_trace::json::{self, Value};

/// One declarative step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowStep {
    /// Apply a named normalizer to a field in place.
    Normalize { field: String, normalizer: String },
    /// Split a single-field address into `number/street/city/state/zip`
    /// fields (the translation problem, A→B direction).
    SplitAddress { field: String },
    /// Merge several fields into one with a separator (B→A direction).
    MergeFields {
        inputs: Vec<String>,
        output: String,
        separator: String,
    },
    /// Copy a field under a new name (before destructive normalization).
    Copy { from: String, to: String },
    /// Drop records whose field is empty.
    RequireField { field: String },
}

impl FlowStep {
    /// The step as it is stored: the `op` tag, then the variant's fields
    /// in declaration order.
    fn wire_fields(&self) -> Vec<(&'static str, Value)> {
        let s = |v: &String| Value::from(v.as_str());
        match self {
            FlowStep::Normalize { field, normalizer } => vec![
                ("op", "normalize".into()),
                ("field", s(field)),
                ("normalizer", s(normalizer)),
            ],
            FlowStep::SplitAddress { field } => {
                vec![("op", "split_address".into()), ("field", s(field))]
            }
            FlowStep::MergeFields {
                inputs,
                output,
                separator,
            } => vec![
                ("op", "merge_fields".into()),
                ("inputs", inputs.clone().into()),
                ("output", s(output)),
                ("separator", s(separator)),
            ],
            FlowStep::Copy { from, to } => {
                vec![("op", "copy".into()), ("from", s(from)), ("to", s(to))]
            }
            FlowStep::RequireField { field } => {
                vec![("op", "require_field".into()), ("field", s(field))]
            }
        }
    }

    fn from_wire(step: &Value) -> Result<FlowStep, String> {
        if step.as_object().is_none() {
            return Err("expected an object".into());
        }
        let text = |field: &str| {
            let v = step.get(field).and_then(Value::as_str);
            v.map(str::to_string).ok_or_else(|| format!("{:?}: expected a string", field))
        };
        Ok(match text("op")?.as_str() {
            "normalize" => FlowStep::Normalize {
                field: text("field")?,
                normalizer: text("normalizer")?,
            },
            "split_address" => FlowStep::SplitAddress {
                field: text("field")?,
            },
            "merge_fields" => FlowStep::MergeFields {
                inputs: step
                    .get("inputs")
                    .and_then(Value::as_array)
                    .and_then(|a| a.iter().map(|v| v.as_str().map(str::to_string)).collect())
                    .ok_or("\"inputs\": expected an array of strings")?,
                output: text("output")?,
                separator: text("separator")?,
            },
            "copy" => FlowStep::Copy {
                from: text("from")?,
                to: text("to")?,
            },
            "require_field" => FlowStep::RequireField {
                field: text("field")?,
            },
            other => return Err(format!("unknown \"op\" {:?}", other)),
        })
    }
}

/// A named, ordered cleaning flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CleaningFlow {
    pub name: String,
    pub steps: Vec<FlowStep>,
}

/// Errors applying a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowError(pub String);

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cleaning flow error: {}", self.0)
    }
}
impl std::error::Error for FlowError {}

impl CleaningFlow {
    pub fn new(name: &str) -> CleaningFlow {
        CleaningFlow {
            name: name.to_string(),
            steps: Vec::new(),
        }
    }

    /// Builder-style step appender.
    pub fn step(mut self, step: FlowStep) -> CleaningFlow {
        self.steps.push(step);
        self
    }

    /// Serialize to JSON (the storable representation): `{"name": …,
    /// "steps": [{"op": "merge_fields", "inputs": […], …}, …]}`, each step
    /// tagged by its snake_case `op` with its fields in declaration order,
    /// two-space indented.
    pub fn to_json(&self) -> String {
        let name = Value::from(self.name.as_str());
        let mut out = format!("{{\n  \"name\": {},\n  \"steps\": [", name);
        for (i, step) in self.steps.iter().enumerate() {
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            for (j, (key, value)) in step.wire_fields().iter().enumerate() {
                let comma = if j == 0 { "" } else { "," };
                out.push_str(&format!("{}\n      \"{}\": {}", comma, key, value.to_pretty_at(3)));
            }
            out.push_str("\n    }");
        }
        let close = if self.steps.is_empty() { "]\n}" } else { "\n  ]\n}" };
        out + close
    }

    /// Load from JSON. Members this version does not know are ignored; a
    /// missing or mistyped one is an error naming the step and the field.
    pub fn from_json(text: &str) -> Result<CleaningFlow, FlowError> {
        let doc = json::from_str(text).map_err(|e| FlowError(e.to_string()))?;
        let name = doc.get("name").and_then(Value::as_str);
        let name = name.ok_or_else(|| FlowError("\"name\": expected a string".into()))?;
        let steps = doc.get("steps").and_then(Value::as_array);
        let steps = steps.ok_or_else(|| FlowError("\"steps\": expected an array".into()))?;
        let steps = steps.iter().enumerate().map(|(i, step)| {
            FlowStep::from_wire(step).map_err(|e| FlowError(format!("steps[{}]: {}", i, e)))
        });
        Ok(CleaningFlow {
            name: name.to_string(),
            steps: steps.collect::<Result<_, _>>()?,
        })
    }

    /// Apply the flow to a record set in place, logging every change.
    pub fn apply(&self, records: &mut RecordSet, log: &mut LineageLog) -> Result<(), FlowError> {
        for step in &self.steps {
            match step {
                FlowStep::Normalize { field, normalizer } => {
                    let n = normalize::by_name(normalizer).ok_or_else(|| {
                        FlowError(format!("unknown normalizer {:?}", normalizer))
                    })?;
                    for r in records.iter_mut() {
                        if !r.has(field) {
                            continue;
                        }
                        let before = r.get(field).to_string();
                        let after = n.normalize(&before);
                        if after != before {
                            log.record(
                                LineageOp::Normalize {
                                    record: r.id.clone(),
                                    field: field.clone(),
                                    before,
                                    after: after.clone(),
                                },
                                "system",
                            );
                            r.set(field, after);
                        }
                    }
                }
                FlowStep::SplitAddress { field } => {
                    for r in records.iter_mut() {
                        if !r.has(field) {
                            continue;
                        }
                        let parsed = normalize::parse_address(r.get(field));
                        r.set("number", parsed.number);
                        r.set("street", parsed.street);
                        r.set("city", parsed.city);
                        r.set("state", parsed.state);
                        r.set("zip", parsed.zip);
                    }
                }
                FlowStep::MergeFields {
                    inputs,
                    output,
                    separator,
                } => {
                    for r in records.iter_mut() {
                        let merged = inputs
                            .iter()
                            .map(|f| r.get(f))
                            .filter(|v| !v.is_empty())
                            .collect::<Vec<_>>()
                            .join(separator);
                        r.set(output, merged);
                    }
                }
                FlowStep::Copy { from, to } => {
                    for r in records.iter_mut() {
                        let v = r.get(from).to_string();
                        r.set(to, v);
                    }
                }
                FlowStep::RequireField { field } => {
                    records.retain(|r| r.has(field));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn dirty() -> RecordSet {
        vec![
            Record::new("a:1", "a")
                .with("name", "LOVELACE,   Ada")
                .with("addr", "123 Main St, Seattle, WA 98101"),
            Record::new("a:2", "a").with("name", "").with("addr", "1 Oak Ave, Portland, OR"),
        ]
    }

    fn flow() -> CleaningFlow {
        CleaningFlow::new("standardize_people")
            .step(FlowStep::Copy {
                from: "name".into(),
                to: "raw_name".into(),
            })
            .step(FlowStep::Normalize {
                field: "name".into(),
                normalizer: "name".into(),
            })
            .step(FlowStep::SplitAddress {
                field: "addr".into(),
            })
            .step(FlowStep::MergeFields {
                inputs: vec!["city".into(), "state".into()],
                output: "region".into(),
                separator: ", ".into(),
            })
            .step(FlowStep::RequireField {
                field: "name".into(),
            })
    }

    #[test]
    fn flow_applies_in_order() {
        let mut rs = dirty();
        let mut log = LineageLog::new();
        flow().apply(&mut rs, &mut log).unwrap();
        // Record 2 dropped by RequireField.
        assert_eq!(rs.len(), 1);
        let r = &rs[0];
        assert_eq!(r.get("name"), "ada lovelace");
        assert_eq!(r.get("raw_name"), "LOVELACE,   Ada");
        assert_eq!(r.get("city"), "seattle");
        assert_eq!(r.get("region"), "seattle, wa");
        // Normalization was logged with before/after.
        assert!(log
            .entries()
            .iter()
            .any(|e| matches!(&e.op, LineageOp::Normalize { before, .. } if before.contains("LOVELACE"))));
    }

    #[test]
    fn json_roundtrip() {
        let f = flow();
        let json = f.to_json();
        let back = CleaningFlow::from_json(&json).unwrap();
        assert_eq!(back, f);
        assert!(CleaningFlow::from_json("{bad json").is_err());
        // Awkward strings and the empty shapes survive too.
        let odd = CleaningFlow::new("q\"\\\n\u{1}é😀").step(FlowStep::MergeFields {
            inputs: vec![],
            output: String::new(),
            separator: "\t".into(),
        });
        assert_eq!(CleaningFlow::from_json(&odd.to_json()).unwrap(), odd);
        let empty = CleaningFlow::new("");
        assert_eq!(empty.to_json(), "{\n  \"name\": \"\",\n  \"steps\": []\n}");
        assert_eq!(CleaningFlow::from_json(&empty.to_json()).unwrap(), empty);
    }

    /// The stored form, exactly as `serde_json::to_string_pretty` spelled
    /// it when the format was derived: flows written by earlier versions
    /// load, and what this version writes is byte-identical.
    const GOLDEN: &str = r#"{
  "name": "standardize_people",
  "steps": [
    {
      "op": "copy",
      "from": "name",
      "to": "raw_name"
    },
    {
      "op": "normalize",
      "field": "name",
      "normalizer": "name"
    },
    {
      "op": "split_address",
      "field": "addr"
    },
    {
      "op": "merge_fields",
      "inputs": [
        "city",
        "state"
      ],
      "output": "region",
      "separator": ", "
    },
    {
      "op": "require_field",
      "field": "name"
    }
  ]
}"#;

    #[test]
    fn json_wire_format_is_pinned() {
        assert_eq!(CleaningFlow::from_json(GOLDEN).unwrap(), flow());
        assert_eq!(flow().to_json(), GOLDEN);
        // Compact spelling, reordered members and members this version
        // does not know load to the same flow.
        let compact =
            r#"{"steps":[{"field":"name","op":"require_field","since":2}],"name":"x","v":1}"#;
        let want = CleaningFlow::new("x").step(FlowStep::RequireField {
            field: "name".into(),
        });
        assert_eq!(CleaningFlow::from_json(compact).unwrap(), want);
    }

    #[test]
    fn json_errors_name_the_step_and_the_field() {
        let expect = |text: &str, want: &str| {
            let got = CleaningFlow::from_json(text);
            assert_eq!(got, Err(FlowError(want.to_string())), "{}", text);
        };
        expect("[]", "\"name\": expected a string");
        expect(r#"{"name": 1, "steps": []}"#, "\"name\": expected a string");
        expect(r#"{"name": "x"}"#, "\"steps\": expected an array");
        expect(r#"{"name": "x", "steps": {}}"#, "\"steps\": expected an array");
        expect(r#"{"name": "x", "steps": []"#, "expected ',' or the closing bracket at byte 25");
        // (steps, error)
        let cases = [
            ("7", "steps[0]: expected an object"),
            ("{}", "steps[0]: \"op\": expected a string"),
            (
                r#"{"op": "copy", "from": "a", "to": "b"}, {"op": "explode"}"#,
                "steps[1]: unknown \"op\" \"explode\"",
            ),
            (r#"{"op": "Copy", "from": "a", "to": "b"}"#, "steps[0]: unknown \"op\" \"Copy\""),
            (r#"{"op": "copy", "from": "a"}"#, "steps[0]: \"to\": expected a string"),
            (
                r#"{"op": "normalize", "field": null, "normalizer": "n"}"#,
                "steps[0]: \"field\": expected a string",
            ),
            (
                r#"{"op": "merge_fields", "inputs": "a", "output": "o", "separator": ""}"#,
                "steps[0]: \"inputs\": expected an array of strings",
            ),
            (
                r#"{"op": "merge_fields", "inputs": ["a", 1], "output": "o", "separator": ""}"#,
                "steps[0]: \"inputs\": expected an array of strings",
            ),
        ];
        for (steps, want) in cases {
            expect(&format!(r#"{{"name": "x", "steps": [{}]}}"#, steps), want);
        }
        // A bomb from outside is an error, not a stack overflow.
        let bomb = format!("{{\"name\": \"x\", \"steps\": {}", "[".repeat(100_000));
        let refused = CleaningFlow::from_json(&bomb).unwrap_err();
        assert!(refused.0.starts_with("nesting too deep"), "{}", refused);
    }

    #[test]
    fn unknown_normalizer_errors() {
        let f = CleaningFlow::new("x").step(FlowStep::Normalize {
            field: "name".into(),
            normalizer: "martian".into(),
        });
        let mut rs = dirty();
        let mut log = LineageLog::new();
        assert!(f.apply(&mut rs, &mut log).is_err());
    }
}
