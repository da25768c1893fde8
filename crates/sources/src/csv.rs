//! The flat-file adapter: CSV with quoting and schema inference.

use crate::capabilities::Capabilities;
use crate::error::SourceError;
use crate::query::{CollectionInfo, KeyFilter, RowsBuilder, SourceQuery};
use crate::{SourceAdapter, SourceKind};
use nimble_xml::{Atomic, AtomicType, Document};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One parsed CSV file: a header and typed rows.
struct CsvFile {
    fields: Vec<(String, AtomicType)>,
    rows: Vec<Vec<Atomic>>,
}

/// A set of named CSV collections. Selections and projections are
/// evaluated in the adapter (a file gateway can filter while reading);
/// joins are not.
pub struct CsvAdapter {
    name: String,
    files: BTreeMap<String, CsvFile>,
}

/// Parse CSV text: first record is the header; fields may be quoted with
/// `"` (doubled to escape); embedded newlines inside quotes survive.
pub fn parse_csv(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>), String> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err("unterminated quoted field".to_string());
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    // Drop trailing blank lines.
    records.retain(|r| !(r.len() == 1 && r[0].is_empty()));
    if records.is_empty() {
        return Err("empty CSV".to_string());
    }
    let header = records.remove(0);
    for (i, r) in records.iter().enumerate() {
        if r.len() != header.len() {
            return Err(format!(
                "row {} has {} fields, header has {}",
                i + 2,
                r.len(),
                header.len()
            ));
        }
    }
    Ok((header, records))
}

/// Infer a column type from sample values: all-int → Int, all-numeric →
/// Float, otherwise Str.
fn infer_type(values: &[&str]) -> AtomicType {
    let mut all_int = true;
    let mut all_num = true;
    let mut any = false;
    for v in values {
        let t = v.trim();
        if t.is_empty() {
            continue;
        }
        any = true;
        if t.parse::<i64>().is_err() {
            all_int = false;
        }
        if t.parse::<f64>().is_err() {
            all_num = false;
        }
    }
    if !any {
        AtomicType::Str
    } else if all_int {
        AtomicType::Int
    } else if all_num {
        AtomicType::Float
    } else {
        AtomicType::Str
    }
}

fn typed(value: &str, ty: AtomicType) -> Atomic {
    let t = value.trim();
    if t.is_empty() {
        return Atomic::Null;
    }
    match ty {
        AtomicType::Int => t
            .parse::<i64>()
            .map(Atomic::Int)
            .unwrap_or_else(|_| Atomic::Sym(nimble_xml::Sym::intern(value))),
        AtomicType::Float => t
            .parse::<f64>()
            .map(Atomic::Float)
            .unwrap_or_else(|_| Atomic::Sym(nimble_xml::Sym::intern(value))),
        _ => Atomic::Sym(nimble_xml::Sym::intern(value)),
    }
}

impl CsvAdapter {
    pub fn new(name: &str) -> CsvAdapter {
        CsvAdapter {
            name: name.to_string(),
            files: BTreeMap::new(),
        }
    }

    /// Parse CSV text and register it as a collection; column types are
    /// inferred from the data.
    pub fn add_csv(mut self, collection: &str, text: &str) -> Result<CsvAdapter, SourceError> {
        let (header, raw_rows) =
            parse_csv(text).map_err(|e| SourceError::query(&self.name, e))?;
        let mut fields = Vec::with_capacity(header.len());
        for (ci, name) in header.iter().enumerate() {
            let sample: Vec<&str> = raw_rows.iter().map(|r| r[ci].as_str()).collect();
            fields.push((name.trim().to_string(), infer_type(&sample)));
        }
        let rows = raw_rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(ci, v)| typed(v, fields[ci].1))
                    .collect()
            })
            .collect();
        self.files
            .insert(collection.to_string(), CsvFile { fields, rows });
        Ok(self)
    }

    fn file(&self, name: &str) -> Result<&CsvFile, SourceError> {
        self.files
            .get(name)
            .ok_or_else(|| SourceError::query(&self.name, format!("no file {:?}", name)))
    }
}

impl SourceAdapter for CsvAdapter {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> SourceKind {
        SourceKind::FlatFile
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::select_project()
    }

    fn collections(&self) -> Vec<CollectionInfo> {
        self.files
            .iter()
            .map(|(name, f)| CollectionInfo {
                name: name.clone(),
                fields: f.fields.clone(),
                estimated_rows: Some(f.rows.len() as u64),
            })
            .collect()
    }

    fn execute(&self, query: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        if query.collections.len() != 1 || !query.join_conds.is_empty() {
            return Err(SourceError::query(&self.name, "flat file cannot join"));
        }
        let f = self.file(&query.collections[0].collection)?;
        let field_idx = |name: &str| -> Result<usize, SourceError> {
            f.fields
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| SourceError::query(&self.name, format!("no field {:?}", name)))
        };
        // Resolve the restricted fields once, so an unknown one is an
        // error whatever the rows hold.
        for (field, _) in &query.key_sets {
            field_idx(&field.field)?;
        }
        let keys = KeyFilter::new(query);
        let mut out = RowsBuilder::new();
        'rows: for row in &f.rows {
            for sel in &query.selections {
                let v = &row[field_idx(&sel.field.field)?];
                if !sel.op.eval(v, &sel.value) {
                    continue 'rows;
                }
            }
            let in_keys = keys.admits(|field| {
                field_idx(&field.field).map_or(Atomic::Null, |i| row[i].clone())
            });
            if !in_keys {
                continue;
            }
            if query.limit.is_some_and(|n| out.len() >= n) {
                break;
            }
            let mut fields: Vec<(&str, Atomic)> = Vec::with_capacity(query.outputs.len());
            for (name, fr) in &query.outputs {
                fields.push((name.as_str(), row[field_idx(&fr.field)?].clone()));
            }
            out.row(&fields);
        }
        Ok(out.finish())
    }

    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        let f = self.file(name)?;
        let mut out = RowsBuilder::with_capacity(f.rows.len(), f.fields.len());
        for row in &f.rows {
            let fields: Vec<(&str, Atomic)> = f
                .fields
                .iter()
                .zip(row.iter())
                .map(|((n, _), v)| (n.as_str(), v.clone()))
                .collect();
            out.row(&fields);
        }
        Ok(out.finish())
    }

    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.files.get(collection).map(|f| f.rows.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{rows_of, row_field, PredOp};

    const LEADS: &str = "name,company,score\n\
        \"Doe, Jane\",Acme,9\n\
        John Smith,\"Quote\"\"Co\",3\n\
        Empty Person,,7\n";

    #[test]
    fn csv_parsing_with_quotes() {
        let (header, rows) = parse_csv(LEADS).unwrap();
        assert_eq!(header, vec!["name", "company", "score"]);
        assert_eq!(rows[0][0], "Doe, Jane");
        assert_eq!(rows[1][1], "Quote\"Co");
        assert_eq!(rows[2][1], "");
    }

    #[test]
    fn csv_errors() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("a,b\n1\n").is_err());
        assert!(parse_csv("a\n\"unterminated").is_err());
    }

    #[test]
    fn type_inference_and_nulls() {
        let a = CsvAdapter::new("files").add_csv("leads", LEADS).unwrap();
        let info = &a.collections()[0];
        assert_eq!(info.fields[2], ("score".to_string(), AtomicType::Int));
        let doc = a.fetch_collection("leads").unwrap();
        let rows = rows_of(&doc);
        assert_eq!(row_field(&rows[0], "score"), Atomic::Int(9));
        assert_eq!(row_field(&rows[2], "company"), Atomic::Null);
    }

    #[test]
    fn execute_with_selection_and_limit() {
        let a = CsvAdapter::new("files").add_csv("leads", LEADS).unwrap();
        let q = SourceQuery::scan("leads", &[("who", "name")])
            .with_selection("score", PredOp::Ge, Atomic::Int(7));
        let doc = a.execute(&q).unwrap();
        assert_eq!(rows_of(&doc).len(), 2);

        let mut q = SourceQuery::scan("leads", &[("who", "name")]);
        q.limit = Some(1);
        assert_eq!(rows_of(&a.execute(&q).unwrap()).len(), 1);
    }

    #[test]
    fn key_set_filters_beside_selections() {
        let a = CsvAdapter::new("files").add_csv("leads", LEADS).unwrap();
        let keys: Arc<[Atomic]> = vec![Atomic::Int(9), Atomic::Float(3.0)].into();
        let field = crate::query::FieldRef::new("t", "score");
        let q = SourceQuery::scan("leads", &[("who", "name")]).with_key_set(field.clone(), keys);
        assert_eq!(rows_of(&a.execute(&q).unwrap()).len(), 2);
        let q = q.with_selection("score", PredOp::Ge, Atomic::Int(7));
        assert_eq!(rows_of(&a.execute(&q).unwrap()).len(), 1);
        // A null field is in no key set; an unknown field is an error.
        let blank: Arc<[Atomic]> = vec![Atomic::Str("".into())].into();
        let q = SourceQuery::scan("leads", &[("who", "name")])
            .with_key_set(crate::query::FieldRef::new("t", "company"), blank.clone());
        assert!(rows_of(&a.execute(&q).unwrap()).is_empty());
        let q = SourceQuery::scan("leads", &[("who", "name")])
            .with_key_set(crate::query::FieldRef::new("t", "nope"), blank);
        assert!(a.execute(&q).is_err());
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let (_, rows) = parse_csv("a,b\n\"line1\nline2\",x\n").unwrap();
        assert_eq!(rows[0][0], "line1\nline2");
    }
}
