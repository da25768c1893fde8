//! The hierarchical adapter: an IMS-style segment store.
//!
//! Legacy hierarchical databases organize records as trees of typed
//! *segments* reached by traversal from root segments — there is no join,
//! no aggregation, and queries are field filters over one segment type.
//! This adapter reproduces that limited capability so the mediator's
//! optimizer has a genuinely weak source to plan around, and exports the
//! whole hierarchy as XML (collection `"_tree"`), the natural fit the
//! paper notes between hierarchical data and a semi-structured model.

use crate::capabilities::Capabilities;
use crate::error::SourceError;
use crate::query::{CollectionInfo, KeyFilter, RowsBuilder, SourceQuery};
use crate::{SourceAdapter, SourceKind};
use nimble_xml::{Atomic, AtomicType, Document, DocumentBuilder};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One record of the hierarchy: a segment type, its fields, and child
/// segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    pub seg_type: String,
    pub fields: Vec<(String, Atomic)>,
    pub children: Vec<Segment>,
}

impl Segment {
    pub fn new(seg_type: &str, fields: Vec<(&str, Atomic)>) -> Segment {
        Segment {
            seg_type: seg_type.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            children: Vec::new(),
        }
    }

    pub fn with_children(mut self, children: Vec<Segment>) -> Segment {
        self.children = children;
        self
    }

    fn field(&self, name: &str) -> Atomic {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or(Atomic::Null)
    }
}

/// The name of the synthetic collection exporting the whole hierarchy as
/// one XML document.
pub const TREE_COLLECTION: &str = "_tree";

/// A hierarchical source: a forest of root segments.
pub struct HierarchicalAdapter {
    name: String,
    roots: Vec<Segment>,
}

impl HierarchicalAdapter {
    pub fn new(name: &str, roots: Vec<Segment>) -> HierarchicalAdapter {
        HierarchicalAdapter {
            name: name.to_string(),
            roots,
        }
    }

    /// Visit every segment depth-first.
    fn walk<'a>(&'a self, mut f: impl FnMut(&'a Segment)) {
        fn rec<'a>(seg: &'a Segment, f: &mut impl FnMut(&'a Segment)) {
            f(seg);
            for c in &seg.children {
                rec(c, f);
            }
        }
        for r in &self.roots {
            rec(r, &mut f);
        }
    }

    /// Segment-type inventory: type → (fields union, count).
    fn segment_types(&self) -> BTreeMap<String, (Vec<(String, AtomicType)>, u64)> {
        let mut out: BTreeMap<String, (Vec<(String, AtomicType)>, u64)> = BTreeMap::new();
        self.walk(|seg| {
            let entry = out
                .entry(seg.seg_type.clone())
                .or_insert_with(|| (Vec::new(), 0));
            entry.1 += 1;
            for (k, v) in &seg.fields {
                if !entry.0.iter().any(|(n, _)| n == k) {
                    entry.0.push((k.clone(), v.atomic_type()));
                }
            }
        });
        out
    }

    fn tree_document(&self) -> Arc<Document> {
        let mut b = DocumentBuilder::new(&self.name.clone());
        fn emit(b: &mut DocumentBuilder, seg: &Segment) {
            b.start_element(&seg.seg_type);
            for (k, v) in &seg.fields {
                b.leaf(k, v.clone());
            }
            for c in &seg.children {
                emit(b, c);
            }
            b.end_element();
        }
        for r in &self.roots {
            emit(&mut b, r);
        }
        b.finish()
    }
}

impl SourceAdapter for HierarchicalAdapter {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Hierarchical
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::select_project()
    }

    fn collections(&self) -> Vec<CollectionInfo> {
        let mut out: Vec<CollectionInfo> = self
            .segment_types()
            .into_iter()
            .map(|(name, (fields, count))| CollectionInfo {
                name,
                fields,
                estimated_rows: Some(count),
            })
            .collect();
        out.push(CollectionInfo {
            name: TREE_COLLECTION.to_string(),
            fields: Vec::new(),
            estimated_rows: Some(1),
        });
        out
    }

    fn execute(&self, query: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        if query.collections.len() != 1 || !query.join_conds.is_empty() {
            return Err(SourceError::query(
                &self.name,
                "hierarchical source cannot execute joins",
            ));
        }
        let seg_type = &query.collections[0].collection;
        let keys = KeyFilter::new(query);
        let mut out = RowsBuilder::new();
        let mut type_seen = false;
        self.walk(|seg| {
            if &seg.seg_type != seg_type {
                return;
            }
            type_seen = true;
            for sel in &query.selections {
                if !sel.op.eval(&seg.field(&sel.field.field), &sel.value) {
                    return;
                }
            }
            if !keys.admits(|field| seg.field(&field.field)) {
                return;
            }
            if query.limit.is_some_and(|n| out.len() >= n) {
                return;
            }
            let fields: Vec<(&str, Atomic)> = query
                .outputs
                .iter()
                .map(|(name, f)| (name.as_str(), seg.field(&f.field)))
                .collect();
            out.row(&fields);
        });
        if !type_seen && out.is_empty() && !self.segment_types().contains_key(seg_type) {
            return Err(SourceError::query(
                &self.name,
                format!("no segment type {:?}", seg_type),
            ));
        }
        Ok(out.finish())
    }

    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        if name == TREE_COLLECTION {
            return Ok(self.tree_document());
        }
        // A record-shaped view of a segment type with all its fields.
        let types = self.segment_types();
        let fields = types
            .get(name)
            .map(|(f, _)| f.clone())
            .ok_or_else(|| {
                SourceError::query(&self.name, format!("no segment type {:?}", name))
            })?;
        let mut out = RowsBuilder::new();
        self.walk(|seg| {
            if seg.seg_type == name {
                let row: Vec<(&str, Atomic)> = fields
                    .iter()
                    .map(|(f, _)| (f.as_str(), seg.field(f)))
                    .collect();
                out.row(&row);
            }
        });
        Ok(out.finish())
    }

    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        if collection == TREE_COLLECTION {
            return Some(1);
        }
        self.segment_types().get(collection).map(|(_, n)| *n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{rows_of, row_field, PredOp};

    fn legacy_store() -> HierarchicalAdapter {
        // An IMS-flavored parts hierarchy: dealer → stock → part.
        HierarchicalAdapter::new(
            "legacy_parts",
            vec![
                Segment::new("dealer", vec![("dno", Atomic::Int(1)), ("city", "Seattle".into())])
                    .with_children(vec![
                        Segment::new(
                            "stock",
                            vec![("pno", Atomic::Int(100)), ("qty", Atomic::Int(4))],
                        ),
                        Segment::new(
                            "stock",
                            vec![("pno", Atomic::Int(101)), ("qty", Atomic::Int(0))],
                        ),
                    ]),
                Segment::new("dealer", vec![("dno", Atomic::Int(2)), ("city", "Portland".into())])
                    .with_children(vec![Segment::new(
                        "stock",
                        vec![("pno", Atomic::Int(100)), ("qty", Atomic::Int(9))],
                    )]),
            ],
        )
    }

    #[test]
    fn segment_scan_with_selection() {
        let a = legacy_store();
        let q = SourceQuery::scan("stock", &[("part", "pno"), ("qty", "qty")])
            .with_selection("qty", PredOp::Gt, Atomic::Int(0));
        let doc = a.execute(&q).unwrap();
        let rows = rows_of(&doc);
        assert_eq!(rows.len(), 2);
        assert_eq!(row_field(&rows[0], "part"), Atomic::Int(100));
    }

    #[test]
    fn segment_scan_with_key_set() {
        let a = legacy_store();
        let keys: Arc<[Atomic]> = vec![Atomic::Int(101), Atomic::Int(7)].into();
        let q = SourceQuery::scan("stock", &[("part", "pno"), ("qty", "qty")])
            .with_key_set(crate::query::FieldRef::new("t", "pno"), keys);
        let rows = rows_of(&a.execute(&q).unwrap());
        assert_eq!(rows.len(), 1);
        assert_eq!(row_field(&rows[0], "qty"), Atomic::Int(0));
    }

    #[test]
    fn joins_rejected() {
        let a = legacy_store();
        let q = SourceQuery {
            collections: vec![
                crate::query::CollectionRef {
                    alias: "a".into(),
                    collection: "dealer".into(),
                },
                crate::query::CollectionRef {
                    alias: "b".into(),
                    collection: "stock".into(),
                },
            ],
            join_conds: vec![],
            selections: vec![],
            outputs: vec![],
            limit: None,
            key_sets: Vec::new(),
            after_row: None,
        };
        assert!(a.execute(&q).is_err());
    }

    #[test]
    fn tree_export_is_nested_xml() {
        let a = legacy_store();
        let doc = a.fetch_collection(TREE_COLLECTION).unwrap();
        let dealers: Vec<_> = doc.root().children_named("dealer").collect();
        assert_eq!(dealers.len(), 2);
        assert_eq!(dealers[0].children_named("stock").count(), 2);
        assert_eq!(dealers[0].child("city").unwrap().text(), "Seattle");
    }

    #[test]
    fn collections_inventory() {
        let a = legacy_store();
        let cols = a.collections();
        let names: Vec<&str> = cols.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["dealer", "stock", "_tree"]);
        assert_eq!(a.estimated_rows("stock"), Some(3));
    }

    #[test]
    fn unknown_segment_type_errors() {
        let a = legacy_store();
        let q = SourceQuery::scan("nothere", &[("x", "x")]);
        assert!(a.execute(&q).is_err());
        assert!(a.fetch_collection("nothere").is_err());
    }
}
