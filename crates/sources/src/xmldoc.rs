//! The native-XML adapter: named documents served as-is.
//!
//! XML feeds and repositories typically cannot evaluate queries at all —
//! the mediator fetches the document and pattern-matches centrally. The
//! adapter therefore declares [`Capabilities::fetch_only`].

use crate::capabilities::Capabilities;
use crate::error::SourceError;
use crate::query::{CollectionInfo, SourceQuery};
use crate::{SourceAdapter, SourceKind};
use nimble_xml::{parse, Document, Shape};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A set of named XML documents.
pub struct XmlDocAdapter {
    name: String,
    documents: BTreeMap<String, Arc<Document>>,
}

impl XmlDocAdapter {
    pub fn new(name: &str) -> XmlDocAdapter {
        XmlDocAdapter {
            name: name.to_string(),
            documents: BTreeMap::new(),
        }
    }

    /// Add a pre-parsed document under a collection name.
    pub fn add_document(mut self, collection: &str, doc: Arc<Document>) -> XmlDocAdapter {
        self.documents.insert(collection.to_string(), doc);
        self
    }

    /// Parse and add an XML string.
    pub fn add_xml(self, collection: &str, xml: &str) -> Result<XmlDocAdapter, SourceError> {
        let name = self.name.clone();
        let doc = parse(xml).map_err(|e| SourceError::query(&name, e.to_string()))?;
        Ok(self.add_document(collection, doc))
    }
}

impl SourceAdapter for XmlDocAdapter {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> SourceKind {
        SourceKind::XmlDocument
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::fetch_only()
    }

    fn collections(&self) -> Vec<CollectionInfo> {
        self.documents
            .iter()
            .map(|(name, doc)| {
                // Shape inference gives downstream tools a schema sketch;
                // the field list is meaningful only for record-like roots.
                let fields = match Shape::infer(&doc.root()) {
                    Shape::Record(fs) => fs
                        .into_iter()
                        .map(|f| (f.name, nimble_xml::AtomicType::Str))
                        .collect(),
                    _ => Vec::new(),
                };
                CollectionInfo {
                    name: name.clone(),
                    fields,
                    estimated_rows: Some(doc.root_cursor().child_element_count() as u64),
                }
            })
            .collect()
    }

    fn execute(&self, _query: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        Err(SourceError::query(
            &self.name,
            "XML document source is fetch-only; the mediator must match patterns centrally",
        ))
    }

    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        self.documents
            .get(name)
            .cloned()
            .ok_or_else(|| SourceError::query(&self.name, format!("no document {:?}", name)))
    }

    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.documents
            .get(collection)
            .map(|d| d.root_cursor().child_element_count() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_and_capabilities() {
        let a = XmlDocAdapter::new("feeds")
            .add_xml("bib", "<bib><book><title>X</title></book></bib>")
            .unwrap();
        assert_eq!(a.capabilities().tag(), "------");
        let doc = a.fetch_collection("bib").unwrap();
        assert_eq!(doc.root().name(), Some("bib"));
        assert!(a.fetch_collection("other").is_err());
        assert!(a.execute(&SourceQuery::scan("bib", &[])).is_err());
    }

    #[test]
    fn inventory_counts_children() {
        let a = XmlDocAdapter::new("feeds")
            .add_xml("bib", "<bib><book/><book/><journal/></bib>")
            .unwrap();
        assert_eq!(a.estimated_rows("bib"), Some(3));
        assert_eq!(a.collections().len(), 1);
    }
}
