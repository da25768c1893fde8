//! Lenses: the application-facing access objects.
//!
//! A [`Lens`] bundles an XML-QL query with named parameters, a
//! formatting [`Template`], a [`Device`] target, and an optional
//! required role — the paper's "set of XML queries, parameters, XSL
//! formatting, and authentication information". [`LensRegistry::run`]
//! executes the whole pipeline: authenticate → authorize → substitute
//! parameters → query the engine → format for the device.

use crate::auth::{AuthError, Directory, Role};
use crate::format::{Device, Template, TemplateError};
use crate::monitor::SystemMonitor;
use nimble_core::{CoreError, Engine, QueryResult};
use nimble_trace::sync::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A declared lens parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDef {
    pub name: String,
    /// Substituted when the caller omits the parameter; `None` makes the
    /// parameter required.
    pub default: Option<String>,
}

/// A named, parameterized, formatted query object.
pub struct Lens {
    pub name: String,
    /// XML-QL text with `:param` placeholders.
    pub query: String,
    pub params: Vec<ParamDef>,
    pub template: Template,
    pub device: Device,
    /// Role required to run this lens; `None` = public.
    pub required_role: Option<Role>,
}

/// Lens-layer failures.
#[derive(Debug)]
pub enum LensError {
    UnknownLens(String),
    MissingParam { lens: String, param: String },
    Auth(AuthError),
    Query(CoreError),
    Format(TemplateError),
}

impl fmt::Display for LensError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LensError::UnknownLens(l) => write!(f, "unknown lens {:?}", l),
            LensError::MissingParam { lens, param } => {
                write!(f, "lens {:?} requires parameter {:?}", lens, param)
            }
            LensError::Auth(e) => write!(f, "{}", e),
            LensError::Query(e) => write!(f, "{}", e),
            LensError::Format(e) => write!(f, "{}", e),
        }
    }
}
impl std::error::Error for LensError {}

/// A rendered lens response.
#[derive(Debug, Clone)]
pub struct LensResponse {
    /// Device-formatted output.
    pub body: String,
    /// The raw query result (completeness annotations included).
    pub result: QueryResult,
}

/// Substitute `:name` placeholders. Values are escaped as XML-QL string
/// literals when the placeholder appears inside quotes is the caller's
/// concern; by convention placeholders stand for complete literals and
/// are substituted with proper quoting.
fn substitute(
    lens: &Lens,
    supplied: &BTreeMap<String, String>,
) -> Result<String, LensError> {
    let mut text = lens.query.clone();
    for p in &lens.params {
        let placeholder = format!(":{}", p.name);
        if !text.contains(&placeholder) {
            continue;
        }
        let value = match supplied.get(&p.name).cloned().or_else(|| p.default.clone()) {
            Some(v) => v,
            None => {
                return Err(LensError::MissingParam {
                    lens: lens.name.clone(),
                    param: p.name.clone(),
                })
            }
        };
        // Plain decimal numbers substitute bare; everything else —
        // including float spellings the XML-QL lexer does not accept
        // ("inf", "NaN", "1e5") — as a quoted string.
        let is_plain_number = {
            let v = value.strip_prefix('-').unwrap_or(&value);
            !v.is_empty()
                && v.chars().all(|c| c.is_ascii_digit() || c == '.')
                && v.chars().filter(|&c| c == '.').count() <= 1
                && !v.starts_with('.')
                && !v.ends_with('.')
        };
        let literal = if is_plain_number {
            value
        } else {
            format!("\"{}\"", value.replace('\\', "\\\\").replace('"', "\\\""))
        };
        text = text.replace(&placeholder, &literal);
    }
    Ok(text)
}

/// The registry of lenses bound to one engine, directory, and monitor.
pub struct LensRegistry {
    engine: Arc<Engine>,
    directory: Arc<Directory>,
    monitor: Arc<SystemMonitor>,
    lenses: RwLock<BTreeMap<String, Arc<Lens>>>,
}

impl LensRegistry {
    pub fn new(
        engine: Arc<Engine>,
        directory: Arc<Directory>,
        monitor: Arc<SystemMonitor>,
    ) -> LensRegistry {
        LensRegistry {
            engine,
            directory,
            monitor,
            lenses: RwLock::new(BTreeMap::new()),
        }
    }

    /// Register (or replace) a lens.
    pub fn register(&self, lens: Lens) {
        self.lenses.write().insert(lens.name.clone(), Arc::new(lens));
    }

    /// All lens names.
    pub fn names(&self) -> Vec<String> {
        self.lenses.read().keys().cloned().collect()
    }

    /// Run a lens as an authenticated user.
    pub fn run(
        &self,
        lens_name: &str,
        user: &str,
        secret: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<LensResponse, LensError> {
        let lens = self
            .lenses
            .read()
            .get(lens_name)
            .cloned()
            .ok_or_else(|| LensError::UnknownLens(lens_name.to_string()))?;
        let user = self
            .directory
            .authenticate(user, secret)
            .map_err(LensError::Auth)?;
        self.directory
            .authorize(&user, lens.required_role.as_ref())
            .map_err(LensError::Auth)?;

        let text = substitute(&lens, params)?;
        let started = std::time::Instant::now();
        let result = self.engine.query(&text).map_err(LensError::Query)?;
        let body = lens
            .template
            .render(&result.document.root(), lens.device)
            .map_err(LensError::Format)?;
        self.monitor.record_lens(
            lens_name,
            started.elapsed().as_secs_f64() * 1e3,
            result.complete,
        );
        Ok(LensResponse { body, result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_core::Catalog;
    use nimble_sources::relational::RelationalAdapter;

    fn setup() -> LensRegistry {
        let catalog = Catalog::new();
        catalog
            .register_source(Arc::new(
                RelationalAdapter::from_statements(
                    "crm",
                    &[
                        "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
                        "INSERT INTO customers VALUES \
                         (1, 'Acme', 'NW'), (2, 'Globex', 'SW'), (3, 'Initech', 'NW')",
                    ],
                )
                .unwrap(),
            ))
            .unwrap();
        let engine = Arc::new(Engine::new(Arc::new(catalog)));
        let directory = Arc::new(Directory::new());
        directory.add_user("ana", "pw", &["analyst"]);
        directory.add_user("guest", "pw", &[]);
        let registry = LensRegistry::new(engine, directory, Arc::new(SystemMonitor::new()));
        registry.register(Lens {
            name: "customers_by_region".into(),
            query: r#"WHERE <row><name>$n</name><region>:region</region></row> IN "customers"
                      CONSTRUCT <c>$n</c> ORDER-BY $n"#
                .into(),
            params: vec![ParamDef {
                name: "region".into(),
                default: Some("NW".into()),
            }],
            template: Template::parse("{{#each c}}* {{.}}\n{{/each}}").unwrap(),
            device: Device::PlainText,
            required_role: Some("analyst".into()),
        });
        registry
    }

    #[test]
    fn full_lens_pipeline() {
        let reg = setup();
        let out = reg
            .run("customers_by_region", "ana", "pw", &BTreeMap::new())
            .unwrap();
        assert_eq!(out.body, "* Acme\n* Initech\n");
        assert!(out.result.complete);
    }

    #[test]
    fn parameter_override() {
        let reg = setup();
        let mut params = BTreeMap::new();
        params.insert("region".to_string(), "SW".to_string());
        let out = reg
            .run("customers_by_region", "ana", "pw", &params)
            .unwrap();
        assert_eq!(out.body, "* Globex\n");
    }

    #[test]
    fn authorization_enforced() {
        let reg = setup();
        let err = reg
            .run("customers_by_region", "guest", "pw", &BTreeMap::new())
            .unwrap_err();
        assert!(matches!(err, LensError::Auth(AuthError::MissingRole { .. })));
        let err = reg
            .run("customers_by_region", "ana", "wrong", &BTreeMap::new())
            .unwrap_err();
        assert!(matches!(
            err,
            LensError::Auth(AuthError::BadCredentials(_))
        ));
    }

    #[test]
    fn missing_required_param() {
        let reg = setup();
        reg.register(Lens {
            name: "strict".into(),
            query: r#"WHERE <row><name>$n</name><region>:region</region></row> IN "customers"
                      CONSTRUCT <c>$n</c>"#
                .into(),
            params: vec![ParamDef {
                name: "region".into(),
                default: None,
            }],
            template: Template::parse("{{#each c}}{{.}}{{/each}}").unwrap(),
            device: Device::PlainText,
            required_role: None,
        });
        let err = reg.run("strict", "guest", "pw", &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, LensError::MissingParam { .. }));
    }

    #[test]
    fn exotic_float_spellings_are_quoted_not_inlined() {
        // "inf" parses as f64 but is not an XML-QL numeric token; it must
        // substitute as a quoted string (yielding zero matches), not
        // produce a parse error.
        let reg = setup();
        for exotic in ["inf", "NaN", "1e5", "-inf", "1.", ".5"] {
            let mut params = BTreeMap::new();
            params.insert("region".to_string(), exotic.to_string());
            let out = reg
                .run("customers_by_region", "ana", "pw", &params)
                .unwrap_or_else(|e| panic!("{:?} should quote cleanly: {}", exotic, e));
            assert_eq!(out.body, "", "{:?} matched unexpectedly", exotic);
        }
        // Plain numbers still substitute bare.
        let mut params = BTreeMap::new();
        params.insert("region".to_string(), "-12.5".to_string());
        assert!(reg.run("customers_by_region", "ana", "pw", &params).is_ok());
    }

    #[test]
    fn unknown_lens() {
        let reg = setup();
        assert!(matches!(
            reg.run("nope", "ana", "pw", &BTreeMap::new()),
            Err(LensError::UnknownLens(_))
        ));
    }
}
