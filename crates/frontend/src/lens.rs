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

/// Substitute `:name` placeholders. By convention placeholders stand for
/// complete literals and are substituted with proper quoting.
///
/// One left-to-right scan: a `:name` is replaced only when `name` is a
/// declared parameter and the name is not the prefix of a longer
/// identifier (`:id` leaves `:idx` alone), and a substituted value is
/// never scanned again (a value spelling `:other` stays text).
fn substitute(lens: &Lens, supplied: &BTreeMap<String, String>) -> Result<String, LensError> {
    let mut out = String::with_capacity(lens.query.len());
    let mut rest = lens.query.as_str();
    while let Some(at) = rest.find(':') {
        out.push_str(&rest[..at]);
        let after = &rest[at + 1..];
        let len = after
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(after.len());
        let name = &after[..len];
        match lens.params.iter().find(|p| p.name == name) {
            Some(p) => out.push_str(&literal(lens, p, supplied)?),
            None => {
                out.push(':');
                out.push_str(name);
            }
        }
        rest = &after[len..];
    }
    out.push_str(rest);
    Ok(out)
}

/// The XML-QL literal a parameter substitutes as: the supplied value,
/// else its default, else [`LensError::MissingParam`].
fn literal(
    lens: &Lens,
    p: &ParamDef,
    supplied: &BTreeMap<String, String>,
) -> Result<String, LensError> {
    let Some(value) = supplied.get(&p.name).or(p.default.as_ref()) else {
        return Err(LensError::MissingParam {
            lens: lens.name.clone(),
            param: p.name.clone(),
        });
    };
    // Plain decimal numbers substitute bare; everything else —
    // including float spellings the XML-QL lexer does not accept
    // ("inf", "NaN", "1e5") — as a quoted string.
    let is_plain_number = {
        let v = value.strip_prefix('-').unwrap_or(value);
        !v.is_empty()
            && v.chars().all(|c| c.is_ascii_digit() || c == '.')
            && v.chars().filter(|&c| c == '.').count() <= 1
            && !v.starts_with('.')
            && !v.ends_with('.')
    };
    Ok(if is_plain_number {
        value.clone()
    } else {
        format!("\"{}\"", value.replace('\\', "\\\\").replace('"', "\\\""))
    })
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

    fn lens_over(query: &str, params: &[&str]) -> Lens {
        Lens {
            name: "l".into(),
            query: query.into(),
            params: params
                .iter()
                .map(|p| ParamDef {
                    name: p.to_string(),
                    default: None,
                })
                .collect(),
            template: Template::parse("").unwrap(),
            device: Device::PlainText,
            required_role: None,
        }
    }

    fn supplied(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn a_substituted_value_is_never_rescanned() {
        let lens = lens_over(
            "<name>:who</name><region>:region</region>",
            &["who", "region"],
        );
        let text = substitute(&lens, &supplied(&[("who", ":region"), ("region", "NW")])).unwrap();
        assert_eq!(text, r#"<name>":region"</name><region>"NW"</region>"#);
    }

    #[test]
    fn a_parameter_never_rewrites_the_prefix_of_a_longer_name() {
        let lens = lens_over("$a = :id, $b = :idx, $c = :ids", &["id", "idx"]);
        let text = substitute(&lens, &supplied(&[("id", "1"), ("idx", "2")])).unwrap();
        // `:ids` names no parameter, so it stays as written.
        assert_eq!(text, "$a = 1, $b = 2, $c = :ids");
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
