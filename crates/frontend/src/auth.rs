//! Users, roles, and lens-level access control ("authentication
//! information" carried by lenses).

use nimble_trace::sync::RwLock;
use std::collections::BTreeMap;
use std::fmt;

/// A role a lens may require.
pub type Role = String;

/// A registered user with roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct User {
    pub name: String,
    /// Extremely simplified credential — a shared secret. A product
    /// would delegate to the deployment's identity system; the lens
    /// pipeline only needs a check-point here.
    pub secret: String,
    pub roles: Vec<Role>,
}

/// Authentication/authorization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    UnknownUser(String),
    BadCredentials(String),
    MissingRole { user: String, role: Role },
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownUser(u) => write!(f, "unknown user {:?}", u),
            AuthError::BadCredentials(u) => write!(f, "bad credentials for {:?}", u),
            AuthError::MissingRole { user, role } => {
                write!(f, "user {:?} lacks role {:?}", user, role)
            }
        }
    }
}
impl std::error::Error for AuthError {}

/// The user directory.
#[derive(Default)]
pub struct Directory {
    users: RwLock<BTreeMap<String, User>>,
}

impl Directory {
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Add or replace a user.
    pub fn add_user(&self, name: &str, secret: &str, roles: &[&str]) {
        self.users.write().insert(
            name.to_string(),
            User {
                name: name.to_string(),
                secret: secret.to_string(),
                roles: roles.iter().map(|r| r.to_string()).collect(),
            },
        );
    }

    /// Authenticate a user by name + secret.
    pub fn authenticate(&self, name: &str, secret: &str) -> Result<User, AuthError> {
        let users = self.users.read();
        let user = users
            .get(name)
            .ok_or_else(|| AuthError::UnknownUser(name.to_string()))?;
        if user.secret != secret {
            return Err(AuthError::BadCredentials(name.to_string()));
        }
        Ok(user.clone())
    }

    /// Check that an authenticated user carries a role (`None` = public).
    pub fn authorize(&self, user: &User, required: Option<&Role>) -> Result<(), AuthError> {
        match required {
            None => Ok(()),
            Some(role) => {
                if user.roles.iter().any(|r| r == role) {
                    Ok(())
                } else {
                    Err(AuthError::MissingRole {
                        user: user.name.clone(),
                        role: role.clone(),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authenticate_and_authorize() {
        let d = Directory::new();
        d.add_user("denise", "s3cret", &["analyst", "admin"]);
        assert!(matches!(
            d.authenticate("nobody", "x"),
            Err(AuthError::UnknownUser(_))
        ));
        assert!(matches!(
            d.authenticate("denise", "wrong"),
            Err(AuthError::BadCredentials(_))
        ));
        let user = d.authenticate("denise", "s3cret").unwrap();
        assert!(d.authorize(&user, None).is_ok());
        assert!(d.authorize(&user, Some(&"admin".to_string())).is_ok());
        assert!(matches!(
            d.authorize(&user, Some(&"root".to_string())),
            Err(AuthError::MissingRole { .. })
        ));
    }
}
