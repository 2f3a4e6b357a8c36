//! The one grammar of the `LINGER_*` count knobs.
//!
//! A count is a positive integer. Anything else panics with the
//! variable's name and value, so a typo in a determinism check fails
//! loudly instead of silently running the default path. An unset
//! variable is absent.

/// [`env_count`] on a raw `value` (`None` when unset).
fn parse_count(name: &str, value: Option<&str>) -> Option<usize> {
    let v = value?;
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("{name}={v:?}: expected a positive integer"),
    }
}

/// Count knob `name` read from the environment; `None` when unset.
///
/// # Panics
/// If the value is set but not a positive integer.
pub fn env_count(name: &str) -> Option<usize> {
    parse_count(name, env_value(name).as_deref())
}

fn env_value(name: &str) -> Option<String> {
    let v = std::env::var_os(name)?;
    Some(v.into_string().unwrap_or_else(|v| panic!("{name}={v:?}: not UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accept_positive_integers() {
        assert_eq!(parse_count("TEST_KNOB", None), None);
        for (v, n) in [("1", 1), ("4", 4), ("32", 32)] {
            assert_eq!(parse_count("TEST_KNOB", Some(v)), Some(n));
        }
    }

    /// The panic message of `parse` on `value`.
    fn rejection(parse: impl Fn(Option<&str>) + std::panic::RefUnwindSafe, value: &str) -> String {
        let err = std::panic::catch_unwind(|| parse(Some(value)))
            .expect_err(&format!("{value:?} must be rejected"));
        err.downcast_ref::<String>().expect("formatted panic message").clone()
    }

    #[test]
    fn malformed_values_panic_with_name_and_value() {
        for value in ["four", "0", "", "-4", "4 "] {
            let msg = rejection(|v| assert!(parse_count("TEST_COUNT", v).is_none()), value);
            assert!(msg.starts_with(&format!("TEST_COUNT={value:?}:")), "{msg}");
        }
    }
}
