//! The one reader for the `RANKSIM_*` experiment knobs and the one
//! budget guard the CI smoke runs rely on. A set but unparsable value
//! is an error (exit code 2, naming the variable), never a silent
//! fallback: `RANKSIM_CHURN_TIME_BUDGET_S=10s` must not turn a guard off.

use std::str::FromStr;

/// Parses `raw` (the value of `var`, if set): `Ok(None)` when unset,
/// `Err` naming the variable when the value does not parse.
fn parse_env<T: FromStr>(var: &str, raw: Option<&str>) -> Result<Option<T>, String> {
    raw.map(|v| {
        v.parse()
            .map_err(|_| format!("{var}={v:?} is not a valid value"))
    })
    .transpose()
}

fn read_env<T: FromStr>(var: &str) -> Option<T> {
    let raw = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    parse_env(var, raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The value of `var`, or `default` when it is unset. Exits with code 2
/// when it is set but does not parse.
pub fn env_or<T: FromStr>(var: &str, default: T) -> T {
    read_env(var).unwrap_or(default)
}

/// Which side of its limit a guarded measurement must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// `measured <= limit` (budgets).
    Ceiling,
    /// `measured >= limit` (speedup floors).
    Floor,
}

/// Whether `measured` stays on the `bound` side of `limit`.
fn within(measured: f64, limit: f64, bound: Bound) -> bool {
    match bound {
        Bound::Ceiling => measured <= limit,
        Bound::Floor => measured >= limit,
    }
}

/// Checks `measured` against the limit in `var`, if set: prints
/// `ok(measured, limit)` when it holds, exits with code 1 on a breach
/// and with code 2 when the limit does not parse.
pub fn guard(var: &str, measured: f64, bound: Bound, ok: impl Fn(f64, f64) -> String) {
    let Some(limit) = read_env::<f64>(var) else {
        return;
    };
    if !within(measured, limit, bound) {
        let side = match bound {
            Bound::Ceiling => "above the ceiling",
            Bound::Floor => "below the floor",
        };
        eprintln!("FAIL: measured {measured:.3} is {side} {var}={limit}");
        std::process::exit(1);
    }
    println!("{}", ok(measured, limit));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_decision_covers_ceiling_floor_unset_and_malformed() {
        assert!(within(1.0, 1.0, Bound::Ceiling));
        assert!(!within(1.1, 1.0, Bound::Ceiling));
        assert!(within(1.3, 1.3, Bound::Floor));
        assert!(!within(1.29, 1.3, Bound::Floor));
        assert!(!within(f64::NAN, 1.3, Bound::Floor), "NaN never passes");
        assert!(!within(f64::NAN, 1.3, Bound::Ceiling), "NaN never passes");

        assert_eq!(parse_env::<f64>("RANKSIM_X", None), Ok(None));
        assert_eq!(parse_env::<f64>("RANKSIM_X", Some("600")), Ok(Some(600.0)));
        let err = parse_env::<f64>("RANKSIM_CHURN_TIME_BUDGET_S", Some("10s")).unwrap_err();
        assert!(err.contains("RANKSIM_CHURN_TIME_BUDGET_S") && err.contains("10s"));
        assert!(parse_env::<usize>("RANKSIM_NYT_N", Some("")).is_err());
        let kernel = parse_env::<ranksim_rankings::Kernel>("RANKSIM_KERNEL", Some("avx"));
        assert!(kernel.unwrap_err().contains("RANKSIM_KERNEL"));
    }
}
