//! The one writer behind every `BENCH_*.json` report: a small JSON value
//! rendered with escaped strings and with non-finite floats as `null`
//! (`format!("{:.3}", f64::NAN)` prints `NaN`, which is not JSON).

/// A JSON value. Floats carry their decimal precision, so each report
/// keeps the digits it has always printed.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A float with `Some(decimals)` fixed digits, or `None` for the
    /// shortest round-trip form.
    Num(f64, Option<usize>),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

/// An object literal: `json_obj!{"key": value, …}`, each value converted
/// with [`Json::from`].
#[macro_export]
macro_rules! json_obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key.to_string(), $crate::Json::from($value))),*])
    };
}

impl Json {
    /// A float printed with exactly `decimals` fractional digits.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(x, Some(decimals))
    }

    /// An array of `items`.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// An object with one `(key, value)` field per item.
    pub fn map<K: ToString, V: Into<Json>>(items: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            items
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into()))
                .collect(),
        )
    }

    /// Renders the value. The top level, and a second-level container
    /// that holds containers, put one child per line; the rest is inline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Int(i) => return out.push_str(&i.to_string()),
            Json::Num(x, _) if !x.is_finite() => return out.push_str("null"),
            Json::Num(x, Some(d)) => return out.push_str(&format!("{x:.d$}")),
            Json::Num(x, None) => return out.push_str(&x.to_string()),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(v) => ('[', ']', v.iter().map(|x| (None, x)).collect()),
            Json::Obj(v) => (
                '{',
                '}',
                v.iter().map(|(k, x)| (Some(k.as_str()), x)).collect(),
            ),
        };
        let nested = items
            .iter()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        let multiline = depth == 0 || (depth == 1 && nested);
        let (sep, indent) = if multiline {
            (",", format!("\n{}", "  ".repeat(depth + 1)))
        } else {
            (", ", String::new())
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(&indent);
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if multiline && !items.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_from {
    ($($t:ty => $variant:ident($conv:expr)),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::$variant($conv(x))
            }
        }
    )*};
}
json_from!(
    bool => Bool(|b| b),
    u32 => Int(u64::from),
    u64 => Int(|i| i),
    usize => Int(|i| i as u64),
    String => Str(|s| s),
    &str => Str(str::to_string),
);

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x, None)
    }
}

/// Writes a rendered report to `$var` if set, else to
/// `BENCH_{name}.json` in the working directory, and says where.
pub fn write_report(name: &str, var: &str, report: &Json) {
    let path = std::env::var(var).unwrap_or_else(|_| format!("BENCH_{name}.json"));
    std::fs::write(&path, report.render())
        .unwrap_or_else(|e| panic!("write {name} report to {path}: {e}"));
    println!("report written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_nested_reports_with_non_finite_floats_as_null() {
        let report = json_obj! {
            "name": "a \"quoted\" \\ path\n\t\u{1}",
            "n": 3usize,
            "theta": 0.2,
            "ms": Json::fixed(1.23456, 3),
            "nan": Json::fixed(f64::NAN, 3),
            "inf": f64::INFINITY,
            "neg_inf": Json::fixed(f64::NEG_INFINITY, 1),
            "ok": true,
            "rows": Json::arr([json_obj! {"x": 1u32}, json_obj! {"y": f64::NAN, "z": "w"}]),
            "inline": Json::map([("a", 1u64), ("b", 2u64)]),
            "empty": Json::arr(Vec::<Json>::new()),
        };
        let expect = r#"{
  "name": "a \"quoted\" \\ path\n\t\u0001",
  "n": 3,
  "theta": 0.2,
  "ms": 1.235,
  "nan": null,
  "inf": null,
  "neg_inf": null,
  "ok": true,
  "rows": [
    {"x": 1},
    {"y": null, "z": "w"}
  ],
  "inline": {"a": 1, "b": 2},
  "empty": []
}
"#;
        assert_eq!(report.render(), expect);
    }
}
