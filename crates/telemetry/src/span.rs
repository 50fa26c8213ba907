//! Completed-span records and attribute values.

use std::fmt;

/// A typed span/event attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (epoch numbers, counts, byte totals).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rates, fractions).
    F64(f64),
    /// Short string (labels, variant names).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::I64(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<f32> for AttrValue {
    fn from(v: f32) -> Self {
        AttrValue::F64(v as f64)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the run (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `"epoch"` or `"scan"`.
    pub name: String,
    /// Key/value attributes attached while the span was open.
    pub attrs: Vec<(String, AttrValue)>,
    /// Host wall-clock offset of the span's open, in seconds since the
    /// telemetry stream was created (0 for artifacts written before this
    /// field existed).
    pub start_secs: f64,
    /// Host wall-clock duration in seconds.
    pub wall_secs: f64,
    /// Simulated-device seconds attributed to this span (0 when the span
    /// covers host-only work).
    pub sim_secs: f64,
}

impl SpanRecord {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Convenience: the attribute as a `u64` if it is one.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key) {
            Some(AttrValue::U64(v)) => Some(*v),
            Some(AttrValue::I64(v)) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_lookup_by_key() {
        let rec = SpanRecord {
            id: 1,
            parent: None,
            name: "scan".into(),
            attrs: vec![("epoch".into(), 3usize.into()), ("note".into(), "x".into())],
            start_secs: 0.0,
            wall_secs: 0.0,
            sim_secs: 0.5,
        };
        assert_eq!(rec.attr_u64("epoch"), Some(3));
        assert_eq!(rec.attr("note"), Some(&AttrValue::Str("x".into())));
        assert_eq!(rec.attr("missing"), None);
    }

    #[test]
    fn attr_value_conversions() {
        assert_eq!(AttrValue::from(5u64), AttrValue::U64(5));
        assert_eq!(AttrValue::from(-2i32), AttrValue::I64(-2));
        assert_eq!(AttrValue::from(1.5f64), AttrValue::F64(1.5));
        assert_eq!(AttrValue::from("hi").to_string(), "hi");
    }
}
