//! The derive's field rules and `#[serde(...)]` attributes, checked on
//! value trees.

use serde::{DeError, Deserialize, Serialize, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "probe")]
struct Probe {
    id: u32,
    note: Option<String>,
    #[serde(default)]
    flag: bool,
    #[serde(skip_serializing_if = "Option::is_none")]
    limit: Option<u64>,
    #[serde(with = "doubled")]
    scaled: u32,
}

/// Stores a value as twice itself, to show the field went through here.
mod doubled {
    use serde::{DeError, Deserialize, Value};

    pub fn serialize(v: &u32) -> Value {
        Value::Int(i64::from(*v) * 2)
    }

    pub fn deserialize(value: &Value) -> Result<u32, DeError> {
        Ok(u32::from_value(value)? / 2)
    }
}

fn object(fields: &[(&str, Value)]) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    )
}

fn probe(id: u32) -> Probe {
    Probe {
        id,
        note: None,
        flag: false,
        limit: None,
        scaled: 0,
    }
}

#[test]
fn missing_option_field_reads_as_none() {
    let v = object(&[("id", Value::Int(1)), ("scaled", Value::Int(0))]);
    assert_eq!(Probe::from_value(&v).unwrap(), probe(1));
}

#[test]
fn null_on_a_required_field_reads_as_missing() {
    let v = object(&[("id", Value::Null), ("scaled", Value::Int(0))]);
    let err = Probe::from_value(&v).unwrap_err();
    assert_eq!(err.to_string(), "missing field `id` in probe");
}

#[test]
fn repeated_key_is_a_duplicate_field_error() {
    // Required, optional and defaulted fields alike, even when the second
    // value is `null`: the first value is never silently kept.
    for (name, second) in [
        ("id", Value::Int(2)),
        ("note", Value::String("b".into())),
        ("flag", Value::Null),
    ] {
        let v = object(&[
            ("id", Value::Int(1)),
            ("note", Value::String("a".into())),
            ("flag", Value::Bool(true)),
            ("scaled", Value::Int(0)),
            (name, second),
        ]);
        let err = Probe::from_value(&v).unwrap_err();
        assert_eq!(err.to_string(), format!("duplicate field `{name}`"));
    }
}

#[test]
fn default_field_reads_missing_and_null_as_default() {
    let v = object(&[("id", Value::Int(1)), ("scaled", Value::Int(0))]);
    assert!(!Probe::from_value(&v).unwrap().flag);
    let v = object(&[
        ("id", Value::Int(1)),
        ("flag", Value::Null),
        ("scaled", Value::Int(0)),
    ]);
    assert!(!Probe::from_value(&v).unwrap().flag);
    let v = object(&[
        ("id", Value::Int(1)),
        ("flag", Value::Bool(true)),
        ("scaled", Value::Int(0)),
    ]);
    assert!(Probe::from_value(&v).unwrap().flag);
}

#[test]
fn skip_serializing_if_drops_the_field() {
    // `note` has no skip attribute, so `None` is written as `null`.
    let expected = object(&[
        ("id", Value::Int(1)),
        ("note", Value::Null),
        ("flag", Value::Bool(false)),
        ("scaled", Value::Int(0)),
    ]);
    assert_eq!(probe(1).to_value(), expected);
    let v = Probe {
        limit: Some(9),
        ..probe(1)
    }
    .to_value();
    let keys: Vec<&str> = v
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["id", "note", "flag", "limit", "scaled"]);
}

#[test]
fn container_rename_names_the_struct_in_errors() {
    let err: DeError = Probe::from_value(&object(&[("scaled", Value::Int(0))])).unwrap_err();
    assert_eq!(err.to_string(), "missing field `id` in probe");
    let err = Probe::from_value(&Value::Int(3)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "expected object while deserializing probe, found integer"
    );
}

#[test]
fn with_module_converts_the_field() {
    let v = Probe {
        scaled: 21,
        ..probe(1)
    };
    let tree = v.to_value();
    assert_eq!(
        tree.as_object().unwrap()[3],
        ("scaled".into(), Value::Int(42))
    );
    assert_eq!(Probe::from_value(&tree).unwrap(), v);
}
