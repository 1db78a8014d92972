//! JSON in and out. Values are the program's own
//! `flowkv_common::telemetry::Json`, so what `run` writes is read back by
//! `compare` through the same type; only the serialiser lives here.

use std::path::Path;

use flowkv_common::telemetry::Json;

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialises `json`. `indent` of `None` gives one line; `Some(n)` breaks
/// objects and arrays of objects across lines, `n` levels deep already.
fn push_json(out: &mut String, json: &Json, indent: Option<usize>) {
    let newline = |out: &mut String, depth: usize| {
        if indent.is_some() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    match json {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // `{}` prints the shortest text that reads back as the same f64:
        // every digit that was measured and no padding.
        Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => push_str(out, s),
        Json::Arr(items) => {
            let nested = indent.filter(|_| items.iter().any(|i| matches!(i, Json::Obj(_))));
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(if nested.is_some() { "," } else { ", " });
                }
                if let Some(depth) = nested {
                    newline(out, depth + 1);
                }
                push_json(out, item, nested.map(|d| d + 1));
            }
            if let Some(depth) = nested {
                newline(out, depth);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            // Leaf objects (a metric cell, a span) stay on one line.
            let nested = indent.filter(|_| {
                members
                    .iter()
                    .any(|(_, v)| matches!(v, Json::Obj(_) | Json::Arr(_)))
            });
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(if nested.is_some() { "," } else { ", " });
                }
                if let Some(depth) = nested {
                    newline(out, depth + 1);
                }
                push_str(out, key);
                out.push_str(": ");
                push_json(out, value, nested.map(|d| d + 1));
            }
            if let Some(depth) = nested {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

/// `json` on a single line.
pub fn line(json: &Json) -> String {
    let mut out = String::new();
    push_json(&mut out, json, None);
    out
}

/// `json` indented for a file a person will open.
pub fn pretty(json: &Json) -> String {
    let mut out = String::new();
    push_json(&mut out, json, Some(0));
    out.push('\n');
    out
}

pub fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, pretty(json)).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    flowkv_common::telemetry::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::telemetry::parse_json;

    #[test]
    fn both_renderings_parse_back_to_the_same_value() {
        let value = obj(vec![
            ("name", text("q7 \"aar\"\n")),
            ("value", num(1234.5678901234)),
            ("whole", num(1000.0)),
            ("ok", Json::Bool(true)),
            (
                "cells",
                Json::Arr(vec![obj(vec![("v", num(0.1))]), Json::Null]),
            ),
            ("flat", Json::Arr(vec![num(1.0), num(2.0)])),
        ]);
        assert_eq!(parse_json(&line(&value)).unwrap(), value);
        assert_eq!(parse_json(&pretty(&value)).unwrap(), value);
        assert!(!line(&value).contains('\n'));
    }
}
