//! Uniform reporting: print to stdout and persist as `<name>.txt` and
//! `<name>.json`.

use serde::Serialize;
use std::fs;
use std::path::Path;

/// A figure/table report being assembled.
#[derive(Debug, Default)]
pub struct Report {
    name: String,
    lines: Vec<String>,
    json: serde_json::Map<String, serde_json::Value>,
}

impl Report {
    /// Start a report for `<name>` (e.g. `"fig07_memory_vs_checkpoints"`).
    pub fn new(name: impl Into<String>) -> Report {
        Report {
            name: name.into(),
            lines: Vec::new(),
            json: serde_json::Map::new(),
        }
    }

    /// Append (and echo) one line of the text report.
    pub fn line(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.lines.push(text);
    }

    /// Blank separator line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Attach a JSON value under `key` (series data for plotting).
    pub fn json(&mut self, key: impl Into<String>, value: impl Serialize) {
        let v = serde_json::to_value(value).expect("serializable report value");
        self.json.insert(key.into(), v);
    }

    /// Write `<name>.txt` and `<name>.json` into `dir` (created on
    /// demand) and report their paths.
    pub fn save(&self, dir: &Path) {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let txt = dir.join(format!("{}.txt", self.name));
        let json = dir.join(format!("{}.json", self.name));
        if let Err(e) = fs::write(&txt, self.lines.join("\n") + "\n") {
            eprintln!("warning: cannot write {}: {e}", txt.display());
        }
        let value = serde_json::Value::Object(self.json.clone());
        if let Err(e) = fs::write(&json, serde_json::to_string_pretty(&value).unwrap()) {
            eprintln!("warning: cannot write {}: {e}", json.display());
        }
        println!("\n[saved {} and {}]", txt.display(), json.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_and_saves() {
        let dir = std::env::temp_dir().join(format!("skipper_report_{}", std::process::id()));
        let mut r = Report::new("unit_test_report");
        r.line("hello");
        r.json("series", vec![1, 2, 3]);
        r.save(&dir);
        let txt = std::fs::read_to_string(dir.join("unit_test_report.txt")).unwrap();
        assert!(txt.contains("hello"));
        let json: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(dir.join("unit_test_report.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(json["series"][2], 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
