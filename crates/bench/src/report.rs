//! One gate policy for every gated bench bin.
//!
//! A **gate** is a name, a measured value, a comparison, a threshold and
//! an enforce-when condition ([`Spec`] holds all but the measured value;
//! every spec lives in [`crate::gates`]). A bin records its gates on a
//! [`Report`] and calls [`Report::finish`], which:
//!
//! 1. writes `BENCH_<name>.json`: the bin's body object plus
//!    `hardware_threads` and a uniform
//!    `gates: [{name, measured, op, threshold, enforced, pass}]` array;
//! 2. reads the file back once and checks it renders to the same text;
//! 3. prints one line per gate;
//! 4. returns an error — so `main` exits non-zero — if any enforced gate
//!    failed. The file is always written first, so a failing run leaves
//!    its evidence behind.
//!
//! A gate that is not enforced is *report-only*: its outcome is written
//! and printed but never fails the run. Wall-clock floors enforce only on
//! machines with enough hardware threads to win them (and, for most, only
//! outside `--smoke`); structural gates — parity, zero panics,
//! convergence, classes seen — enforce everywhere. The `bench_check` bin
//! re-reads the written `gates` arrays ([`check_document`]).

use serde::{Serialize, Value};
use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// How a measured value is compared with its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Ge,
    Gt,
    Le,
    Eq,
}

impl Op {
    const ALL: [Op; 4] = [Op::Ge, Op::Gt, Op::Le, Op::Eq];

    pub fn symbol(self) -> &'static str {
        match self {
            Op::Ge => ">=",
            Op::Gt => ">",
            Op::Le => "<=",
            Op::Eq => "==",
        }
    }

    fn parse(s: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.symbol() == s)
    }
}

/// Whether `measured op threshold` holds. Measured values and
/// thresholds are JSON numbers, or flags compared with `== true`. A flag
/// only compares `==`, a number never matches a flag, and anything else
/// — NaN, or `null` for a value the run did not measure — fails.
fn passes(measured: &Value, op: Op, threshold: &Value) -> bool {
    match (measured, threshold) {
        (Value::Num(m), Value::Num(t)) => match op {
            Op::Ge => m >= t,
            Op::Gt => m > t,
            Op::Le => m <= t,
            Op::Eq => m == t,
        },
        (Value::Bool(m), Value::Bool(t)) => op == Op::Eq && m == t,
        _ => false,
    }
}

/// A measured value or threshold as a gate line shows it.
fn show(v: &Value) -> String {
    match v {
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{n:.0}"),
        Value::Num(n) if n.is_finite() => format!("{n:.4}"),
        Value::Bool(b) => b.to_string(),
        _ => "unmeasured".to_string(),
    }
}

/// When a gate's failure fails the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforce {
    /// Every run: structural gates, and floors independent of cores.
    Always,
    /// On machines with at least this many hardware threads, smoke or not.
    MinThreads(usize),
    /// Outside `--smoke`, on machines with at least this many hardware
    /// threads: wall-clock parallel floors calibrated at full scale.
    FullRunMinThreads(usize),
}

impl Enforce {
    fn applies(self, smoke: bool, hardware_threads: usize) -> bool {
        match self {
            Enforce::Always => true,
            Enforce::MinThreads(n) => hardware_threads >= n,
            Enforce::FullRunMinThreads(n) => !smoke && hardware_threads >= n,
        }
    }
}

/// Everything about a gate but its measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub op: Op,
    pub threshold: Value,
    pub enforce: Enforce,
}

impl Spec {
    pub const fn new(name: &'static str, op: Op, threshold: f64, enforce: Enforce) -> Spec {
        Spec {
            name,
            op,
            threshold: Value::Num(threshold),
            enforce,
        }
    }

    /// A flag that must be true on every run.
    pub const fn holds(name: &'static str) -> Spec {
        Spec {
            name,
            op: Op::Eq,
            threshold: Value::Bool(true),
            enforce: Enforce::Always,
        }
    }
}

/// One evaluated gate, as written to and read from a `gates` array.
#[derive(Debug, Clone, PartialEq)]
struct Gate {
    name: String,
    measured: Value,
    op: Op,
    threshold: Value,
    enforced: bool,
    pass: bool,
}

impl Gate {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("measured".to_string(), self.measured.clone()),
            ("op".to_string(), Value::Str(self.op.symbol().to_string())),
            ("threshold".to_string(), self.threshold.clone()),
            ("enforced".to_string(), Value::Bool(self.enforced)),
            ("pass".to_string(), Value::Bool(self.pass)),
        ])
    }

    fn from_value(v: &Value) -> Result<Gate, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("gate missing `{key}`"));
        let flag = |key: &str| match field(key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("gate `{key}` is not a bool")),
        };
        let level = |key: &str| match field(key)? {
            v @ (Value::Num(_) | Value::Bool(_) | Value::Null) => Ok(v.clone()),
            _ => Err(format!("gate `{key}` is not a number, bool or null")),
        };
        let Value::Str(name) = field("name")? else {
            return Err("gate `name` is not a string".to_string());
        };
        let op = match field("op")? {
            Value::Str(s) => {
                Op::parse(s).ok_or_else(|| format!("gate `{name}`: unknown op {s:?}"))?
            }
            _ => return Err(format!("gate `{name}`: `op` is not a string")),
        };
        Ok(Gate {
            name: name.clone(),
            measured: level("measured")?,
            op,
            threshold: level("threshold")?,
            enforced: flag("enforced")?,
            pass: flag("pass")?,
        })
    }

    fn line(&self) -> String {
        format!(
            "gate {}: {} {} {} — {} ({})",
            self.name,
            show(&self.measured),
            self.op.symbol(),
            show(&self.threshold),
            if self.pass { "PASS" } else { "FAIL" },
            if self.enforced {
                "enforced"
            } else {
                "report-only"
            }
        )
    }
}

fn gates_value(gates: &[Gate]) -> Value {
    Value::Arr(gates.iter().map(Gate::to_value).collect())
}

fn read_gates(doc: &Value) -> Result<Vec<Gate>, String> {
    match doc.get("gates") {
        Some(Value::Arr(items)) => items.iter().map(Gate::from_value).collect(),
        Some(_) => Err("`gates` is not an array".to_string()),
        None => Err("no `gates` array".to_string()),
    }
}

/// Every problem `bench_check` finds in one BENCH document: an absent,
/// empty or malformed `gates` array, a recorded `pass` that disagrees
/// with its comparison, a failed enforced gate and, with
/// `require_enforced`, a gate that was only reported.
pub fn check_document(doc: &Value, require_enforced: bool) -> Vec<String> {
    let gates = match read_gates(doc) {
        Ok(g) if g.is_empty() => return vec!["`gates` array is empty".to_string()],
        Ok(g) => g,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    for g in &gates {
        if passes(&g.measured, g.op, &g.threshold) != g.pass {
            problems.push(format!(
                "{}: recorded pass={} disagrees with its comparison",
                g.name, g.pass
            ));
        } else if g.enforced && !g.pass {
            problems.push(format!("failed enforced {}", g.line()));
        }
        if require_enforced && !g.enforced {
            problems.push(format!("{} was not enforced", g.name));
        }
    }
    problems
}

/// Physical thread count. Deliberately ignores `NASSIM_THREADS`, which
/// says how many workers to *use*, not how many cores exist to win
/// wall-clock on.
fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` and return its result with its wall-clock time in ms.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// The gates one bench run records, and where its BENCH file goes.
#[derive(Debug)]
pub struct Report {
    path: PathBuf,
    smoke: bool,
    hardware_threads: usize,
    gates: Vec<Gate>,
}

impl Report {
    /// The report for `BENCH_<name>.json` in the working directory, with
    /// the machine's thread count and `--smoke` (a trimmed run for quick
    /// CI lanes) read from the command line.
    pub fn new(name: &str) -> Report {
        let smoke = std::env::args().any(|a| a == "--smoke");
        Report::at(format!("BENCH_{name}.json"), smoke, hardware_threads())
    }

    fn at(path: impl Into<PathBuf>, smoke: bool, hardware_threads: usize) -> Report {
        Report {
            path: path.into(),
            smoke,
            hardware_threads,
            gates: Vec::new(),
        }
    }

    pub fn smoke(&self) -> bool {
        self.smoke
    }

    pub fn hardware_threads(&self) -> usize {
        self.hardware_threads
    }

    /// Evaluate `spec` against `measured` (a number or a flag).
    pub fn gate(&mut self, spec: &Spec, measured: impl Serialize) {
        self.push(spec, spec.name.to_string(), measured.to_value());
    }

    /// Evaluate `spec` for one item of a matrix, named `name[at]`.
    pub fn gate_at(&mut self, spec: &Spec, at: impl fmt::Display, measured: impl Serialize) {
        self.push(spec, format!("{}[{at}]", spec.name), measured.to_value());
    }

    /// Record `spec` at an `at` point the run did not measure: written
    /// as `null`, failed, and never enforced.
    pub fn unmeasured_at(&mut self, spec: &Spec, at: impl fmt::Display) {
        self.push(spec, format!("{}[{at}]", spec.name), Value::Null);
    }

    fn push(&mut self, spec: &Spec, name: String, measured: Value) {
        self.gates.push(Gate {
            name,
            pass: passes(&measured, spec.op, &spec.threshold),
            enforced: measured != Value::Null
                && spec.enforce.applies(self.smoke, self.hardware_threads),
            measured,
            op: spec.op,
            threshold: spec.threshold.clone(),
        });
    }

    /// The names of the enforced gates that failed.
    fn failures(&self) -> Vec<&str> {
        self.gates
            .iter()
            .filter(|g| g.enforced && !g.pass)
            .map(|g| g.name.as_str())
            .collect()
    }

    /// Write the BENCH file (`body`'s fields, then `hardware_threads`
    /// and `gates`), check it reads back as written, print every gate,
    /// and fail if an enforced gate failed.
    pub fn finish(self, body: &impl Serialize) -> Result<(), Box<dyn Error>> {
        let Value::Obj(mut fields) = body.to_value() else {
            return Err("a BENCH body must be a JSON object".into());
        };
        if let Some((key, _)) = fields
            .iter()
            .find(|(k, _)| k == "hardware_threads" || k == "gates")
        {
            return Err(format!("a BENCH body must not carry `{key}`: the report adds it").into());
        }
        fields.push((
            "hardware_threads".to_string(),
            Value::Num(self.hardware_threads as f64),
        ));
        fields.push(("gates".to_string(), gates_value(&self.gates)));
        let text = serde_json::to_string_pretty(&Value::Obj(fields))?;
        std::fs::write(&self.path, &text)?;
        // Compared as rendered text: a non-finite number renders as
        // `null`, so the trees differ even when the file is faithful.
        let back: Value = serde_json::from_str(&std::fs::read_to_string(&self.path)?)?;
        if serde_json::to_string_pretty(&back)? != text {
            return Err(format!("{} does not read back as written", self.path.display()).into());
        }
        for g in &self.gates {
            println!("  {}", g.line());
        }
        println!("  wrote {}", self.path.display());
        let failed = self.failures();
        if !failed.is_empty() {
            return Err(format!(
                "{} enforced gate(s) failed: {}",
                failed.len(),
                failed.join(", ")
            )
            .into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(measured: impl Serialize, op: Op, threshold: f64, enforce: Enforce, hw: usize) -> Gate {
        let mut r = Report::at("unused.json", false, hw);
        r.gate(&Spec::new("g", op, threshold, enforce), measured);
        r.gates.remove(0)
    }

    #[test]
    fn each_comparison_passes_fails_and_reports_only() {
        // (op, a passing value, a failing value) against threshold 2.
        for (op, good, bad) in [
            (Op::Ge, 2.0, 1.9),
            (Op::Gt, 2.1, 2.0),
            (Op::Le, 2.0, 2.1),
            (Op::Eq, 2.0, 2.5),
        ] {
            let pass = gate(good, op, 2.0, Enforce::Always, 1);
            assert!(pass.pass && pass.enforced, "{op:?}");
            let fail = gate(bad, op, 2.0, Enforce::Always, 1);
            assert!(!fail.pass && fail.enforced, "{op:?}");
            let report_only = gate(bad, op, 2.0, Enforce::MinThreads(4), 2);
            assert!(!report_only.pass && !report_only.enforced, "{op:?}");
        }
        let mut r = Report::at("unused.json", false, 1);
        r.gate(&Spec::holds("flag"), true);
        r.gate(&Spec::holds("flag"), false);
        assert_eq!((r.gates[0].pass, r.gates[1].pass), (true, false));
        assert_eq!(r.failures(), ["flag"]);
    }

    #[test]
    fn nan_fails_every_comparison() {
        for op in Op::ALL {
            let g = gate(f64::NAN, op, 0.0, Enforce::Always, 1);
            assert!(!g.pass && g.enforced, "{op:?}");
        }
        assert!(!passes(&Value::Num(1.0), Op::Eq, &Value::Bool(true)));
        assert!(!passes(&Value::Bool(true), Op::Ge, &Value::Bool(true)));
    }

    #[test]
    fn enforce_when_follows_smoke_and_hardware_threads() {
        let full = Enforce::FullRunMinThreads(4);
        assert!(full.applies(false, 4));
        assert!(!full.applies(true, 64));
        assert!(!full.applies(false, 3));
        assert!(Enforce::MinThreads(4).applies(true, 4));
        assert!(!Enforce::MinThreads(4).applies(false, 2));
        assert!(Enforce::Always.applies(true, 1));

        let mut r = Report::at("unused.json", false, 8);
        r.unmeasured_at(&Spec::new("floor", Op::Ge, 1.0, Enforce::Always), 100);
        assert_eq!(r.gates[0].name, "floor[100]");
        assert!(!r.gates[0].pass && !r.gates[0].enforced);
        assert!(r.failures().is_empty());
    }

    #[test]
    fn gates_array_round_trips() {
        let mut r = Report::at("unused.json", true, 2);
        r.gate(
            &Spec::new("speedup", Op::Ge, 10.0, Enforce::FullRunMinThreads(4)),
            14.25,
        );
        r.gate_at(
            &Spec::new("count", Op::Gt, 0.0, Enforce::Always),
            "seed 7",
            3usize,
        );
        r.gate(&Spec::holds("parity"), true);
        r.unmeasured_at(&Spec::new("recall", Op::Le, 0.5, Enforce::Always), 100_000);
        let text = serde_json::to_string_pretty(&Value::Obj(vec![(
            "gates".to_string(),
            gates_value(&r.gates),
        )]))
        .unwrap();
        let back = read_gates(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r.gates);
        assert_eq!(back[3].name, "recall[100000]");
        assert!(check_document(&serde_json::from_str(&text).unwrap(), false).is_empty());
    }

    #[test]
    fn finish_writes_before_failing_and_rejects_reserved_keys() {
        let dir = std::env::temp_dir().join(format!("nassim-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let body = Value::Obj(vec![("runs".to_string(), Value::Num(3.0))]);

        let mut r = Report::at(&path, false, 1);
        r.gate(&Spec::holds("parity"), false);
        let err = r.finish(&body).unwrap_err().to_string();
        assert!(err.contains("parity"), "{err}");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("runs"), Some(&Value::Num(3.0)));
        assert_eq!(doc.get("hardware_threads"), Some(&Value::Num(1.0)));
        assert_eq!(check_document(&doc, false).len(), 1);

        let mut r = Report::at(&path, false, 1);
        r.gate(
            &Spec::new("floor", Op::Ge, 2.0, Enforce::MinThreads(4)),
            1.0,
        );
        r.finish(&body).unwrap();

        let clash = Value::Obj(vec![("gates".to_string(), Value::Null)]);
        assert!(Report::at(&path, false, 1).finish(&clash).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
