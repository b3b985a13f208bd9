//! The one-line result every run prints last, and a parser for it.
//!
//! ```text
//! {"correct":true,"attempted":34,"failed":0,"metrics":{"setup_s":{"value":0.0012,"unit":"s"}}}
//! ```

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: String,
}

/// What a run reports: whether every output check passed, how many
/// operations were attempted and failed, and the metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (verdicts, jobs, live updates and sessions).
    pub attempted: u64,
    /// Operations that failed (missing, refused or mismatched).
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result as one JSON object on one line.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric value, which JSON cannot carry and
    /// which no metric of this benchmark can legitimately take.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    escape(&m.name),
                    m.value,
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Parses a line produced by [`RunResult::to_json`] (any JSON object
    /// with the same keys and shapes; whitespace and key order are free).
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let Json::Object(top) = p.document()? else {
            return Err("result is not an object".into());
        };
        let mut correct = None;
        let mut attempted = None;
        let mut failed = None;
        let mut metrics = None;
        for (key, value) in top {
            match (key.as_str(), value) {
                ("correct", Json::Bool(b)) => correct = Some(b),
                ("attempted", Json::Number(n)) => attempted = Some(whole(n)?),
                ("failed", Json::Number(n)) => failed = Some(whole(n)?),
                ("metrics", Json::Object(entries)) => {
                    let mut out = Vec::with_capacity(entries.len());
                    for (name, entry) in entries {
                        out.push(metric(name, entry)?);
                    }
                    metrics = Some(out);
                }
                (other, _) => return Err(format!("unexpected key or type: {other}")),
            }
        }
        Ok(RunResult {
            correct: correct.ok_or("missing correct")?,
            attempted: attempted.ok_or("missing attempted")?,
            failed: failed.ok_or("missing failed")?,
            metrics: metrics.ok_or("missing metrics")?,
        })
    }
}

fn metric(name: String, entry: Json) -> Result<Metric, String> {
    let Json::Object(fields) = entry else {
        return Err(format!("metric {name} is not an object"));
    };
    let mut value = None;
    let mut unit = None;
    for (key, v) in fields {
        match (key.as_str(), v) {
            ("value", Json::Number(n)) => value = Some(n),
            ("unit", Json::String(u)) => unit = Some(u),
            (other, _) => return Err(format!("metric {name}: unexpected {other}")),
        }
    }
    Ok(Metric {
        value: value.ok_or_else(|| format!("metric {name}: missing value"))?,
        unit: unit.ok_or_else(|| format!("metric {name}: missing unit"))?,
        name,
    })
}

fn whole(n: f64) -> Result<u64, String> {
    if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
        Ok(n as u64)
    } else {
        Err(format!("{n} is not a whole number"))
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The JSON subset the result line uses.
#[derive(Debug)]
enum Json {
    Bool(bool),
    Number(f64),
    String(String),
    Object(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn document(&mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.ws();
        if self.i != self.s.len() {
            return Err(format!("trailing bytes at {}", self.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(_) => self.number(),
            None => Err("unexpected end".into()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    match self.s.get(self.i + 1) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err(format!("unsupported escape at {}", self.i)),
                    }
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.i)),
            }
        }
    }
}
