//! The recorded outputs every run is checked against.
//!
//! `reference.json` holds the FNV-1a digest of each artifact's quick
//! tables (title line plus CSV) and of their concatenation, and the exact
//! makespan and event count of each steady-loop scenario. Regenerate it
//! with `perfbench record > perfbench/reference.json` only when a change
//! is meant to alter simulated results.

use corescope_sched::json::{self, Value};

const RECORDED: &str = include_str!("../reference.json");

/// Expected outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Digest of every artifact's tables, concatenated in catalogue order.
    pub sweep_digest: u64,
    /// Digest of each artifact's tables, by artifact id.
    pub artifacts: Vec<(String, u64)>,
    /// Each steady-loop scenario: name, makespan (exact bits), events.
    pub steady: Vec<(String, f64, usize)>,
}

impl Reference {
    /// The reference compiled into the benchmark.
    pub fn recorded() -> Self {
        Self::parse(RECORDED).expect("perfbench/reference.json is well-formed")
    }

    /// Parses [`Reference::render`] output.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let hex = |v: Option<&Value>, what: &str| {
            v.and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or(format!("reference needs a hex digest for {what}"))
        };
        let quick = root.get("quick_sweep").ok_or("reference needs \"quick_sweep\"")?;
        let sweep_digest = hex(quick.get("digest"), "the sweep")?;
        let artifacts = quick
            .get("artifacts")
            .and_then(Value::as_obj)
            .ok_or("reference needs \"artifacts\"")?
            .iter()
            .map(|(id, v)| Ok((id.clone(), hex(Some(v), id)?)))
            .collect::<Result<_, String>>()?;
        let steady = root
            .get("steady_loop")
            .and_then(Value::as_arr)
            .ok_or("reference needs \"steady_loop\"")?
            .iter()
            .map(|v| {
                let name =
                    v.get("name").and_then(Value::as_str).ok_or("steady entry needs a name")?;
                let makespan = v
                    .get("makespan")
                    .and_then(Value::as_f64)
                    .ok_or("steady entry needs a makespan")?;
                let events =
                    v.get("events").and_then(Value::as_usize).ok_or("steady entry needs events")?;
                Ok((name.to_string(), makespan, events))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { sweep_digest, artifacts, steady })
    }

    /// Pretty JSON, the format of `reference.json`.
    pub fn render(&self) -> String {
        let artifacts: Vec<String> =
            self.artifacts.iter().map(|(id, d)| format!("      \"{id}\": \"{d:016x}\"")).collect();
        let steady: Vec<String> = self
            .steady
            .iter()
            .map(|(name, makespan, events)| {
                format!(
                    "    {{\"name\": \"{name}\", \"makespan\": {}, \"events\": {events}}}",
                    json::num(*makespan)
                )
            })
            .collect();
        format!(
            "{{\n  \"quick_sweep\": {{\n    \"digest\": \"{:016x}\",\n    \"artifacts\": {{\n{}\n    }}\n  }},\n  \
             \"steady_loop\": [\n{}\n  ]\n}}\n",
            self.sweep_digest,
            artifacts.join(",\n"),
            steady.join(",\n")
        )
    }

    /// The recorded digest of one artifact's tables.
    pub fn artifact(&self, id: &str) -> Option<u64> {
        self.artifacts.iter().find(|(a, _)| a == id).map(|&(_, d)| d)
    }

    /// The recorded makespan and events of one steady-loop scenario.
    pub fn steady(&self, name: &str) -> Option<(f64, usize)> {
        self.steady.iter().find(|(n, ..)| n == name).map(|&(_, m, e)| (m, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_reference_round_trips() {
        let reference = Reference::recorded();
        assert_eq!(reference.artifacts.len(), 39);
        assert_eq!(reference.steady.len(), 2);
        assert_eq!(Reference::parse(&reference.render()), Ok(reference));
    }
}
