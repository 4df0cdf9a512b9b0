//! Chrome trace-event validator for the CI flight-recorder smoke step.
//!
//! ```text
//! trace_check FILE.json [--require NAME]...
//! ```
//!
//! Validates that FILE.json is a Perfetto-loadable Chrome trace document:
//! a JSON object whose `traceEvents` array is non-empty, where every
//! event carries `ph`/`ts`/`pid`/`tid`/`name`, and every complete
//! (`"ph":"X"`) event has non-negative `ts` and `dur`. Each `--require
//! NAME` additionally asserts that at least one complete event with that
//! span name exists — CI requires `queue_wait`, `job_run`, `grad_reduce`,
//! `epoch` and `encode` in the `trace.json` of a `run --out DIR` record.

use adaptraj_obs::json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: trace_check FILE.json [--require NAME]...");
    std::process::exit(2);
}

fn check(text: &str, required: &[String]) -> Result<String, String> {
    let v = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing 'traceEvents' array")?;
    if events.is_empty() {
        return Err("'traceEvents' is empty".into());
    }
    let mut complete = 0usize;
    let mut lanes = std::collections::BTreeSet::new();
    let mut names: BTreeMap<String, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        for key in ["ph", "ts", "pid", "tid", "name"] {
            if e.get(key).is_none() {
                return Err(format!("event #{i} missing '{key}'"));
            }
        }
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        let name = e.get("name").and_then(Value::as_str).unwrap_or("");
        // `ts`/`dur` are emitted as unsigned integers; a negative or
        // non-numeric value fails to parse as u64.
        if e.get("ts").and_then(Value::as_u64).is_none() {
            return Err(format!("event #{i} ('{name}') has non-u64 'ts'"));
        }
        if ph == "X" {
            if e.get("dur").and_then(Value::as_u64).is_none() {
                return Err(format!("event #{i} ('{name}') has non-u64 'dur'"));
            }
            complete += 1;
            lanes.insert(e.get("tid").and_then(Value::as_u64).unwrap_or(0));
            *names.entry(name.to_string()).or_insert(0) += 1;
        }
    }
    if complete == 0 {
        return Err("no complete ('ph':'X') events".into());
    }
    for req in required {
        if !names.contains_key(req) {
            return Err(format!(
                "required span '{req}' absent (spans present: {:?})",
                names.keys().collect::<Vec<_>>()
            ));
        }
    }
    let top: Vec<String> = names.iter().map(|(n, c)| format!("{n}×{c}")).collect();
    Ok(format!(
        "{} events, {complete} spans across {} lanes: {}",
        events.len(),
        lanes.len(),
        top.join(" ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut required = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require" => match it.next() {
                Some(name) => required.push(name),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ if file.is_none() => file = Some(a),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&text, &required) {
        Ok(summary) => {
            println!("trace_check: {file}: OK ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {file}: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ph: &str, name: &str, ts: &str, dur: &str, tid: u64) -> String {
        format!(
            "{{\"ph\":\"{ph}\",\"name\":\"{name}\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":1,\"tid\":{tid}}}"
        )
    }

    fn doc(events: &[String]) -> String {
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    #[test]
    fn valid_trace_passes_with_requirements() {
        let d = doc(&[
            event("M", "thread_name", "0", "0", 1),
            event("X", "job_run", "10", "5", 1),
            event("X", "queue_wait", "8", "2", 2),
        ]);
        let summary = check(&d, &["job_run".into(), "queue_wait".into()]).unwrap();
        assert!(summary.contains("2 spans across 2 lanes"), "{summary}");
    }

    #[test]
    fn missing_required_span_fails() {
        let d = doc(&[event("X", "job_run", "10", "5", 1)]);
        let err = check(&d, &["grad_reduce".into()]).unwrap_err();
        assert!(err.contains("grad_reduce"), "{err}");
    }

    #[test]
    fn missing_keys_and_negative_durations_fail() {
        assert!(check("{}", &[]).unwrap_err().contains("traceEvents"));
        assert!(check("{\"traceEvents\":[]}", &[])
            .unwrap_err()
            .contains("empty"));
        let no_name = "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        assert!(check(no_name, &[]).unwrap_err().contains("name"));
        let neg = doc(&[event("X", "j", "3", "-4", 1)]);
        assert!(check(&neg, &[]).unwrap_err().contains("dur"));
        let neg_ts = doc(&[event("X", "j", "-3", "4", 1)]);
        assert!(check(&neg_ts, &[]).unwrap_err().contains("ts"));
    }

    #[test]
    fn metadata_only_trace_fails() {
        let d = doc(&[event("M", "thread_name", "0", "0", 1)]);
        assert!(check(&d, &[]).unwrap_err().contains("no complete"));
    }
}
