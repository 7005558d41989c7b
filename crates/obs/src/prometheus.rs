//! Prometheus text exposition format: a builder and a line-by-line
//! grammar validator.

/// Builder for the Prometheus text exposition format (version 0.0.4).
///
/// Metric families (counters and gauges) are appended in call order; the
/// output of a deterministic run is itself deterministic.
#[derive(Debug, Default)]
pub struct PrometheusText {
    out: String,
}

impl PrometheusText {
    /// Start an empty exposition document.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(is_metric_name(name), "invalid metric name: {name}");
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// Append a monotonically increasing counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(&value.to_string());
        self.out.push('\n');
    }

    /// Append a gauge (point-in-time value).
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(&format_value(value));
        self.out.push('\n');
    }

    /// Finish the document.
    pub fn finish(self) -> String {
        self.out
    }
}

fn format_value(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Validate a document against the text exposition grammar, line by line.
///
/// Checks comment/`HELP`/`TYPE` structure, metric and label name character
/// sets, label quoting and escaping, and that every sample value parses as
/// a float (including `+Inf`/`-Inf`/`NaN`). Returns the first offending
/// line with its number.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    for (index, line) in text.lines().enumerate() {
        let lineno = index + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            validate_comment(comment).map_err(|e| format!("line {lineno}: {e}: {line:?}"))?;
        } else {
            validate_sample(line).map_err(|e| format!("line {lineno}: {e}: {line:?}"))?;
        }
    }
    Ok(())
}

fn validate_comment(comment: &str) -> Result<(), String> {
    let Some(body) = comment.strip_prefix(' ') else {
        // A bare `#` or `#something` is an ordinary comment.
        return Ok(());
    };
    if let Some(rest) = body.strip_prefix("HELP ") {
        let (name, help) = rest
            .split_once(' ')
            .ok_or_else(|| "HELP missing metric name or text".to_string())?;
        if !is_metric_name(name) {
            return Err(format!("HELP has invalid metric name {name:?}"));
        }
        if help.is_empty() {
            return Err("HELP has empty help text".to_string());
        }
        Ok(())
    } else if let Some(rest) = body.strip_prefix("TYPE ") {
        let (name, kind) = rest
            .split_once(' ')
            .ok_or_else(|| "TYPE missing metric name or kind".to_string())?;
        if !is_metric_name(name) {
            return Err(format!("TYPE has invalid metric name {name:?}"));
        }
        match kind {
            "counter" | "gauge" | "histogram" | "summary" | "untyped" => Ok(()),
            other => Err(format!("TYPE has unknown kind {other:?}")),
        }
    } else {
        // `# anything else` is an ordinary comment.
        Ok(())
    }
}

fn validate_sample(line: &str) -> Result<(), String> {
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| "sample missing value".to_string())?;
    let name = &line[..name_end];
    if !is_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let rest = &line[name_end..];
    let rest = if let Some(labels) = rest.strip_prefix('{') {
        let close = find_label_close(labels).ok_or_else(|| "unterminated label set".to_string())?;
        validate_labels(&labels[..close])?;
        labels[close + 1..]
            .strip_prefix(' ')
            .ok_or_else(|| "missing space after label set".to_string())?
    } else {
        rest.strip_prefix(' ')
            .ok_or_else(|| "missing space before value".to_string())?
    };
    // `value [timestamp]`
    let mut parts = rest.split(' ');
    let value = parts.next().unwrap_or_default();
    value
        .parse::<f64>()
        .map_err(|_| format!("invalid sample value {value:?}"))?;
    if let Some(timestamp) = parts.next() {
        timestamp
            .parse::<i64>()
            .map_err(|_| format!("invalid timestamp {timestamp:?}"))?;
    }
    if parts.next().is_some() {
        return Err("trailing garbage after timestamp".to_string());
    }
    Ok(())
}

/// Find the index of the closing `}` of a label set, honouring `\"` escapes
/// inside quoted label values.
fn find_label_close(labels: &str) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (index, c) in labels.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c == '}' {
            return Some(index);
        }
    }
    None
}

fn validate_labels(body: &str) -> Result<(), String> {
    if body.is_empty() {
        return Ok(());
    }
    let mut rest = body;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| "label missing '='".to_string())?;
        let label = &rest[..eq];
        if !is_label_name(label) {
            return Err(format!("invalid label name {label:?}"));
        }
        let after = &rest[eq + 1..];
        let quoted = after
            .strip_prefix('"')
            .ok_or_else(|| "label value missing opening quote".to_string())?;
        let mut escaped = false;
        let mut close = None;
        for (index, c) in quoted.char_indices() {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("invalid escape \\{c} in label value"));
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(index);
                break;
            }
        }
        let close = close.ok_or_else(|| "label value missing closing quote".to_string())?;
        rest = &quoted[close + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| "labels must be comma-separated".to_string())?;
        if rest.is_empty() {
            // Trailing comma is tolerated by the reference parser.
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_output_passes_the_grammar_validator() {
        let mut text = PrometheusText::new();
        text.counter("dice_rounds_total", "Exploration rounds completed.", 12);
        text.gauge("dice_policy_coverage", "Policy branch coverage.", 0.875);
        text.gauge("dice_updates_per_second", "Ingest rate.", 15000.0);
        let doc = text.finish();
        validate_prometheus_text(&doc).expect("builder output is valid");
        assert!(doc.contains("# TYPE dice_rounds_total counter"));
        assert!(doc.contains("dice_rounds_total 12"));
        assert!(doc.contains("dice_policy_coverage 0.875"));
        assert!(doc.contains("dice_updates_per_second 15000"));
    }

    #[test]
    fn validator_accepts_labels_escapes_and_special_values() {
        let doc = concat!(
            "# a plain comment\n",
            "# HELP up Whether the target is up.\n",
            "# TYPE up gauge\n",
            "up{instance=\"node\\\"1\\\"\",job=\"dice\"} 1\n",
            "corner{msg=\"line\\nbreak\"} +Inf\n",
            "negative -Inf 1700000000\n",
            "not_a_number NaN\n",
        );
        validate_prometheus_text(doc).expect("all lines valid");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "1badname 3",
            "metric",
            "metric{unclosed=\"x\" 3",
            "metric{2bad=\"x\"} 3",
            "metric{a=\"x\"b=\"y\"} 3",
            "metric not-a-float",
            "metric 3 not-a-timestamp",
            "metric 3 12 extra",
            "# TYPE metric wat",
            "# HELP metric",
        ] {
            assert!(
                validate_prometheus_text(bad).is_err(),
                "accepted malformed line {bad:?}"
            );
        }
    }
}
