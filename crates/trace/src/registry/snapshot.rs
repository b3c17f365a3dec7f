//! Point-in-time registry snapshots: deltas, Prometheus text
//! exposition, and a small parser for validating scraped output.

use super::Labels;
use crate::audit::GaugeValue;
use crate::hist::bucket_upper;

/// A sampled histogram: total count, total sum (µs or bytes, per the
/// series' unit), and raw per-log2-bucket counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSample {
    pub count: u64,
    pub sum_us: u64,
    pub buckets: Vec<u64>,
}

impl HistSample {
    fn delta(&self, prev: &HistSample) -> HistSample {
        HistSample {
            count: self.count.saturating_sub(prev.count),
            sum_us: self.sum_us.saturating_sub(prev.sum_us),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, b)| b.saturating_sub(prev.buckets.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// One series' value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistSample),
}

/// One series in a snapshot: name, labels, value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSample {
    pub name: String,
    pub labels: Labels,
    pub value: SampleValue,
}

/// Every registered series' value at one instant. Snapshots are plain
/// data: diffable ([`Snapshot::delta`]), renderable
/// ([`Snapshot::to_prometheus`]), and safe to hold across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Free-form tag — the job name for epoch snapshots taken at job
    /// completion, empty for ad-hoc snapshots.
    pub label: String,
    /// Epoch sequence number (0 for ad-hoc snapshots).
    pub seq: u64,
    pub series: Vec<SeriesSample>,
}

impl Snapshot {
    /// Look up one series' value by exact name + labels.
    pub fn get(&self, name: &str, labels: &Labels) -> Option<&SampleValue> {
        self.series
            .iter()
            .find(|s| s.name == name && s.labels == *labels)
            .map(|s| &s.value)
    }

    /// Sum a counter across every label set carrying `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                SampleValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// This snapshot minus `prev`: counters and histograms subtract
    /// (saturating, so a restarted series reads as its current value
    /// rather than wrapping); gauges are instantaneous and pass
    /// through unchanged. Series absent from `prev` keep their value.
    pub fn delta(&self, prev: &Snapshot) -> Snapshot {
        let series = self
            .series
            .iter()
            .map(|s| {
                let value = match (&s.value, prev.get(&s.name, &s.labels)) {
                    (SampleValue::Counter(now), Some(SampleValue::Counter(before))) => {
                        SampleValue::Counter(now.saturating_sub(*before))
                    }
                    (SampleValue::Histogram(now), Some(SampleValue::Histogram(before))) => {
                        SampleValue::Histogram(now.delta(before))
                    }
                    (value, _) => value.clone(),
                };
                SeriesSample {
                    name: s.name.clone(),
                    labels: s.labels.clone(),
                    value,
                }
            })
            .collect();
        Snapshot {
            label: self.label.clone(),
            seq: self.seq,
            series,
        }
    }

    /// Every live gauge series labeled `engine`, named the way
    /// `/metrics` shows it minus the engine label
    /// (`queue_depth{node="1",flowlet="2"}`) — what the watchdog reads
    /// each epoch and a flight record dumps. Job-labeled gauges
    /// describe a completed job's data, not live state, and are left
    /// out.
    pub fn engine_gauges(&self, engine: &str) -> Vec<GaugeValue> {
        self.series
            .iter()
            .filter(|s| s.labels.engine.as_deref() == Some(engine) && s.labels.job.is_none())
            .filter_map(|s| match s.value {
                SampleValue::Gauge(value) => {
                    let labels = Labels {
                        engine: None,
                        ..s.labels.clone()
                    };
                    Some(GaugeValue {
                        name: format!("{}{}", s.name, render_labels(&labels, None)),
                        node: s.labels.node.unwrap_or(u32::MAX),
                        value,
                    })
                }
                _ => None,
            })
            .collect()
    }

    /// Render the snapshot in the Prometheus text exposition format.
    /// Every series gains a `hamr_` prefix; histograms expose
    /// cumulative `_bucket{le=...}` samples plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        // The format wants all samples of one metric in a single
        // group, so walk distinct names in first-appearance order.
        let mut names: Vec<&str> = Vec::new();
        for s in &self.series {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        for name in names {
            let group: Vec<&SeriesSample> = self.series.iter().filter(|s| s.name == name).collect();
            let metric = sanitize_metric_name(name);
            let kind = match group[0].value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE hamr_{metric} {kind}\n"));
            for s in group {
                let labels = render_labels(&s.labels, None);
                match &s.value {
                    SampleValue::Counter(v) => {
                        out.push_str(&format!("hamr_{metric}{labels} {v}\n"));
                    }
                    SampleValue::Gauge(v) => {
                        out.push_str(&format!("hamr_{metric}{labels} {v}\n"));
                    }
                    SampleValue::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (b, n) in h.buckets.iter().enumerate() {
                            if *n == 0 {
                                continue;
                            }
                            cumulative += n;
                            let le = if b + 1 >= h.buckets.len() {
                                "+Inf".to_string()
                            } else {
                                bucket_upper(b).to_string()
                            };
                            let labels = render_labels(&s.labels, Some(&le));
                            out.push_str(&format!("hamr_{metric}_bucket{labels} {cumulative}\n"));
                        }
                        let inf = render_labels(&s.labels, Some("+Inf"));
                        out.push_str(&format!("hamr_{metric}_bucket{inf} {}\n", h.count));
                        out.push_str(&format!("hamr_{metric}_sum{labels} {}\n", h.sum_us));
                        out.push_str(&format!("hamr_{metric}_count{labels} {}\n", h.count));
                    }
                }
            }
        }
        out
    }
}

fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escape a Prometheus label *value*: the exposition format requires
/// `\`, `"` and newlines inside quoted label values to be escaped.
fn prometheus_label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &Labels, le: Option<&str>) -> String {
    let mut pairs: Vec<String> = labels
        .pairs()
        .into_iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prometheus_label_escape(&v)))
        .collect();
    if let Some(le) = le {
        pairs.push(format!("le=\"{le}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// One parsed sample line from a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    pub name: String,
    /// Label pairs in source order, values unescaped.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse a Prometheus text exposition into samples, rejecting
/// malformed lines. This is the validator the HTTP integration tests
/// and the `--metrics-out` CI scrape run against `/metrics` output.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ") || rest.is_empty()) {
                return Err(format!("line {}: unknown comment form: {raw}", lineno + 1));
            }
            continue;
        }
        out.push(parse_sample_line(line).map_err(|e| format!("line {}: {e}: {raw}", lineno + 1))?);
    }
    Ok(out)
}

fn parse_sample_line(line: &str) -> Result<PromSample, String> {
    let (ident, value_str) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or("unclosed label braces")?;
            if close < open {
                return Err("mismatched label braces".into());
            }
            (line[..close + 1].trim(), line[close + 1..].trim())
        }
        None => {
            let mut it = line.splitn(2, char::is_whitespace);
            let name = it.next().ok_or("empty line")?;
            (name, it.next().unwrap_or("").trim())
        }
    };
    let (name, labels) = match ident.find('{') {
        Some(open) => (
            &ident[..open],
            parse_labels(&ident[open + 1..ident.len() - 1])?,
        ),
        None => (ident, Vec::new()),
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        return Err(format!("invalid metric name {name:?}"));
    }
    let value: f64 = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .split_whitespace()
            .next()
            .ok_or("missing value")?
            .parse()
            .map_err(|_| format!("bad value {value_str:?}"))?,
    };
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label missing '='")?;
        let key = rest[..eq].trim();
        if key.is_empty() {
            return Err("empty label name".into());
        }
        let after = rest[eq + 1..].trim_start();
        let mut chars = after.char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err("label value not quoted".into());
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                match c {
                    'n' => value.push('\n'),
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    other => return Err(format!("bad escape \\{other}")),
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or("unterminated label value")?;
        out.push((key.to_string(), value));
        rest = after[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::{Labels, MetricsRegistry};
    use super::*;

    #[test]
    fn exposition_round_trips_through_parser() {
        let r = MetricsRegistry::new();
        r.counter(
            "shuffled_bytes_total",
            Labels::new().job("wc").engine("hamr").node(0),
        )
        .add(1234);
        r.gauge("queue_depth", Labels::new().node(1).flowlet(2))
            .set(-3);
        let h = r.histogram("task_latency_us", Labels::new().flowlet(0));
        h.record_us(5);
        h.record_us(900);
        let text = r.snapshot().to_prometheus();
        let samples = parse_prometheus(&text).expect("valid exposition");
        let counter = samples
            .iter()
            .find(|s| s.name == "hamr_shuffled_bytes_total")
            .expect("counter present");
        assert_eq!(counter.value, 1234.0);
        assert_eq!(counter.label("job"), Some("wc"));
        assert_eq!(counter.label("engine"), Some("hamr"));
        assert_eq!(counter.label("node"), Some("0"));
        let gauge = samples
            .iter()
            .find(|s| s.name == "hamr_queue_depth")
            .expect("gauge present");
        assert_eq!(gauge.value, -3.0);
        assert_eq!(gauge.label("flowlet"), Some("2"));
        // Histogram: +Inf bucket equals _count, buckets are cumulative.
        let inf = samples
            .iter()
            .find(|s| s.name == "hamr_task_latency_us_bucket" && s.label("le") == Some("+Inf"))
            .expect("+Inf bucket");
        assert_eq!(inf.value, 2.0);
        let count = samples
            .iter()
            .find(|s| s.name == "hamr_task_latency_us_count")
            .expect("_count");
        assert_eq!(count.value, 2.0);
        let sum = samples
            .iter()
            .find(|s| s.name == "hamr_task_latency_us_sum")
            .expect("_sum");
        assert_eq!(sum.value, 905.0);
        let mut bucket_values: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "hamr_task_latency_us_bucket")
            .map(|s| s.value)
            .collect();
        let sorted = {
            let mut v = bucket_values.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        assert_eq!(bucket_values, sorted, "cumulative buckets are monotone");
        bucket_values.dedup();
        assert!(!bucket_values.is_empty());
    }

    #[test]
    fn delta_subtracts_counters_and_histograms_only() {
        let r = MetricsRegistry::new();
        let c = r.counter("records_total", Labels::new());
        let g = r.gauge("inflight", Labels::new());
        let h = r.histogram("lat_us", Labels::new());
        c.add(10);
        g.set(7);
        h.record_us(100);
        let before = r.snapshot();
        c.add(5);
        g.set(3);
        h.record_us(200);
        h.record_us(300);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert!(matches!(
            d.get("records_total", &Labels::new()),
            Some(SampleValue::Counter(5))
        ));
        assert!(matches!(
            d.get("inflight", &Labels::new()),
            Some(SampleValue::Gauge(3))
        ));
        match d.get("lat_us", &Labels::new()) {
            Some(SampleValue::Histogram(hs)) => {
                assert_eq!(hs.count, 2);
                assert_eq!(hs.sum_us, 500);
                assert_eq!(hs.buckets.iter().sum::<u64>(), 2);
            }
            other => panic!("expected histogram delta, got {other:?}"),
        }
    }

    #[test]
    fn exposition_escapes_label_values_and_sanitizes_metric_names() {
        let r = MetricsRegistry::new();
        // A hostile label value (quotes, backslash, newline) and a
        // metric name with characters the format forbids.
        r.gauge("resident bytes", Labels::new().job("disk \"a\\b\"\nx"))
            .set(4);
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("job=\"disk \\\"a\\\\b\\\"\\nx\""),
            "label value must be escaped: {text}"
        );
        assert!(
            text.contains("hamr_resident_bytes{"),
            "metric name must be sanitized: {text}"
        );
        let samples = parse_prometheus(&text).expect("escaped exposition parses");
        let g = samples
            .iter()
            .find(|s| s.name == "hamr_resident_bytes")
            .expect("gauge present");
        assert_eq!(g.label("job"), Some("disk \"a\\b\"\nx"));
        assert_eq!(g.value, 4.0);
    }

    #[test]
    fn engine_gauges_keep_live_series_of_one_engine() {
        let r = MetricsRegistry::new();
        let hamr = || Labels::new().engine("hamr");
        r.gauge("queue_depth", hamr().node(1).flowlet(2)).set(3);
        r.gauge("net_inflight_bytes", hamr()).set(9);
        r.gauge("queue_depth", Labels::new().engine("mapred").node(1))
            .set(4);
        r.gauge("stats_shuffle_distinct_keys", hamr().job("wc"))
            .set(5);
        r.counter("shuffled_bytes_total", hamr().node(1)).add(6);
        let gauges = r.snapshot().engine_gauges("hamr");
        assert_eq!(
            gauges,
            vec![
                GaugeValue {
                    name: "queue_depth{node=\"1\",flowlet=\"2\"}".into(),
                    node: 1,
                    value: 3,
                },
                GaugeValue {
                    name: "net_inflight_bytes".into(),
                    node: u32::MAX,
                    value: 9,
                },
            ]
        );
        assert_eq!(gauges[0].metric(), "queue_depth");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_prometheus("hamr_x 1\n").is_ok());
        assert!(parse_prometheus("1bad_name 1\n").is_err());
        assert!(parse_prometheus("hamr_x{node=\"0\" 1\n").is_err());
        assert!(parse_prometheus("hamr_x{node=0} 1\n").is_err());
        assert!(parse_prometheus("hamr_x{node=\"0\"} notanumber\n").is_err());
        assert!(parse_prometheus("<html>nope</html>\n").is_err());
        let esc = parse_prometheus("hamr_x{job=\"a\\\"b\\\\c\"} 2\n").expect("escapes");
        assert_eq!(esc[0].label("job"), Some("a\"b\\c"));
    }

    #[test]
    fn counter_total_sums_across_label_sets() {
        let r = MetricsRegistry::new();
        r.counter("net_bytes_total", Labels::new().node(0)).add(10);
        r.counter("net_bytes_total", Labels::new().node(1)).add(32);
        r.gauge("net_bytes_total_wannabe", Labels::new()).set(99);
        assert_eq!(r.snapshot().counter_total("net_bytes_total"), 42);
        assert_eq!(r.snapshot().counter_total("absent"), 0);
    }
}
