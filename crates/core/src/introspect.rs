//! The cluster's live introspection plane: the unified metrics
//! registry plus the embedded HTTP endpoint that serves it.
//!
//! Every [`Cluster`](crate::Cluster) owns one [`Introspect`]. Runs
//! publish into its [`MetricsRegistry`] (net/disk counters and node
//! gauges live on every run, job metrics at completion)
//! and, when enabled, a loopback [`HttpServer`] exposes three routes:
//!
//! * `/metrics` — every registered series in Prometheus text format,
//!   scrapeable mid-run;
//! * `/healthz` — JSON run-state: jobs running/completed/failed and
//!   the most recent unresolved watchdog incident (503 while one is
//!   active);
//! * `/doctor` — a live flight-recorder dump (`FlightRecord` JSON)
//!   built from the current run's trace ring, audit ledger, and
//!   gauges — what `tracedump --doctor` reads post-mortem, but
//!   available while the job is still wedged.
//!
//! The endpoint is off by default so tests and benchmarks stay
//! hermetic; opt in with `HAMR_HTTP=auto` (ephemeral port),
//! `HAMR_HTTP=<port>`, or [`Cluster::serve_introspection`].

use hamr_trace::{
    AlertEngine, AlertEvent, AlertRule, AlertState, Audit, FlightRecord, HttpResponse, HttpServer,
    Journal, JournalRecord, MetricsRegistry, RingSink, RouteHandler, Snapshot, StatsSnapshot,
};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Escape a string for embedding in a JSON value.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// How the embedded endpoint is configured, usually via `HAMR_HTTP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HttpMode {
    /// No listener (the default — tests stay hermetic).
    #[default]
    Off,
    /// Bind an ephemeral loopback port.
    Auto,
    /// Bind this specific loopback port.
    Port(u16),
}

impl HttpMode {
    /// Parse `HAMR_HTTP=off|auto|<port>` (unset means `Off`).
    pub fn from_env() -> Self {
        match std::env::var("HAMR_HTTP").as_deref() {
            Err(_) | Ok("off") | Ok("") => HttpMode::Off,
            Ok("auto") => HttpMode::Auto,
            Ok(other) => match other.parse::<u16>() {
                Ok(port) => HttpMode::Port(port),
                Err(_) => panic!("HAMR_HTTP must be off|auto|<port>, got '{other}'"),
            },
        }
    }
}

/// Live cluster run-state, served at `/healthz`.
#[derive(Debug, Clone, Default)]
pub struct Health {
    /// Jobs currently inside `run_inner`.
    pub running_jobs: u32,
    pub jobs_completed: u64,
    pub jobs_failed: u64,
    /// Warn-only watchdog incidents observed (stragglers).
    pub warnings: u64,
    /// The most recent liveness incident (backpressure/hang) not yet
    /// cleared by a cleanly completing job. `/healthz` serves 503
    /// while this is set.
    pub incident: Option<String>,
    /// When `incident` was posted, on the introspection clock
    /// ([`Introspect::now_us`]) — lets `/healthz` report how long the
    /// cluster has been wedged.
    pub incident_since_us: Option<u64>,
    /// When a job last completed cleanly, on the same clock.
    pub last_clean_completion_us: Option<u64>,
}

impl Health {
    /// True when no liveness incident is outstanding.
    pub fn healthy(&self) -> bool {
        self.incident.is_none()
    }

    /// Render for `/healthz`, computing ages against `now_us` (the
    /// introspection clock at request time).
    pub fn to_json_at(&self, now_us: u64) -> String {
        let mut out = format!(
            "{{\"status\":\"{}\",\"running_jobs\":{},\"jobs_completed\":{},\
             \"jobs_failed\":{},\"warnings\":{},\"now_us\":{}",
            if self.healthy() { "ok" } else { "incident" },
            self.running_jobs,
            self.jobs_completed,
            self.jobs_failed,
            self.warnings,
            now_us,
        );
        if let Some(incident) = &self.incident {
            out.push_str(&format!(",\"incident\":\"{}\"", json_escape(incident)));
        }
        match self.incident_since_us {
            Some(since) => out.push_str(&format!(
                ",\"incident_age_us\":{}",
                now_us.saturating_sub(since)
            )),
            None => out.push_str(",\"incident_age_us\":null"),
        }
        match self.last_clean_completion_us {
            Some(at) => out.push_str(&format!(
                ",\"last_clean_completion_us\":{},\"last_clean_completion_age_us\":{}",
                at,
                now_us.saturating_sub(at)
            )),
            None => out.push_str(
                ",\"last_clean_completion_us\":null,\"last_clean_completion_age_us\":null",
            ),
        }
        out.push('}');
        out
    }
}

/// Alert-rule evaluation shared between the watchdog epoch hook, job
/// completion, and the `/alerts` endpoint: one engine, a transition
/// log, and journaling of every transition.
#[derive(Default)]
pub(crate) struct AlertCenter {
    engine: Mutex<AlertEngine>,
    log: Mutex<Vec<AlertEvent>>,
}

impl AlertCenter {
    fn new() -> Self {
        AlertCenter {
            engine: Mutex::new(AlertEngine::with_default_rules()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Replace the rule set (resets all rule state; the transition log
    /// is kept).
    pub fn set_rules(&self, rules: Vec<AlertRule>) {
        self.engine
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .set_rules(rules);
    }

    /// Evaluate against a snapshot; journal and log any transitions.
    pub fn evaluate(
        &self,
        snap: &Snapshot,
        t_us: u64,
        journal: Option<&Arc<Journal>>,
    ) -> Vec<AlertEvent> {
        let events = self
            .engine
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .evaluate(snap, t_us);
        if events.is_empty() {
            return events;
        }
        if let Some(journal) = journal {
            for ev in &events {
                journal.append(&JournalRecord::Alert {
                    rule: ev.rule.clone(),
                    firing: ev.firing,
                    t_us: ev.t_us,
                    value: ev.value,
                    threshold: ev.threshold,
                    detail: ev.detail.clone(),
                });
            }
        }
        self.log
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend(events.iter().cloned());
        events
    }

    pub fn states(&self) -> Vec<AlertState> {
        self.engine
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .states()
    }

    /// Every transition observed since the cluster was built.
    pub fn log(&self) -> Vec<AlertEvent> {
        self.log.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Render for `/alerts`.
    pub fn to_json(&self, now_us: u64) -> String {
        let states = self.states();
        let mut out = format!(
            "{{\"firing\":{},\"now_us\":{now_us},\"rules\":[",
            states.iter().filter(|s| s.firing).count()
        );
        for (i, s) in states.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"firing\":{},\"since_us\":{},\"value\":{},\
                 \"threshold\":{},\"fired_total\":{},\"detail\":\"{}\"}}",
                json_escape(&s.rule),
                s.firing,
                s.since_us
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "null".into()),
                if s.last_value.is_finite() {
                    format!("{:.6}", s.last_value)
                } else {
                    "null".into()
                },
                format_args!("{:.6}", s.threshold),
                s.fired_total,
                json_escape(&s.detail),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// What `/doctor` reads besides the registry's gauges: handles into
/// the most recent (possibly still running) run.
#[derive(Default)]
pub(crate) struct LiveRun {
    pub job: String,
    pub engine: &'static str,
    pub ring: Option<Arc<RingSink>>,
    pub audit: Option<Audit>,
}

/// Newest events kept in a live `/doctor` response.
const DOCTOR_KEEP_LAST: usize = 200;

/// The introspection plane one cluster owns: registry + health +
/// live-run handles + the (optional) embedded HTTP server.
pub(crate) struct Introspect {
    pub registry: MetricsRegistry,
    pub health: Arc<Mutex<Health>>,
    pub live: Arc<Mutex<LiveRun>>,
    pub alerts: Arc<AlertCenter>,
    /// Data-plane statistics of the most recently completed job
    /// (per-edge sketches + lineage samples), served at `/stats`.
    pub stats: Arc<Mutex<Option<StatsSnapshot>>>,
    /// The flight journal, when enabled (`HAMR_JOURNAL` or
    /// `Cluster::enable_journal`).
    journal: Arc<Mutex<Option<Arc<Journal>>>>,
    /// The introspection clock's origin: `/healthz` ages,
    /// `incident_since_us`, and alert timestamps all count
    /// microseconds from here.
    epoch: Instant,
    server: Mutex<Option<HttpServer>>,
}

impl Introspect {
    pub fn new() -> Self {
        Introspect {
            registry: MetricsRegistry::new(),
            health: Arc::new(Mutex::new(Health::default())),
            live: Arc::new(Mutex::new(LiveRun::default())),
            alerts: Arc::new(AlertCenter::new()),
            stats: Arc::new(Mutex::new(None)),
            journal: Arc::new(Mutex::new(None)),
            epoch: Instant::now(),
            server: Mutex::new(None),
        }
    }

    /// Microseconds since this cluster's introspection plane came up.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Install (or replace) the flight journal.
    pub fn set_journal(&self, journal: Option<Arc<Journal>>) {
        *self.journal.lock().unwrap_or_else(|p| p.into_inner()) = journal;
    }

    /// The current journal handle, if one is enabled.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.journal
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Evaluate the alert rules against the live registry, journaling
    /// and logging any transitions. Called from the watchdog epoch
    /// hook, at job completion, and on every `/alerts` scrape.
    pub fn eval_alerts(&self) -> Vec<AlertEvent> {
        self.alerts.evaluate(
            &self.registry.snapshot(),
            self.now_us(),
            self.journal().as_ref(),
        )
    }

    /// Start serving per [`HttpMode::from_env`]. A bind failure is
    /// reported on stderr, never fatal — introspection must not take a
    /// job down.
    pub fn serve_from_env(&self) {
        let port = match HttpMode::from_env() {
            HttpMode::Off => return,
            HttpMode::Auto => 0,
            HttpMode::Port(p) => p,
        };
        match self.serve(port) {
            // The ephemeral port is useless unless announced: `hamr top`
            // needs an address to poll.
            Ok(addr) => eprintln!("hamr: introspection endpoint on http://{addr}/metrics"),
            Err(e) => {
                eprintln!("hamr: introspection endpoint failed to bind port {port}: {e}")
            }
        }
    }

    /// Bind `127.0.0.1:port` (0 = ephemeral) and serve `/metrics`,
    /// `/healthz`, `/alerts`, `/doctor`, `/stats`. Replaces any
    /// previous server.
    pub fn serve(&self, port: u16) -> std::io::Result<SocketAddr> {
        let registry = self.registry.clone();
        let health = Arc::clone(&self.health);
        let live = Arc::clone(&self.live);
        let alerts = Arc::clone(&self.alerts);
        let journal = Arc::clone(&self.journal);
        let stats = Arc::clone(&self.stats);
        let epoch = self.epoch;
        let handler: RouteHandler = Arc::new(move |path| match path {
            "/metrics" | "/metrics/" => HttpResponse::text(registry.snapshot().to_prometheus()),
            "/healthz" | "/healthz/" => {
                let now_us = epoch.elapsed().as_micros() as u64;
                let health = health.lock().unwrap_or_else(|p| p.into_inner()).clone();
                let status = if health.healthy() { 200 } else { 503 };
                HttpResponse::json(health.to_json_at(now_us)).status(status)
            }
            "/alerts" | "/alerts/" => {
                // Scrapes evaluate too, so `/alerts` is live even when
                // no supervised run is driving epochs.
                let now_us = epoch.elapsed().as_micros() as u64;
                let j = journal.lock().unwrap_or_else(|p| p.into_inner()).clone();
                alerts.evaluate(&registry.snapshot(), now_us, j.as_ref());
                HttpResponse::json(alerts.to_json(now_us))
            }
            "/doctor" | "/doctor/" => {
                let live = live.lock().unwrap_or_else(|p| p.into_inner());
                let events = live.ring.as_ref().map(|r| r.peek()).unwrap_or_default();
                let dropped = live.ring.as_ref().map(|r| r.dropped()).unwrap_or(0);
                let report = live
                    .audit
                    .as_ref()
                    .map(|a| a.report())
                    .unwrap_or_else(|| Audit::disabled().report());
                let engine = if live.engine.is_empty() {
                    "hamr"
                } else {
                    live.engine
                };
                let gauges = registry.snapshot().engine_gauges(engine);
                let record = FlightRecord::capture(
                    live.job.clone(),
                    engine,
                    None,
                    None,
                    &events,
                    DOCTOR_KEEP_LAST,
                    dropped,
                    report,
                    gauges,
                );
                HttpResponse::json(record.to_json())
            }
            "/stats" | "/stats/" => {
                let stats = stats.lock().unwrap_or_else(|p| p.into_inner());
                match &*stats {
                    Some(snap) => HttpResponse::json(snap.to_json()),
                    None => HttpResponse::json("{\"stats\":null}".to_string()),
                }
            }
            _ => HttpResponse::not_found(),
        });
        let server = HttpServer::bind(port, handler)?;
        let addr = server.addr();
        *self.server.lock().unwrap_or_else(|p| p.into_inner()) = Some(server);
        Ok(addr)
    }

    /// Address of the running server, if any.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.server
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
            .map(|s| s.addr())
    }

    /// Stop and drop the server (idempotent).
    pub fn stop(&self) {
        if let Some(mut server) = self.server.lock().unwrap_or_else(|p| p.into_inner()).take() {
            server.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_trace::{http_get, parse_prometheus, AlertRule, Labels};
    use std::time::Duration;

    #[test]
    fn http_mode_parses_env_forms() {
        std::env::remove_var("HAMR_HTTP");
        assert_eq!(HttpMode::from_env(), HttpMode::Off);
        std::env::set_var("HAMR_HTTP", "off");
        assert_eq!(HttpMode::from_env(), HttpMode::Off);
        std::env::set_var("HAMR_HTTP", "auto");
        assert_eq!(HttpMode::from_env(), HttpMode::Auto);
        std::env::set_var("HAMR_HTTP", "9099");
        assert_eq!(HttpMode::from_env(), HttpMode::Port(9099));
        std::env::remove_var("HAMR_HTTP");
    }

    #[test]
    fn health_json_reports_incidents_with_ages() {
        let mut h = Health::default();
        assert!(h.healthy());
        let json = h.to_json_at(500);
        assert!(json.contains("\"status\":\"ok\""), "{json}");
        assert!(json.contains("\"incident_age_us\":null"), "{json}");
        assert!(json.contains("\"last_clean_completion_us\":null"), "{json}");
        h.last_clean_completion_us = Some(400);
        h.incident = Some("backpressure on \"edge 1\"".into());
        h.incident_since_us = Some(100);
        assert!(!h.healthy());
        let json = h.to_json_at(500);
        assert!(json.contains("\"status\":\"incident\""), "{json}");
        assert!(json.contains("backpressure"), "{json}");
        assert!(json.contains("\"incident_age_us\":400"), "{json}");
        assert!(json.contains("\"last_clean_completion_us\":400"), "{json}");
        assert!(
            json.contains("\"last_clean_completion_age_us\":100"),
            "{json}"
        );
    }

    #[test]
    fn endpoint_serves_metrics_healthz_and_doctor() {
        let intro = Introspect::new();
        intro
            .registry
            .counter("demo_total", Labels::new().engine("hamr"))
            .add(7);
        let addr = intro.serve(0).expect("bind ephemeral");
        assert_eq!(intro.addr(), Some(addr));
        let t = Duration::from_secs(2);
        let (status, body) = http_get(addr, "/metrics", t).expect("GET /metrics");
        assert_eq!(status, 200);
        let samples = parse_prometheus(&body).expect("valid Prometheus text");
        assert!(
            samples
                .iter()
                .any(|s| s.name == "hamr_demo_total" && s.value == 7.0),
            "{body}"
        );
        let (status, body) = http_get(addr, "/healthz", t).expect("GET /healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
        // An incident flips /healthz to 503 until cleared.
        intro
            .health
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .incident = Some("hang".into());
        let (status, _) = http_get(addr, "/healthz", t).expect("GET /healthz");
        assert_eq!(status, 503);
        // /doctor renders even with no live run attached.
        let (status, body) = http_get(addr, "/doctor", t).expect("GET /doctor");
        assert_eq!(status, 200);
        assert!(body.contains("\"dropped_events\""), "{body}");
        // /alerts serves the default rule set, silent on this registry.
        let (status, body) = http_get(addr, "/alerts", t).expect("GET /alerts");
        assert_eq!(status, 200);
        assert!(body.contains("\"firing\":0"), "{body}");
        assert!(body.contains("queue-depth-high-water"), "{body}");
        assert!(body.contains("task-p99-latency-slo"), "{body}");
        intro.stop();
        intro.stop();
    }

    #[test]
    fn alerts_endpoint_reports_a_firing_rule() {
        let intro = Introspect::new();
        intro.alerts.set_rules(vec![AlertRule::gauge_high_water(
            "stuck-gauge",
            "deferred_bins",
            1,
            2,
        )]);
        let g = intro
            .registry
            .gauge("deferred_bins", Labels::new().node(0).flowlet(1));
        g.add(5);
        // Two evaluations over threshold: the rule fires and the
        // transition lands in the log.
        assert!(intro.eval_alerts().is_empty());
        let fired = intro.eval_alerts();
        assert_eq!(fired.len(), 1);
        assert!(fired[0].firing);
        assert_eq!(intro.alerts.states().iter().filter(|s| s.firing).count(), 1);
        let addr = intro.serve(0).expect("bind");
        let (status, body) =
            http_get(addr, "/alerts", Duration::from_secs(2)).expect("GET /alerts");
        assert_eq!(status, 200);
        assert!(body.contains("\"firing\":1"), "{body}");
        assert!(body.contains("stuck-gauge"), "{body}");
        assert_eq!(intro.alerts.log().len(), 1);
        intro.stop();
    }
}
