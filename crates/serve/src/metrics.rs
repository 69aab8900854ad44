//! Serving telemetry: lock-free counters for the hot path plus a small
//! mutex-guarded ring of recent request summaries for the dashboard.
//!
//! Everything here is observational — metrics never affect scheduling or
//! results. The `/metrics` endpoint renders this struct as
//! `"schema": "serve_metrics_v1"` JSON; [`crate::dashboard`] polls that
//! endpoint, so the dashboard sees exactly what scripts see.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Upper edges (milliseconds) of the request-latency histogram buckets.
/// The final implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS_MS: [u64; 10] = [1, 5, 10, 25, 50, 100, 250, 1000, 5000, 30_000];

/// How many recent request summaries the ring keeps.
const RECENT_RING: usize = 32;

/// One finished request, summarised for the dashboard's "recent work"
/// table. Simulation-result fields are optional because not every
/// endpoint produces them (`/metrics` itself, `/healthz`, errors).
#[derive(Clone, Debug)]
pub struct RequestSummary {
    /// Endpoint path (e.g. `/v1/predict`).
    pub endpoint: String,
    /// What was simulated, human-readable (spec label, trace name, …).
    pub subject: String,
    /// Response status code.
    pub status: u16,
    /// Wall-clock time spent serving the request.
    pub latency: Duration,
    /// Cells answered from the store.
    pub cells_hit: u64,
    /// Cells computed fresh.
    pub cells_missed: u64,
    /// Mispredicts per thousand micro-ops, when the request measured it.
    pub misp_per_kuops: Option<f64>,
    /// Micro-ops per cycle, when the request ran the cycle model.
    pub upc: Option<f64>,
    /// Where frontend bubbles went, when the cycle model ran:
    /// `(icache, ftq_full, ftq_empty, window_full, redirect, flush_restart)`,
    /// in cycles.
    pub bubbles: Option<[f64; 6]>,
}

/// Shared telemetry for one server instance.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests fully served (any status).
    pub requests_total: AtomicU64,
    /// Requests rejected with `503` by the admission gate.
    pub requests_shed: AtomicU64,
    /// Requests that returned a 4xx.
    pub requests_client_error: AtomicU64,
    /// Requests that returned a 5xx (including handler panics).
    pub requests_server_error: AtomicU64,
    /// Requests holding an admission slot: admitted at the gate, response
    /// not yet built.
    pub inflight: AtomicU64,
    /// Simulation cells answered straight from the cell store.
    pub cache_hits: AtomicU64,
    /// Simulation cells that had to be computed.
    pub cache_misses: AtomicU64,
    /// Cells that failed (panicked) while computing on behalf of a request.
    pub cells_failed: AtomicU64,
    /// Corpus traces quarantined by the startup integrity check.
    pub corpus_quarantined: AtomicU64,
    /// Latency histogram: `buckets[i]` counts requests with latency
    /// ≤ `LATENCY_BUCKETS_MS[i]`; the last slot is the overflow bucket.
    pub latency_buckets: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
    /// Total latency across all requests, microseconds.
    pub latency_total_us: AtomicU64,
    /// Ring of recent request summaries, newest first.
    pub recent: Mutex<VecDeque<RequestSummary>>,
}

impl Metrics {
    /// Records one finished request: status tallies, latency histogram,
    /// and the recent-work ring.
    pub fn record(&self, summary: RequestSummary) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        match summary.status {
            400..=499 => self.requests_client_error.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.requests_server_error.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        let ms = summary.latency.as_millis().min(u128::from(u64::MAX)) as u64;
        let slot = LATENCY_BUCKETS_MS
            .iter()
            .position(|&edge| ms <= edge)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.latency_buckets[slot].fetch_add(1, Ordering::Relaxed);
        let us = summary.latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_total_us.fetch_add(us, Ordering::Relaxed);
        if let Ok(mut ring) = self.recent.lock() {
            ring.push_front(summary);
            ring.truncate(RECENT_RING);
        }
    }

    /// Renders the metrics as the `serve_metrics_v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"schema\": \"serve_metrics_v1\",\n");
        out.push_str("  \"requests\": {");
        out.push_str(&format!("\"total\": {}, ", load(&self.requests_total)));
        out.push_str(&format!("\"inflight\": {}, ", load(&self.inflight)));
        out.push_str(&format!("\"shed\": {}, ", load(&self.requests_shed)));
        out.push_str(&format!(
            "\"client_errors\": {}, ",
            load(&self.requests_client_error)
        ));
        out.push_str(&format!(
            "\"server_errors\": {}",
            load(&self.requests_server_error)
        ));
        out.push_str("},\n");
        out.push_str("  \"cells\": {");
        out.push_str(&format!("\"cache_hits\": {}, ", load(&self.cache_hits)));
        out.push_str(&format!("\"cache_misses\": {}, ", load(&self.cache_misses)));
        out.push_str(&format!("\"failed\": {}", load(&self.cells_failed)));
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"corpus\": {{\"quarantined\": {}}},\n",
            load(&self.corpus_quarantined)
        ));
        out.push_str("  \"latency\": {\"unit\": \"ms\", \"buckets\": [");
        for (i, edge) in LATENCY_BUCKETS_MS.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"le\": {edge}, \"count\": {}}}",
                load(&self.latency_buckets[i])
            ));
        }
        out.push_str(&format!(
            ", {{\"le\": \"inf\", \"count\": {}}}",
            load(&self.latency_buckets[LATENCY_BUCKETS_MS.len()])
        ));
        out.push_str(&format!(
            "], \"total_us\": {}}},\n",
            load(&self.latency_total_us)
        ));
        out.push_str("  \"recent\": [");
        if let Ok(ring) = self.recent.lock() {
            for (i, s) in ring.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    ");
                out.push_str(&summary_json(s));
            }
            if !ring.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("]\n}\n");
        out
    }
}

/// One [`RequestSummary`] as a JSON object.
fn summary_json(s: &RequestSummary) -> String {
    let mut obj = format!(
        "{{\"endpoint\": \"{}\", \"subject\": \"{}\", \"status\": {}, \"latency_us\": {}, \
         \"cells_hit\": {}, \"cells_missed\": {}",
        sim::json::escape(&s.endpoint),
        sim::json::escape(&s.subject),
        s.status,
        s.latency.as_micros().min(u128::from(u64::MAX)),
        s.cells_hit,
        s.cells_missed,
    );
    if let Some(m) = s.misp_per_kuops {
        obj.push_str(&format!(", \"misp_per_kuops\": {m:.4}"));
    }
    if let Some(u) = s.upc {
        obj.push_str(&format!(", \"upc\": {u:.4}"));
    }
    if let Some(b) = s.bubbles {
        obj.push_str(&format!(
            ", \"bubbles\": {{\"icache\": {:.1}, \"ftq_full\": {:.1}, \"ftq_empty\": {:.1}, \
             \"window_full\": {:.1}, \"redirect\": {:.1}, \"flush_restart\": {:.1}}}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        ));
    }
    obj.push('}');
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(status: u16, ms: u64) -> RequestSummary {
        RequestSummary {
            endpoint: "/v1/predict".to_string(),
            subject: "test".to_string(),
            status,
            latency: Duration::from_millis(ms),
            cells_hit: 2,
            cells_missed: 1,
            misp_per_kuops: Some(3.25),
            upc: None,
            bubbles: None,
        }
    }

    #[test]
    fn record_tallies_status_classes_and_buckets() {
        let m = Metrics::default();
        m.record(summary(200, 3));
        m.record(summary(400, 70));
        m.record(summary(500, 60_000));
        assert_eq!(m.requests_total.load(Ordering::Relaxed), 3);
        assert_eq!(m.requests_client_error.load(Ordering::Relaxed), 1);
        assert_eq!(m.requests_server_error.load(Ordering::Relaxed), 1);
        // 3ms → le=5 bucket (index 1); 70ms → le=100 (index 5); 60s → +Inf.
        assert_eq!(m.latency_buckets[1].load(Ordering::Relaxed), 1);
        assert_eq!(m.latency_buckets[5].load(Ordering::Relaxed), 1);
        assert_eq!(
            m.latency_buckets[LATENCY_BUCKETS_MS.len()].load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn json_document_is_parsable_and_carries_counters() {
        let m = Metrics::default();
        m.cache_hits.fetch_add(7, Ordering::Relaxed);
        m.record(summary(200, 1));
        let doc = sim::json::parse(m.to_json().as_bytes()).expect("valid metrics json");
        assert_eq!(
            doc.get("schema").and_then(sim::json::Json::as_str),
            Some("serve_metrics_v1")
        );
        let cells = doc.get("cells").expect("cells section");
        assert_eq!(
            cells.get("cache_hits").and_then(sim::json::Json::as_u64),
            Some(7)
        );
        let recent = doc
            .get("recent")
            .and_then(sim::json::Json::as_array)
            .expect("recent ring");
        assert_eq!(recent.len(), 1);
        assert_eq!(
            recent[0].get("endpoint").and_then(sim::json::Json::as_str),
            Some("/v1/predict")
        );
    }

    #[test]
    fn ring_is_bounded_and_newest_first() {
        let m = Metrics::default();
        for ms in 0..100 {
            m.record(summary(200, ms));
        }
        let ring = m.recent.lock().unwrap();
        assert_eq!(ring.len(), RECENT_RING);
        assert_eq!(ring[0].latency, Duration::from_millis(99));
    }
}
