// Renders a TelemetrySnapshot for scraping (docs/OBSERVABILITY.md).
//
//   * to_prometheus — Prometheus text exposition format 0.0.4: counters as
//     <name>_total, latency histograms with cumulative le-labelled buckets
//     at decade edges (1 µs .. 100 s) plus +Inf, every series labelled
//     {shard="N"}.
//   * to_json — one JSON object with per-shard counter/gauge arrays and
//     histogram summaries (count, sum, mean, p50, p90, p99, max, seconds);
//     schema documented in docs/OBSERVABILITY.md. The rt engines'
//     /metrics.json and `sfq_lab --metrics` are both this document.
//
// Both run on plain snapshot values — no locks, no interaction with the
// record path.
#pragma once

#include <string>

#include "obs/telemetry/telemetry.h"

namespace sfq::obs::telemetry {

std::string to_prometheus(const TelemetrySnapshot& snap);
std::string to_json(const TelemetrySnapshot& snap);

}  // namespace sfq::obs::telemetry
