// Renders a TelemetrySnapshot for scraping (docs/OBSERVABILITY.md).
//
//   * to_prometheus — Prometheus text exposition format 0.0.4: counters as
//     <name>_total, latency histograms with cumulative le-labelled buckets
//     at decade edges (1 µs .. 100 s) plus +Inf, every series labelled
//     {shard="N"}.
//   * to_json — one JSON object with per-shard counter/gauge arrays and
//     histogram summaries (count, sum, mean, p50, p90, p99, max, seconds);
//     schema documented in docs/OBSERVABILITY.md.
//   * append_histogram_json — the one histogram summary object to_json
//     writes per shard, shared with MetricsRegistry::dump_json.
//
// Both run on plain snapshot values — no locks, no interaction with the
// record path.
#pragma once

#include <string>

#include "obs/telemetry/telemetry.h"

namespace sfq::obs::telemetry {

std::string to_prometheus(const TelemetrySnapshot& snap);
std::string to_json(const TelemetrySnapshot& snap);
// Appends {"count":N,"sum_s":..,"mean_s":..,"p50_s":..,"p90_s":..,
// "p99_s":..,"max_s":..} for one histogram snapshot.
void append_histogram_json(std::string& out, const HistogramSnapshot& hs);

}  // namespace sfq::obs::telemetry
