// Tests for the hot-path telemetry plane (src/obs/telemetry/):
// histogram bucket math, concurrent recording consistency, exposition
// formats, the HTTP stats endpoint, and the MetricsRegistry bridge.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry/exposition.h"
#include "obs/telemetry/histogram.h"
#include "obs/telemetry/metric_ids.h"
#include "obs/telemetry/profile.h"
#include "obs/telemetry/registry_bridge.h"
#include "obs/telemetry/stats_server.h"
#include "obs/telemetry/telemetry.h"

namespace tel = sfq::obs::telemetry;

// --- histogram bucket layout ------------------------------------------------

TEST(TelemetryHistogram, IndexRoundTripsAcrossTheWholeRange) {
  // Every probe value must land in a bucket whose [lo, hi) contains it.
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 200; ++v) probes.push_back(v);
  for (uint64_t v = 256; v != 0 && v < (1ull << 63); v = v * 3 + 7)
    probes.push_back(v);
  probes.push_back(~0ull);
  for (uint64_t v : probes) {
    const std::size_t i = tel::hist_index(v);
    ASSERT_LT(i, tel::kHistBuckets) << v;
    EXPECT_LE(tel::hist_bucket_lo(i), v) << v;
    // The top bucket's exclusive edge saturates at uint64 max, so ~0ull
    // itself is covered by >= there; everywhere else the edge is strict.
    if (tel::hist_bucket_hi(i) == ~0ull)
      EXPECT_GE(tel::hist_bucket_hi(i), v) << v;
    else
      EXPECT_GT(tel::hist_bucket_hi(i), v) << v;
  }
}

TEST(TelemetryHistogram, BucketsTileWithoutGapsOrOverlap) {
  for (std::size_t i = 0; i + 1 < tel::kHistBuckets; ++i) {
    ASSERT_EQ(tel::hist_bucket_hi(i), tel::hist_bucket_lo(i + 1)) << i;
  }
  EXPECT_EQ(tel::hist_bucket_lo(0), 0u);
  EXPECT_EQ(tel::hist_bucket_hi(tel::kHistBuckets - 1), ~0ull);
}

TEST(TelemetryHistogram, RelativeErrorBounded) {
  // Log-linear with 32 sub-buckets per octave: width/lo <= 2/kSubBuckets.
  for (uint64_t v = tel::kSubBuckets; v < (1ull << 40); v = v * 5 / 3 + 1) {
    const std::size_t i = tel::hist_index(v);
    const double lo = static_cast<double>(tel::hist_bucket_lo(i));
    const double hi = static_cast<double>(tel::hist_bucket_hi(i));
    EXPECT_LE((hi - lo) / lo, 2.0 / tel::kSubBuckets + 1e-12) << v;
  }
}

TEST(TelemetryHistogram, ExactBelowSubBucketCount) {
  tel::LockFreeHistogram h;
  for (uint64_t v = 0; v < tel::kSubBuckets; ++v) h.record(v);
  const tel::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, tel::kSubBuckets);
  EXPECT_EQ(s.min_ns(), 0u);
  EXPECT_EQ(s.max_ns(), tel::kSubBuckets - 1);
  // Exact region: the median of 0..63 interpolates inside one-wide buckets.
  EXPECT_NEAR(s.quantile_ns(0.5), 31.0, 1.5);
}

TEST(TelemetryHistogram, QuantilesOrderedAndClamped) {
  tel::LockFreeHistogram h;
  h.record_seconds(1e-6);
  h.record_seconds(10e-6);
  h.record_seconds(100e-6);
  h.record_seconds(5.0);  // outlier
  const tel::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  double prev = -1.0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double v = s.quantile_ns(q);
    EXPECT_GE(v, prev) << q;
    prev = v;
  }
  // q=1 lands in the outlier's bucket: finite edge, ~3% of 5s, never the
  // huge extrapolation an unbounded overflow bucket would produce.
  EXPECT_NEAR(s.quantile_s(1.0), 5.0, 0.2);
  EXPECT_NEAR(s.quantile_s(0.0), 1e-6, 0.05e-6);
}

TEST(TelemetryHistogram, ToNanosClampsAndSaturates) {
  EXPECT_EQ(tel::LockFreeHistogram::to_nanos(-1.0), 0u);
  EXPECT_EQ(tel::LockFreeHistogram::to_nanos(0.0), 0u);
  EXPECT_EQ(tel::LockFreeHistogram::to_nanos(1e-9), 1u);
  EXPECT_EQ(tel::LockFreeHistogram::to_nanos(1.5), 1500000000u);
  EXPECT_GT(tel::LockFreeHistogram::to_nanos(1e300), (1ull << 62));
}

TEST(TelemetryHistogram, MergeSumsBuckets) {
  tel::LockFreeHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(1000);
  for (int i = 0; i < 50; ++i) b.record(2000000);
  tel::HistogramSnapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.count, 150u);
  // sum_ns is reconstructed from bucket midpoints at snapshot time — the
  // record path keeps no online sum — so it carries the bucket quantization
  // error, bounded by 2/kSubBuckets relative.
  const double exact = 100.0 * 1000 + 50.0 * 2000000;
  EXPECT_NEAR(static_cast<double>(s.sum_ns), exact,
              exact * 2.0 / static_cast<double>(tel::kSubBuckets));
  EXPECT_EQ(s.cumulative_below(10000), 100u);
}

TEST(TelemetryHistogram, SumExactForSubBucketValues) {
  // Values below kSubBuckets land in exact one-nanosecond buckets, so the
  // reconstructed sum has no quantization error at all.
  tel::LockFreeHistogram h;
  for (uint64_t v = 0; v < tel::kSubBuckets; ++v) h.record(v);
  const tel::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, tel::kSubBuckets);
  EXPECT_EQ(s.sum_ns, tel::kSubBuckets * (tel::kSubBuckets - 1) / 2);
}

// --- concurrent plane consistency -------------------------------------------

TEST(TelemetryConcurrent, CountersMonotoneAndHistogramsUntorn) {
  tel::Telemetry plane;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 200000;
  std::atomic<bool> go{false}, done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    tel::Telemetry::Writer wr = plane.writer(0);
    threads.emplace_back([&, wr]() mutable {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        wr.inc(tel::CounterId::kTransmitted);
        wr.inc(tel::CounterId::kTxBits, 8000);
        plane.record(tel::HistId::kQueueDelay, 1000 + (i & 1023));
      }
    });
  }
  // Reader races the writers: every snapshot must be internally consistent
  // (counter never below the previous read; histogram count == bucket sum,
  // which snapshot() guarantees by construction — verify it holds).
  std::thread reader([&] {
    uint64_t prev_tx = 0, prev_hist = 0;
    while (!done.load(std::memory_order_acquire)) {
      const tel::TelemetrySnapshot s = plane.snapshot();
      const uint64_t tx = s.counter_total(tel::CounterId::kTransmitted);
      ASSERT_GE(tx, prev_tx);
      prev_tx = tx;
      const tel::HistogramSnapshot h =
          s.hist_total(tel::HistId::kQueueDelay);
      uint64_t bucket_sum = 0;
      for (uint64_t c : h.counts) bucket_sum += c;
      ASSERT_EQ(h.count, bucket_sum);
      ASSERT_GE(h.count, prev_hist);
      prev_hist = h.count;
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const tel::TelemetrySnapshot s = plane.snapshot();
  EXPECT_EQ(s.counter_total(tel::CounterId::kTransmitted),
            kWriters * kPerWriter);
  EXPECT_EQ(s.counter_total(tel::CounterId::kTxBits),
            kWriters * kPerWriter * 8000);
  EXPECT_EQ(s.hist_total(tel::HistId::kQueueDelay).count,
            kWriters * kPerWriter);
}

TEST(TelemetryPlane, ShardsAreIndependentLabelDimensions) {
  tel::Telemetry plane({.shards = 3});
  tel::Telemetry::Writer w0 = plane.writer(0);
  tel::Telemetry::Writer w2 = plane.writer(2);
  w0.inc(tel::CounterId::kAccepted, 5);
  w2.inc(tel::CounterId::kAccepted, 7);
  w2.drop(sfq::obs::DropCause::kPushout);
  plane.record(tel::HistId::kServiceLag, 500, /*shard=*/2);
  plane.set_gauge(tel::GaugeId::kBacklogPackets, 9.0, /*shard=*/1);

  const tel::TelemetrySnapshot s = plane.snapshot();
  EXPECT_EQ(s.counter(tel::CounterId::kAccepted, 0), 5u);
  EXPECT_EQ(s.counter(tel::CounterId::kAccepted, 1), 0u);
  EXPECT_EQ(s.counter(tel::CounterId::kAccepted, 2), 7u);
  EXPECT_EQ(s.counter_total(tel::CounterId::kAccepted), 12u);
  EXPECT_EQ(s.counter(tel::CounterId::kDropPushout, 2), 1u);
  EXPECT_EQ(s.drops_total(2), 1u);
  EXPECT_EQ(s.hist(tel::HistId::kServiceLag, 2).count, 1u);
  EXPECT_EQ(s.hist(tel::HistId::kServiceLag, 0).count, 0u);
  EXPECT_EQ(s.gauge(tel::GaugeId::kBacklogPackets, 1), 9.0);
  EXPECT_THROW(plane.writer(3), std::out_of_range);
}

// --- stage profiler ----------------------------------------------------------

TEST(TelemetryProfiler, DisabledScopesRecordNothing) {
  tel::Telemetry plane;
  tel::StageProfiler prof(plane);
  {
    tel::StageProfiler::Scope s(&prof, tel::HistId::kStageDrain);
  }
  {
    tel::StageProfiler::Scope s(nullptr, tel::HistId::kStageDrain);
  }
  EXPECT_EQ(plane.snapshot().hist_total(tel::HistId::kStageDrain).count, 0u);

  prof.enable(true);
  {
    tel::StageProfiler::Scope s(&prof, tel::HistId::kStageDrain);
  }
  const tel::HistogramSnapshot h =
      plane.snapshot().hist_total(tel::HistId::kStageDrain);
  EXPECT_EQ(h.count, 1u);
}

// --- exposition --------------------------------------------------------------

TEST(TelemetryExposition, PrometheusCarriesShardLabelsAndBuckets) {
  tel::Telemetry plane({.shards = 2});
  tel::Telemetry::Writer w1 = plane.writer(1);
  w1.inc(tel::CounterId::kTransmitted, 42);
  plane.record_seconds(tel::HistId::kQueueDelay, 0.005, /*shard=*/1);
  plane.set_gauge(tel::GaugeId::kFairnessGap, 0.25, /*shard=*/0);

  const std::string text = tel::to_prometheus(plane.snapshot());
  EXPECT_NE(text.find("# TYPE sfq_transmitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("sfq_transmitted_total{shard=\"1\"} 42"),
            std::string::npos);
  EXPECT_NE(text.find("sfq_transmitted_total{shard=\"0\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("sfq_fairness_gap_seconds{shard=\"0\"} 0.25"),
            std::string::npos);
  // 5ms sample: cumulative buckets below 1ms exclude it, the +Inf edge and
  // the count include it.
  EXPECT_NE(
      text.find("sfq_queue_delay_seconds_bucket{shard=\"1\",le=\"0.001\"} 0"),
      std::string::npos);
  EXPECT_NE(
      text.find("sfq_queue_delay_seconds_bucket{shard=\"1\",le=\"+Inf\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("sfq_queue_delay_seconds_count{shard=\"1\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(TelemetryExposition, JsonNamesEveryCounter) {
  tel::Telemetry plane;
  tel::Telemetry::Writer w = plane.writer(0);
  w.inc(tel::CounterId::kAccepted, 3);
  const std::string js = tel::to_json(plane.snapshot());
  for (std::size_t c = 0; c < tel::kCounterCount; ++c) {
    const std::string key =
        std::string("\"") + tel::name(static_cast<tel::CounterId>(c)) + "\"";
    EXPECT_NE(js.find(key), std::string::npos) << key;
  }
  EXPECT_NE(js.find("\"rt.accepted\":{\"total\":3"), std::string::npos);
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
}

// Golden renderings: a hand-built two-shard snapshot with every counter,
// gauge and histogram id set, rendered by to_prometheus and to_json and
// compared byte for byte with tests/golden/. A metric that is added, renamed
// or re-ordered shows up as a diff of those files. To accept an intended
// change, rerun the two tests with SFQ_UPDATE_GOLDEN=1 in the environment
// (they rewrite the files and pass) and review the diff.

namespace {

tel::TelemetrySnapshot golden_snapshot() {
  constexpr std::size_t kShards = 2;
  tel::TelemetrySnapshot s;
  s.shards = kShards;
  s.epoch = 7;
  s.counters.assign(kShards, {});
  s.gauges.assign(kShards, {});
  s.hists.resize(kShards);
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    for (std::size_t c = 0; c < tel::kCounterCount; ++c)
      s.counters[sh][c] = 1000 * (sh + 1) + c;
    for (std::size_t g = 0; g < tel::kGaugeCount; ++g)
      s.gauges[sh][g] = 0.125 * static_cast<double>(g + 1) +
                        static_cast<double>(sh);
    for (std::size_t h = 0; h < tel::kHistCount; ++h) {
      tel::LockFreeHistogram hist;
      // Samples spread over the Prometheus decades (1 µs .. 100 s), a
      // different mix per id and shard.
      for (uint64_t k = 0; k <= h + sh; ++k) {
        hist.record(40 + k);                      // exact sub-bucket range
        hist.record(25000 * (k + 1));             // tens of µs
        hist.record(3000000 * (h + 1));           // ms
        if ((h + sh) % 2 == 0) hist.record(1500000000ull);  // 1.5 s
      }
      s.hists[sh].push_back(hist.snapshot());
    }
  }
  return s;
}

void expect_golden(const std::string& file, const std::string& rendered) {
  const std::string path = std::string(SFQ_TEST_GOLDEN_DIR) + "/" + file;
  if (const char* update = std::getenv("SFQ_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream(path, std::ios::binary) << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(rendered, golden)
      << path << " differs from the rendering; if the change is intended, "
      << "rerun with SFQ_UPDATE_GOLDEN=1 and review the diff";
}

}  // namespace

TEST(TelemetryExposition, PrometheusMatchesGolden) {
  expect_golden("telemetry.prom", tel::to_prometheus(golden_snapshot()));
}

TEST(TelemetryExposition, JsonMatchesGolden) {
  expect_golden("telemetry.json", tel::to_json(golden_snapshot()));
}

// --- HTTP stats endpoint ------------------------------------------------------

namespace {

std::string http_get(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) out.append(buf, n);
  ::close(fd);
  return out;
}

}  // namespace

TEST(TelemetryStatsServer, ServesPrometheusAndJson) {
  tel::StatsServer server;
  server.start(/*port=*/0);  // ephemeral
  ASSERT_GT(server.port(), 0);
  server.publish("# prom payload\n", "{\"json\":true}");

  const std::string prom = http_get(server.port(), "/metrics");
  EXPECT_NE(prom.find("200 OK"), std::string::npos);
  EXPECT_NE(prom.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(prom.find("# prom payload"), std::string::npos);

  const std::string js = http_get(server.port(), "/metrics.json");
  EXPECT_NE(js.find("application/json"), std::string::npos);
  EXPECT_NE(js.find("{\"json\":true}"), std::string::npos);

  const std::string miss = http_get(server.port(), "/nope");
  EXPECT_NE(miss.find("404"), std::string::npos);

  // publish() swaps payloads atomically for later requests.
  server.publish("v2\n", "{}");
  EXPECT_NE(http_get(server.port(), "/metrics").find("v2"),
            std::string::npos);
  EXPECT_GE(server.requests_served(), 4u);
  server.stop();
}

// --- registry bridge ----------------------------------------------------------

TEST(TelemetryBridge, AdvancesCountersIdempotently) {
  tel::Telemetry plane;
  tel::Telemetry::Writer w = plane.writer(0);
  sfq::obs::MetricsRegistry reg;

  w.inc(tel::CounterId::kTransmitted, 10);
  w.drop(sfq::obs::DropCause::kBufferLimit);
  plane.record_seconds(tel::HistId::kQueueDelay, 0.002);
  plane.set_gauge(tel::GaugeId::kBacklogPackets, 4.0);
  tel::bridge_to_registry(plane.snapshot(), reg);
  EXPECT_EQ(reg.counter("rt.transmitted").value(), 10u);
  EXPECT_EQ(reg.counter("sched.drops.buffer_limit").value(), 1u);
  EXPECT_EQ(reg.gauge("rt.backlog_packets").value(), 4.0);
  EXPECT_NEAR(reg.gauge("rt.queue_delay.p50").value(), 0.002, 0.0001);
  EXPECT_EQ(reg.gauge("rt.queue_delay.count").value(), 1.0);

  // Re-bridging a newer snapshot adds only the delta.
  w.inc(tel::CounterId::kTransmitted, 5);
  tel::bridge_to_registry(plane.snapshot(), reg);
  tel::bridge_to_registry(plane.snapshot(), reg);  // same snapshot state: no-op
  EXPECT_EQ(reg.counter("rt.transmitted").value(), 15u);
}
