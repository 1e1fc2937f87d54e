#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/splitmix.h"
#include "sim/simulator.h"
#include "traffic/leaky_bucket.h"
#include "traffic/sources.h"
#include "traffic/vbr_video.h"

namespace sfq::traffic {
namespace {

struct Capture {
  std::vector<Time> times;
  std::vector<double> sizes;
  std::vector<uint64_t> seqs;
  Source::EmitFn fn(sim::Simulator& sim) {
    return [this, &sim](Packet p) {
      times.push_back(sim.now());
      sizes.push_back(p.length_bits);
      seqs.push_back(p.seq);
    };
  }
};

TEST(CbrSource, EmitsOnSchedule) {
  sim::Simulator sim;
  Capture cap;
  CbrSource src(sim, 0, cap.fn(sim), /*rate=*/100.0, /*packet=*/10.0);
  src.run(1.0, 1.45);
  sim.run();
  // Packets at 1.0, 1.1, 1.2, 1.3, 1.4 (strictly before 1.45).
  ASSERT_EQ(cap.times.size(), 5u);
  EXPECT_DOUBLE_EQ(cap.times.front(), 1.0);
  EXPECT_DOUBLE_EQ(cap.times.back(), 1.4);
  EXPECT_EQ(cap.seqs, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

TEST(CbrSource, RateMatchesConfiguration) {
  sim::Simulator sim;
  Capture cap;
  CbrSource src(sim, 0, cap.fn(sim), 1000.0, 50.0);
  src.run(0.0, 10.0);
  sim.run();
  double bits = 0.0;
  for (double s : cap.sizes) bits += s;
  EXPECT_NEAR(bits / 10.0, 1000.0, 10.0);
}

TEST(PoissonSource, MeanRateConverges) {
  sim::Simulator sim;
  Capture cap;
  PoissonSource src(sim, 0, cap.fn(sim), 2000.0, 40.0, /*seed=*/13);
  src.run(0.0, 50.0);
  sim.run();
  double bits = 0.0;
  for (double s : cap.sizes) bits += s;
  EXPECT_NEAR(bits / 50.0, 2000.0, 2000.0 * 0.06);
}

TEST(PoissonSource, InterarrivalsAreVariable) {
  sim::Simulator sim;
  Capture cap;
  PoissonSource src(sim, 0, cap.fn(sim), 1000.0, 100.0, 7);
  src.run(0.0, 20.0);
  sim.run();
  ASSERT_GT(cap.times.size(), 20u);
  double mean = 0.0, var = 0.0;
  std::vector<double> gaps;
  for (std::size_t i = 1; i < cap.times.size(); ++i)
    gaps.push_back(cap.times[i] - cap.times[i - 1]);
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  // Exponential: std ~ mean; CBR would have var = 0.
  EXPECT_GT(var, 0.25 * mean * mean);
}

// The first `n` inter-arrival gaps of a Poisson source of `pps` packets/s.
std::vector<double> poisson_gaps(std::size_t n, double pps, uint64_t seed) {
  sim::Simulator sim;
  Capture cap;
  PoissonSource src(sim, 0, cap.fn(sim), pps, /*packet=*/1.0, seed);
  // 1.2x the expected span leaves n gaps with overwhelming probability.
  src.run(0.0, 1.2 * static_cast<double>(n) / pps);
  sim.run();
  std::vector<double> gaps;
  for (std::size_t i = 1; i < cap.times.size() && gaps.size() < n; ++i)
    gaps.push_back(cap.times[i] - cap.times[i - 1]);
  return gaps;
}

TEST(SplitMix64, MatchesPublishedSequence) {
  // Vigna's reference splitmix64.c from state 0.
  SplitMix64 g(0);
  EXPECT_EQ(g(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(g(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(g(), 0x06c45d188009454fULL);
  // The stateless hash form is the generator's first output from state x.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
}

TEST(TrafficSources, PerFlowStateStaysSmall) {
  // 65,536 sources in sim_flowscale: per-source state is the workload's
  // resident set, so the generator must stay a few words.
  EXPECT_LE(sizeof(PoissonSource), 128u);
  EXPECT_LE(sizeof(OnOffSource), 128u);
}

TEST(PoissonSource, GapsFitTheExponential) {
  constexpr std::size_t kN = 100000;
  constexpr double kPps = 1000.0;
  std::vector<double> gaps = poisson_gaps(kN, kPps, /*seed=*/2024);
  ASSERT_EQ(gaps.size(), kN);
  const double n = static_cast<double>(kN);
  double mean = 0.0;
  for (double g : gaps) mean += g;
  mean /= n;
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= n - 1.0;
  EXPECT_NEAR(mean * kPps, 1.0, 0.01);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.02);  // exponential: CV = 1
  // One-sample Kolmogorov-Smirnov against Exp(kPps), 5% critical value.
  std::sort(gaps.begin(), gaps.end());
  double d = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double cdf = 1.0 - std::exp(-kPps * gaps[i]);
    d = std::max({d, cdf - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - cdf});
  }
  EXPECT_LT(d, 1.36 / std::sqrt(n));
}

TEST(PoissonSource, DefaultSeedsAreUncorrelated) {
  // FlowSpec's default seed is 1 + index, so neighbouring flows get
  // neighbouring seeds: their gap sequences must still be independent.
  constexpr std::size_t kN = 20000;
  constexpr uint64_t kSeeds = 64;
  std::vector<std::vector<double>> z;  // standardized gap sequences
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::vector<double> g = poisson_gaps(kN, 1000.0, seed);
    ASSERT_EQ(g.size(), kN);
    double mean = 0.0, var = 0.0;
    for (double x : g) mean += x;
    mean /= static_cast<double>(kN);
    for (double x : g) var += (x - mean) * (x - mean);
    const double sd = std::sqrt(var / static_cast<double>(kN));
    for (double& x : g) x = (x - mean) / sd;
    z.push_back(std::move(g));
  }
  const double limit = 4.0 / std::sqrt(static_cast<double>(kN));
  for (std::size_t a = 0; a < z.size(); ++a) {
    for (std::size_t b = a + 1; b < z.size(); ++b) {
      double r = 0.0;
      for (std::size_t i = 0; i < kN; ++i) r += z[a][i] * z[b][i];
      r /= static_cast<double>(kN);
      EXPECT_LT(std::abs(r), limit) << "seeds " << a + 1 << " and " << b + 1;
    }
  }
}

TEST(OnOffSource, BurstsAndSilences) {
  sim::Simulator sim;
  Capture cap;
  OnOffSource src(sim, 0, cap.fn(sim), /*peak=*/1000.0, /*packet=*/10.0,
                  /*mean_on=*/0.05, /*mean_off=*/0.2, /*seed=*/3);
  src.run(0.0, 30.0);
  sim.run();
  ASSERT_GT(cap.times.size(), 50u);
  // Long-run rate must be well below the peak (off periods dominate).
  double bits = 0.0;
  for (double s : cap.sizes) bits += s;
  EXPECT_LT(bits / 30.0, 600.0);
  // And at least one silence much longer than the on-period spacing exists.
  double max_gap = 0.0;
  for (std::size_t i = 1; i < cap.times.size(); ++i)
    max_gap = std::max(max_gap, cap.times[i] - cap.times[i - 1]);
  EXPECT_GT(max_gap, 0.05);
}

TEST(TraceSource, ReplaysExactly) {
  sim::Simulator sim;
  Capture cap;
  TraceSource src(sim, 0, cap.fn(sim),
                  {{0.5, 10.0}, {0.75, 20.0}, {2.0, 30.0}});
  src.run(0.0, 10.0);
  sim.run();
  EXPECT_EQ(cap.times, (std::vector<Time>{0.5, 0.75, 2.0}));
  EXPECT_EQ(cap.sizes, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(TraceSource, StopsAtUntil) {
  sim::Simulator sim;
  Capture cap;
  TraceSource src(sim, 0, cap.fn(sim), {{0.5, 1.0}, {5.0, 1.0}});
  src.run(0.0, 1.0);
  sim.run();
  EXPECT_EQ(cap.times.size(), 1u);
}

// --- MPEG VBR ---------------------------------------------------------------

TEST(MpegVbr, AverageRateCalibrated) {
  sim::Simulator sim;
  Capture cap;
  MpegVbrSource::Params p;
  p.average_rate = 1.21e6;
  p.packet_bits = 400.0;  // 50-byte packets
  p.seed = 21;
  MpegVbrSource src(sim, 0, cap.fn(sim), p);
  src.run(0.0, 20.0);
  sim.run();
  double bits = 0.0;
  for (double s : cap.sizes) bits += s;
  EXPECT_NEAR(bits / 20.0, 1.21e6, 1.21e6 * 0.1);
}

TEST(MpegVbr, FrameTypeMeansFollowGopRatios) {
  sim::Simulator sim;
  Capture cap;
  MpegVbrSource::Params p;
  MpegVbrSource src(sim, 0, cap.fn(sim), p);
  EXPECT_NEAR(src.mean_frame_bits('I') / src.mean_frame_bits('B'), 5.0, 1e-9);
  EXPECT_NEAR(src.mean_frame_bits('I') / src.mean_frame_bits('P'), 2.5, 1e-9);
}

TEST(MpegVbr, PacketsNoLargerThanMtu) {
  sim::Simulator sim;
  Capture cap;
  MpegVbrSource::Params p;
  p.packet_bits = 400.0;
  MpegVbrSource src(sim, 0, cap.fn(sim), p);
  src.run(0.0, 3.0);
  sim.run();
  for (double s : cap.sizes) EXPECT_LE(s, 400.0 + 1e-9);
}

TEST(MpegVbr, BurstyAtFrameBoundaries) {
  sim::Simulator sim;
  Capture cap;
  MpegVbrSource::Params p;
  p.seed = 4;
  MpegVbrSource src(sim, 0, cap.fn(sim), p);
  src.run(0.0, 1.0);
  sim.run();
  // Many packets share the same timestamp (one burst per frame, 30 fps).
  std::size_t same = 0;
  for (std::size_t i = 1; i < cap.times.size(); ++i)
    if (cap.times[i] == cap.times[i - 1]) ++same;
  EXPECT_GT(same, cap.times.size() / 2);
}

// --- Leaky bucket ------------------------------------------------------------

TEST(LeakyBucket, ConformingTrafficPassesUnchanged) {
  sim::Simulator sim;
  std::vector<Time> out;
  LeakyBucketShaper lb(sim, /*sigma=*/100.0, /*rho=*/100.0,
                       [&](Packet) { out.push_back(sim.now()); });
  Packet p;
  p.flow = 0;
  p.length_bits = 50.0;
  sim.at(0.0, [&] { lb.inject(p); });
  sim.at(1.0, [&] { lb.inject(p); });
  sim.run();
  EXPECT_EQ(out, (std::vector<Time>{0.0, 1.0}));
}

TEST(LeakyBucket, BurstBeyondSigmaIsSmoothed) {
  sim::Simulator sim;
  std::vector<Time> out;
  LeakyBucketShaper lb(sim, /*sigma=*/100.0, /*rho=*/50.0,
                       [&](Packet) { out.push_back(sim.now()); });
  Packet p;
  p.length_bits = 100.0;
  sim.at(0.0, [&] {
    lb.inject(p);  // consumes the full bucket
    lb.inject(p);  // must wait 2 s for refill
    lb.inject(p);  // 2 more
  });
  sim.run();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_DOUBLE_EQ(out[2], 4.0);
}

TEST(LeakyBucket, ShaperOutputConformsToMeter) {
  // Property: for random input, shaped output always satisfies the meter.
  sim::Simulator sim;
  LeakyBucketMeter meter(200.0, 500.0);
  bool ok = true;
  LeakyBucketShaper lb(sim, 200.0, 500.0, [&](Packet q) {
    ok = ok && meter.observe(sim.now(), q.length_bits);
  });
  std::mt19937_64 rng(31);
  std::exponential_distribution<double> gap(20.0);
  Time t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += gap(rng);
    Packet q;
    q.length_bits = 10.0 + static_cast<double>(rng() % 150);
    sim.at(t, [&lb, q] { lb.inject(q); });
  }
  sim.run();
  EXPECT_TRUE(ok);
}

TEST(LeakyBucketMeter, FlagsViolation) {
  LeakyBucketMeter meter(100.0, 10.0);
  EXPECT_TRUE(meter.observe(0.0, 100.0));   // uses the whole bucket
  EXPECT_FALSE(meter.observe(0.1, 100.0));  // only ~1 bit refilled
}

}  // namespace
}  // namespace sfq::traffic
