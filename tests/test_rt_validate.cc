#include "rt/validate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "net/rate_profile.h"
#include "rt/engine.h"
#include "rt/load_gen.h"
#include "core/sfq_scheduler.h"

namespace sfq::rt {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RtValidate, DefaultOptionsAreValid) {
  EXPECT_FALSE(validate(EngineOptions{}).has_value());
  EXPECT_FALSE(validate(LoadGenOptions{}).has_value());
  FlowLoad l;
  l.flow = 0;
  l.rate = 1e6;
  l.packet_bits = 8000;
  EXPECT_FALSE(validate(l).has_value());
}

TEST(RtValidate, EngineOptionTable) {
  struct Case {
    const char* what;
    void (*mutate)(EngineOptions&);
  };
  const Case cases[] = {
      {"zero producers", [](EngineOptions& o) { o.producers = 0; }},
      {"zero-capacity ring", [](EngineOptions& o) { o.ring_capacity = 0; }},
      {"ring above 2^24 slots",
       [](EngineOptions& o) { o.ring_capacity = (std::size_t{1} << 24) + 1; }},
      {"ring capacity of SIZE_MAX",
       [](EngineOptions& o) {
         o.ring_capacity = std::numeric_limits<std::size_t>::max();
       }},
      {"nan stall timeout", [](EngineOptions& o) { o.stall_timeout = kNan; }},
      {"nan jump delta",
       [](EngineOptions& o) { o.fault_plan.jumps.push_back({0.1, kNan}); }},
      {"backwards skew window",
       [](EngineOptions& o) { o.fault_plan.skews.push_back({2.0, 1.0, 2.0}); }},
      {"negative skew factor",
       [](EngineOptions& o) { o.fault_plan.skews.push_back({0.0, 1.0, -1.0}); }},
      {"negative pause duration",
       [](EngineOptions& o) { o.fault_plan.pauses.push_back({0.1, -0.1}); }},
  };
  for (const Case& c : cases) {
    EngineOptions o;
    c.mutate(o);
    EXPECT_TRUE(validate(o).has_value()) << c.what;
  }
  // The largest ring is still accepted.
  EngineOptions max_ring;
  max_ring.ring_capacity = std::size_t{1} << 24;
  EXPECT_FALSE(validate(max_ring).has_value());
}

TEST(RtValidate, LoadGenOptionTable) {
  struct Case {
    const char* what;
    void (*mutate)(LoadGenOptions&);
  };
  const Case cases[] = {
      {"infinite deadline",
       [](LoadGenOptions& o) { o.offer_deadline = kInf; }},
      {"negative deadline",
       [](LoadGenOptions& o) { o.offer_deadline = -0.01; }},
  };
  for (const Case& c : cases) {
    LoadGenOptions o;
    c.mutate(o);
    EXPECT_TRUE(validate(o).has_value()) << c.what;
  }
}

TEST(RtValidate, FlowLoadTable) {
  FlowLoad base;
  base.flow = 0;
  base.rate = 1e6;
  base.packet_bits = 8000;

  FlowLoad l = base;
  l.flow = kInvalidFlow;
  EXPECT_TRUE(validate(l).has_value());

  l = base;
  l.rate = 0.0;
  EXPECT_TRUE(validate(l).has_value());
  l.rate = kNan;
  EXPECT_TRUE(validate(l).has_value());

  l = base;
  l.packet_bits = -8.0;
  EXPECT_TRUE(validate(l).has_value());

  l = base;
  l.start = -1.0;
  EXPECT_TRUE(validate(l).has_value());

  l = base;
  l.model = FlowLoad::Model::kOnOff;
  l.mean_on = 0.0;
  EXPECT_TRUE(validate(l).has_value());
}

TEST(RtValidate, TryCreateReturnsErrorInsteadOfThrowing) {
  SfqScheduler sched;
  sched.add_flow(1e6, 8000);

  // Null profile.
  std::unique_ptr<net::RateProfile> null_profile;
  std::string err;
  EXPECT_EQ(RtEngine::try_create(sched, null_profile, {}, &err), nullptr);
  EXPECT_FALSE(err.empty());

  // Malformed options: the profile is NOT consumed on failure.
  std::unique_ptr<net::RateProfile> profile =
      std::make_unique<net::ConstantRate>(1e9);
  EngineOptions bad;
  bad.ring_capacity = 0;
  err.clear();
  EXPECT_EQ(RtEngine::try_create(sched, profile, bad, &err), nullptr);
  EXPECT_NE(err.find("ring_capacity"), std::string::npos);
  ASSERT_NE(profile, nullptr);

  // Valid options succeed and consume the profile.
  auto engine = RtEngine::try_create(sched, profile, {}, &err);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(profile, nullptr);

  // LoadGen: malformed flow spec caught without a throw.
  FlowLoad badload;
  badload.flow = 0;
  badload.rate = -5.0;
  badload.packet_bits = 8000;
  err.clear();
  EXPECT_EQ(LoadGen::try_create(*engine, {{badload}}, {}, &err), nullptr);
  EXPECT_NE(err.find("rate"), std::string::npos);

  // More producers than engine shards.
  FlowLoad ok;
  ok.flow = 0;
  ok.rate = 1e6;
  ok.packet_bits = 8000;
  err.clear();
  EXPECT_EQ(LoadGen::try_create(*engine, {{ok}, {ok}}, {}, &err), nullptr);
  EXPECT_FALSE(err.empty());

  // And the throwing constructors surface the same message.
  EXPECT_THROW(LoadGen(*engine, {{badload}}, {}), std::invalid_argument);
  EXPECT_THROW(RtEngine(sched, nullptr, EngineOptions{}),
               std::invalid_argument);
}

// Checked-in corpus of malformed option sets (tests/corpus/rt_options),
// mirroring the config-parser corpus: every file must come back from
// validate() with a diagnostic, never crash, and never slip through. New
// validation failure classes get a corpus file, not just a table entry.
// Format: one `engine.<field>`, `loadgen.<field>` or `flow.<field>`
// directive per line with its value; the multi-value directives are
// `engine.fault_jump AT DELTA`, `engine.fault_skew FROM UNTIL FACTOR`,
// `engine.fault_pause AT DURATION`, `engine.fault_kill AT` and
// `flow.onoff_dwell MEAN_ON MEAN_OFF`. `#` starts a comment.
TEST(RtValidate, CorpusFilesAreAllRejectedWithADiagnostic) {
  namespace fs = std::filesystem;
  std::size_t seen = 0;
  for (const fs::directory_entry& e :
       fs::directory_iterator(SFQ_TEST_RT_CORPUS_DIR)) {
    if (e.path().extension() != ".opts") continue;
    ++seen;
    const std::string file = e.path().filename().string();

    EngineOptions eng;
    LoadGenOptions lg;
    FlowLoad flow;  // valid base so only the corpus directive is at fault
    flow.flow = 0;
    flow.rate = 1e6;
    flow.packet_bits = 8000;
    bool has_eng = false, has_lg = false, has_flow = false;

    std::ifstream in(e.path());
    ASSERT_TRUE(in) << file;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string key, tok;
      std::vector<std::string> vals;
      ls >> key;
      while (ls >> tok) vals.push_back(tok);
      // std::stod (not stream extraction) so "nan" and "inf" parse; a
      // missing value reads as 0.
      auto val = [&](std::size_t i) {
        return i < vals.size() ? std::stod(vals[i]) : 0.0;
      };
      const double v = val(0);
      if (key == "engine.producers") eng.producers = static_cast<std::size_t>(v);
      else if (key == "engine.ring_capacity")  // exact beyond 2^53
        eng.ring_capacity = vals.empty() ? 0 : std::stoull(vals[0]);
      else if (key == "engine.stall_timeout") eng.stall_timeout = v;
      else if (key == "engine.fault_jump")
        eng.fault_plan.jumps.push_back({v, val(1)});
      else if (key == "engine.fault_skew")
        eng.fault_plan.skews.push_back({v, val(1), val(2)});
      else if (key == "engine.fault_pause")
        eng.fault_plan.pauses.push_back({v, val(1)});
      else if (key == "engine.fault_kill")
        eng.fault_plan.kills.push_back({v});
      else if (key == "loadgen.offer_deadline") lg.offer_deadline = v;
      else if (key == "flow.rate") flow.rate = v;
      else if (key == "flow.packet_bits") flow.packet_bits = v;
      else if (key == "flow.start") flow.start = v;
      else if (key == "flow.onoff_dwell") {
        flow.model = FlowLoad::Model::kOnOff;
        flow.mean_on = v;
        flow.mean_off = val(1);
      } else {
        ADD_FAILURE() << file << ": unknown corpus key '" << key << "'";
        continue;
      }
      if (key.rfind("engine.", 0) == 0) has_eng = true;
      else if (key.rfind("loadgen.", 0) == 0) has_lg = true;
      else has_flow = true;
    }

    // At least one touched section must reject, with a non-empty message.
    std::string detail;
    if (has_eng)
      if (auto err = validate(eng)) detail = *err;
    if (detail.empty() && has_lg)
      if (auto err = validate(lg)) detail = *err;
    if (detail.empty() && has_flow)
      if (auto err = validate(flow)) detail = *err;
    EXPECT_FALSE(detail.empty()) << file << " unexpectedly validated";
  }
  EXPECT_GE(seen, 10u) << "rt corpus went missing from "
                       << SFQ_TEST_RT_CORPUS_DIR;
}

}  // namespace
}  // namespace sfq::rt
