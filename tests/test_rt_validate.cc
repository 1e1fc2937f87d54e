#include "rt/validate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

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
      {"negative spin", [](EngineOptions& o) { o.spin_threshold = -1.0; }},
      {"nan stall timeout", [](EngineOptions& o) { o.stall_timeout = kNan; }},
      {"shed exit above enter",
       [](EngineOptions& o) {
         o.admission_control = true;
         o.shed_exit = 0.9;
         o.shed_enter = 0.8;
       }},
      {"shed critical above 1",
       [](EngineOptions& o) {
         o.admission_control = true;
         o.shed_critical = 1.5;
       }},
      {"zero critical factor",
       [](EngineOptions& o) {
         o.admission_control = true;
         o.shed_critical_factor = 0.0;
       }},
      {"negative shed burst",
       [](EngineOptions& o) {
         o.admission_control = true;
         o.shed_burst = -1.0;
       }},
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
  // Shed thresholds are only checked when admission control is on.
  EngineOptions off;
  off.shed_exit = 0.9;
  off.shed_enter = 0.8;
  EXPECT_FALSE(validate(off).has_value());
}

TEST(RtValidate, LoadGenOptionTable) {
  struct Case {
    const char* what;
    void (*mutate)(LoadGenOptions&);
  };
  const Case cases[] = {
      {"zero slice", [](LoadGenOptions& o) { o.slice = 0.0; }},
      {"nan slice", [](LoadGenOptions& o) { o.slice = kNan; }},
      {"zero backoff initial",
       [](LoadGenOptions& o) { o.backoff_initial = 0.0; }},
      {"backoff max below initial",
       [](LoadGenOptions& o) { o.backoff_max = o.backoff_initial / 2; }},
      {"shrinking multiplier",
       [](LoadGenOptions& o) { o.backoff_multiplier = 0.5; }},
      {"jitter of 1", [](LoadGenOptions& o) { o.backoff_jitter = 1.0; }},
      {"negative jitter", [](LoadGenOptions& o) { o.backoff_jitter = -0.1; }},
      {"infinite deadline",
       [](LoadGenOptions& o) { o.offer_deadline = kInf; }},
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
// directive per line; `#` starts a comment.
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
      ls >> key >> tok;
      // std::stod (not stream extraction) so "nan" and "inf" parse.
      const double v = tok.empty() ? 0.0 : std::stod(tok);
      if (key == "engine.producers") eng.producers = static_cast<std::size_t>(v);
      else if (key == "engine.ring_capacity")
        eng.ring_capacity = static_cast<std::size_t>(v);
      else if (key == "engine.spin_threshold") eng.spin_threshold = v;
      else if (key == "engine.stall_timeout") eng.stall_timeout = v;
      else if (key == "engine.admission_control") eng.admission_control = v != 0.0;
      else if (key == "engine.shed_enter") eng.shed_enter = v;
      else if (key == "engine.shed_exit") eng.shed_exit = v;
      else if (key == "engine.shed_critical") eng.shed_critical = v;
      else if (key == "engine.shed_critical_factor") eng.shed_critical_factor = v;
      else if (key == "engine.shed_burst") eng.shed_burst = v;
      else if (key == "engine.fault_pause") {
        double dur = 0.0;
        ls >> dur;
        eng.fault_plan.pauses.push_back({v, dur});
      } else if (key == "loadgen.slice") lg.slice = v;
      else if (key == "loadgen.backoff_initial") lg.backoff_initial = v;
      else if (key == "loadgen.backoff_max") lg.backoff_max = v;
      else if (key == "loadgen.backoff_multiplier") lg.backoff_multiplier = v;
      else if (key == "loadgen.backoff_jitter") lg.backoff_jitter = v;
      else if (key == "loadgen.offer_deadline") lg.offer_deadline = v;
      else if (key == "flow.rate") flow.rate = v;
      else if (key == "flow.packet_bits") flow.packet_bits = v;
      else if (key == "flow.start") flow.start = v;
      else {
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
