// Scenario corpus: named payload classes resolve, stream
// deterministically, and record to valid binary traces.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workload/corpus.hpp"

namespace dbi::workload {
namespace {

constexpr BusConfig kCfg{8, 8};

TEST(Corpus, ScenarioNamesAreUniqueAndResolvable) {
  const auto scenarios = corpus_scenarios();
  EXPECT_GE(scenarios.size(), 5u);
  std::set<std::string> names;
  for (const CorpusScenario& s : scenarios) {
    EXPECT_TRUE(names.insert(std::string(s.name)).second) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    auto src = make_corpus_source(s.name, kCfg, 1);
    ASSERT_NE(src, nullptr) << s.name;
    const Burst b = src->next();
    EXPECT_EQ(b.config(), kCfg) << s.name;
  }
}

TEST(Corpus, UnknownScenarioThrowsListingNames) {
  try {
    (void)make_corpus_source("no-such-scenario", kCfg, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos);
    EXPECT_NE(what.find("cacheline-memcpy"), std::string::npos);
  }
}

TEST(Corpus, SourcesAreDeterministicPerSeed) {
  for (const CorpusScenario& s : corpus_scenarios()) {
    auto a = make_corpus_source(s.name, kCfg, 42);
    auto b = make_corpus_source(s.name, kCfg, 42);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(a->next(), b->next()) << s.name;
  }
}

TEST(Corpus, ScenariosDifferInPayloadStatistics) {
  // The corpus spans the coding-gain spectrum: the sparse class must be
  // zeros-dominated and the high-entropy class balanced.
  auto measure = [](std::string_view name) {
    auto src = make_corpus_source(name, kCfg, 3);
    std::int64_t zeros = 0;
    constexpr int kBursts = 400;
    for (int i = 0; i < kBursts; ++i) zeros += src->next().payload_zeros();
    return static_cast<double>(zeros) / (kBursts * 64.0);
  };
  EXPECT_GT(measure("sparse-zeros"), 0.8);
  const double uniform = measure("high-entropy");
  EXPECT_GT(uniform, 0.45);
  EXPECT_LT(uniform, 0.55);
  // Pointer-rich copies carry far more zero bytes than uniform data.
  EXPECT_GT(measure("cacheline-memcpy"), 0.55);
}

TEST(Corpus, RecordsToValidBinaryTrace) {
  for (const CorpusScenario& s : corpus_scenarios()) {
    std::ostringstream os(std::ios::binary);
    trace::TraceWriter writer(os, kCfg);
    auto src = make_corpus_source(s.name, kCfg, 7);
    for (int i = 0; i < 100; ++i) writer.write(src->next());
    writer.finish();
    const std::string image = os.str();
    const auto reader = trace::TraceReader::from_bytes(
        std::vector<std::uint8_t>(image.begin(), image.end()));
    EXPECT_EQ(reader.bursts(), 100) << s.name;
  }
}

TEST(Corpus, FillWideCorpusIsDeterministicAndMasksRemainderGroups) {
  const dbi::WideBusConfig cfg{12, 8};
  std::vector<std::uint8_t> a(static_cast<std::size_t>(cfg.bytes_per_burst()) *
                              64);
  std::vector<std::uint8_t> b(a.size());
  fill_wide_corpus("high-entropy", cfg, 9, a);
  fill_wide_corpus("high-entropy", cfg, 9, b);
  EXPECT_EQ(a, b);
  fill_wide_corpus("high-entropy", cfg, 10, b);
  EXPECT_NE(a, b);

  // Group 1 has 4 lanes: its bytes must stay inside 0x0..0xF.
  bool any_nonzero = false;
  for (std::size_t i = 1; i < a.size(); i += 2) {
    EXPECT_LE(a[i], 0x0FU) << "byte " << i;
    any_nonzero |= a[i] != 0;
  }
  EXPECT_TRUE(any_nonzero);

  EXPECT_THROW(fill_wide_corpus("no-such-scenario", cfg, 1, a),
               std::invalid_argument);
  std::vector<std::uint8_t> odd(cfg.bytes_per_burst() + 1);
  EXPECT_THROW(fill_wide_corpus("high-entropy", cfg, 1, odd),
               std::invalid_argument);
}

TEST(Corpus, WideRecordingsReplayForEveryScenario) {
  // Every scenario must stream at x32 into a valid wide trace whose
  // replay stats are reproducible.
  const dbi::WideBusConfig cfg{32, 8};
  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(Scheme::kAc);
  spec.geometry = Geometry::of(cfg);
  for (const CorpusScenario& s : corpus_scenarios()) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(cfg.bytes_per_burst()) * 96);
    fill_wide_corpus(s.name, cfg, 5, bytes);
    std::ostringstream os(std::ios::binary);
    trace::TraceWriter writer(os, Geometry::of(cfg));
    writer.write_packed(bytes);
    writer.finish();
    const std::string image = os.str();
    const auto reader = trace::TraceReader::from_bytes(
        std::vector<std::uint8_t>(image.begin(), image.end()));
    EXPECT_TRUE(reader.wide()) << s.name;
    EXPECT_EQ(reader.bursts(), 96) << s.name;
    Session session(spec);
    const auto source = dbi::make_trace_source(reader);
    const StreamStats t1 = session.run(*source);
    const StreamStats t2 = session.run(*source);
    EXPECT_EQ(t1.zeros, t2.zeros) << s.name;
    EXPECT_GT(t1.zeros, 0) << s.name;
  }
}

}  // namespace
}  // namespace dbi::workload
