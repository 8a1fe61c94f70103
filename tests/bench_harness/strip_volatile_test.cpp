#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "bench_harness/report.hpp"

/// Drift guard for the two strip_volatile implementations: the C++
/// `lmr::bench::strip_volatile` (report.cpp) and its script-side twin
/// `tools/strip_volatile.py` must produce byte-identical stripped documents
/// on the committed BENCH_results.json. CI compares results files with the
/// python script while the unit tests and the suite use the C++ one — if
/// either learns a volatile key the other doesn't, reproducibility checks
/// would pass on one side and fail on the other.

namespace lmr::bench {
namespace {

/// Capture a command's stdout; empty optional-style: ok=false when the
/// command could not run or exited non-zero.
bool run_command(const std::string& cmd, std::string& out) {
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), got);
  }
  return pclose(pipe) == 0;
}

TEST(StripVolatile, PythonTwinIsByteIdenticalOnTrackedResults) {
  const std::string src_dir = LMR_SOURCE_DIR;
  const std::string results = src_dir + "/BENCH_results.json";
  const std::string script = src_dir + "/tools/strip_volatile.py";

  std::string probe;
  if (!run_command("python3 --version 2>/dev/null", probe)) {
    GTEST_SKIP() << "python3 not available";
  }

  const Json doc = read_json_file(results);
  const std::string cpp_stripped = strip_volatile(doc).dump(2) + "\n";

  std::string py_stripped;
  ASSERT_TRUE(run_command("python3 '" + script + "' '" + results + "'", py_stripped))
      << "strip_volatile.py failed";
  EXPECT_EQ(cpp_stripped, py_stripped)
      << "C++ strip_volatile and tools/strip_volatile.py drifted apart";
}

TEST(StripVolatile, DrcOverlapSectionIsVolatile) {
  // A group report's DRC timing split (extension, DRC overlapped with other
  // members' extension, and the post-join barrier pass) is wall clock on
  // this machine: every `*_s` key strips by its suffix, while the matching
  // outcome beside it is kept.
  Json doc = Json::object();
  doc["schema"] = "test";
  Json group = Json::object();
  group["family"] = "large_group";
  group["matched"] = true;
  group["patterns"] = 12;
  group["extend_runtime_s"] = 0.25;
  group["drc_overlap_runtime_s"] = 0.0625;
  group["drc_barrier_runtime_s"] = 0.125;
  group["drc_runtime_s"] = 0.1875;
  Json groups = Json::array();
  groups.push_back(std::move(group));
  doc["groups"] = std::move(groups);
  doc["extend_runtime_s"] = 0.25;
  doc["drc_barrier_runtime_s"] = 0.125;

  const Json stripped = strip_volatile(doc);
  EXPECT_EQ(stripped.find("extend_runtime_s"), nullptr);
  EXPECT_EQ(stripped.find("drc_barrier_runtime_s"), nullptr);
  EXPECT_NE(stripped.find("schema"), nullptr);
  const Json* kept_groups = stripped.find("groups");
  ASSERT_NE(kept_groups, nullptr);
  ASSERT_EQ(kept_groups->size(), 1u);
  const Json& kept = kept_groups->items().front();
  EXPECT_EQ(kept.find("extend_runtime_s"), nullptr);
  EXPECT_EQ(kept.find("drc_overlap_runtime_s"), nullptr);
  EXPECT_EQ(kept.find("drc_barrier_runtime_s"), nullptr);
  EXPECT_EQ(kept.find("drc_runtime_s"), nullptr);
  EXPECT_NE(kept.find("family"), nullptr);
  EXPECT_NE(kept.find("matched"), nullptr);
  EXPECT_NE(kept.find("patterns"), nullptr);
}

TEST(StripVolatile, ServiceSectionIsVolatile) {
  // The multi-board replay section is pure timing + scheduling counters
  // (edits/sec, queue depths, batch sizes): thread count and dispatch
  // interleaving change every number, so the whole section strips.
  Json doc = Json::object();
  doc["schema"] = "test";
  Json storm = Json::object();
  storm["name"] = "service_storm/smoke-8x4";
  storm["all_equivalent"] = true;
  Json point = Json::object();
  point["threads"] = 4;
  point["replay_s"] = 0.25;
  point["edits_per_s"] = 128.0;
  Json points = Json::array();
  points.push_back(std::move(point));
  storm["points"] = std::move(points);
  Json section = Json::array();
  section.push_back(std::move(storm));
  doc["service"] = std::move(section);
  doc["groups"] = 7;

  const Json stripped = strip_volatile(doc);
  EXPECT_EQ(stripped.find("service"), nullptr);
  EXPECT_NE(stripped.find("schema"), nullptr);
  EXPECT_NE(stripped.find("groups"), nullptr);
}

TEST(StripVolatile, FaultStormSectionIsVolatile) {
  // Fault-storm payloads are retry/timeout/backoff counters and replay
  // timings; the dropped-vs-shed split even depends on dispatch timing.
  // The hard gates (end-state equivalence, fault gates) are enforced by
  // bench_suite's exit code, not by document comparison — strip it whole.
  Json doc = Json::object();
  doc["schema"] = "test";
  Json storm = Json::object();
  storm["name"] = "fault_storm/quarantine-4x4";
  storm["kind"] = "quarantine";
  storm["all_ok"] = true;
  Json point = Json::object();
  point["threads"] = 4;
  point["retries"] = 4;
  point["quarantines"] = 2;
  point["backoff_virtual_s"] = 0.07;
  Json points = Json::array();
  points.push_back(std::move(point));
  storm["points"] = std::move(points);
  Json section = Json::array();
  section.push_back(std::move(storm));
  doc["fault_storm"] = std::move(section);
  doc["groups"] = 7;

  const Json stripped = strip_volatile(doc);
  EXPECT_EQ(stripped.find("fault_storm"), nullptr);
  EXPECT_NE(stripped.find("schema"), nullptr);
  EXPECT_NE(stripped.find("groups"), nullptr);
}

}  // namespace
}  // namespace lmr::bench
