#include "bench_harness/report.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifdef __unix__
#include <sys/utsname.h>
#include <unistd.h>

#include "core/clock.hpp"
#endif

namespace lmr::bench {

RunInfo collect_run_info() {
  RunInfo info;
#ifdef __unix__
  char host[256] = {0};
  if (gethostname(host, sizeof host - 1) == 0) info.host = host;
  utsname u{};
  if (uname(&u) == 0) info.os = std::string(u.sysname) + " " + u.release;
#endif
  if (info.host.empty()) info.host = "unknown";
  if (info.os.empty()) info.os = "unknown";
#if defined(__VERSION__)
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
#ifdef NDEBUG
  info.build_type = "release";
#else
  info.build_type = "debug";
#endif
  info.hardware_threads = static_cast<int>(std::thread::hardware_concurrency());

  info.timestamp_utc = core::utc_timestamp();
  return info;
}

Json run_info_json(const RunInfo& info) {
  Json j = Json::object();
  j["host"] = info.host;
  j["os"] = info.os;
  j["compiler"] = info.compiler;
  j["build_type"] = info.build_type;
  j["hardware_threads"] = info.hardware_threads;
  j["timestamp_utc"] = info.timestamp_utc;
  return j;
}

Json strip_volatile(const Json& doc) {
  if (doc.is_array()) {
    Json out = Json::array();
    for (const Json& item : doc.items()) out.push_back(strip_volatile(item));
    return out;
  }
  if (doc.is_object()) {
    Json out = Json::object();
    for (const auto& [key, value] : doc.members()) {
      if (key == "run" || key == "scaling" || key == "edit_storm" ||
          key == "service" || key == "fault_storm") {
        continue;
      }
      if (key == "threads_used" || key == "pool_policy") continue;
      if (key.size() >= 2 && key.compare(key.size() - 2, 2, "_s") == 0) continue;
      out[key] = strip_volatile(value);
    }
    return out;
  }
  return doc;
}

void write_json_file(const std::string& path, const Json& doc) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << doc.dump(2) << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

int write_results_file(const std::string& path, const Json& doc) {
  try {
    write_json_file(path, doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write results: %s\n", e.what());
    return 2;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

}  // namespace lmr::bench
