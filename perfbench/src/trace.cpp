#include "trace.hpp"

#include <cstdio>
#include <string_view>

namespace perfbench {

using lmr::core::seconds_between;

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(lmr::core::now()) {
  if (enabled_) records_.reserve(1 << 16);
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Record r;
  r.name = name;
  r.parent = tracer_->open_.empty() ? -1 : static_cast<std::int64_t>(tracer_->open_.back());
  index_ = tracer_->records_.size();
  tracer_->records_.push_back(r);
  tracer_->open_.push_back(index_);
  tracer_->records_[index_].t0 = lmr::core::now();  // last, to exclude bookkeeping
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& r = tracer_->records_[index_];
  r.t1 = lmr::core::now();
  tracer_->open_.pop_back();
  if (r.parent >= 0) {
    tracer_->records_[static_cast<std::size_t>(r.parent)].child_s += seconds_between(r.t0, r.t1);
  }
}

std::map<std::string, Tracer::Stat> Tracer::aggregate() const {
  std::map<std::string, Stat> out;
  for (const Record& r : records_) {
    Stat& s = out[r.name];
    const double d = seconds_between(r.t0, r.t1);
    s.total_s += d;
    s.self_s += d - r.child_s;
    ++s.count;
  }
  return out;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Record& r : records_) {
    if (name == r.name) total += seconds_between(r.t0, r.t1);
  }
  return total;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string_view name(r.name);
    const std::string_view layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", r.name, static_cast<int>(layer.size()), layer.data(),
                 1e6 * seconds_between(origin_, r.t0), 1e6 * seconds_between(r.t0, r.t1), i,
                 static_cast<long long>(r.parent));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
