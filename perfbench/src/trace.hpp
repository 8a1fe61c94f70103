#pragma once
/// \file trace.hpp
/// In-memory span recorder for the traced benchmark mode.
///
/// Spans are recorded around the calls the benchmark makes into one layer
/// of the router (`layer.stage` names such as `core.extend`), kept in
/// memory and written out once at the end as Chrome trace-event JSON, which
/// Perfetto and chrome://tracing open offline. All spans come from the
/// benchmark's main thread and nest strictly (RAII), so a span's self time
/// is its duration minus the durations of its direct children.
///
/// A disabled tracer costs one branch per span: `span()` hands back an
/// inert guard that records nothing.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/clock.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span guard; records [construction, destruction) under `name`.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;

   private:
    Tracer* tracer_;  ///< null when tracing is off
    std::size_t index_ = 0;
  };

  /// Open a span; `name` must be a string literal (stored by pointer).
  [[nodiscard]] Span span(const char* name) { return Span(enabled_ ? this : nullptr, name); }

  /// Per-name aggregate over every closed span.
  struct Stat {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Stat> aggregate() const;
  /// Total seconds of every span named `name` (0 when none was recorded).
  [[nodiscard]] double total_s(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, microsecond stamps,
  /// category = the layer prefix of the span name). Returns false when the
  /// file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Record {
    const char* name = nullptr;
    lmr::core::Clock::time_point t0;
    lmr::core::Clock::time_point t1;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at top
    double child_s = 0.0;      ///< summed duration of direct children
  };

  bool enabled_;
  lmr::core::Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< stack of currently open spans
};

}  // namespace perfbench
