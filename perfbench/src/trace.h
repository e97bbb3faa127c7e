#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file trace.h
/// In-memory span recorder of the benchmark's traced run.
///
/// Spans are recorded only around the benchmark's own calls into the
/// engine's modules (nothing inside the library is instrumented). A span
/// carries its layer (module name), the function called, start and end
/// on the host steady clock, its parent span and the query it belongs to.
/// Spans stay in memory until WriteJson at exit. A disabled tracer
/// records nothing and costs one branch per call site.

namespace perfbench {

struct Span {
  std::string layer;
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
  int64_t query = -1;   ///< stream query id, -1 outside a query
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int64_t Begin(const char* layer, const char* name, int64_t query);
  void End(int64_t id);

  size_t size() const { return spans_.size(); }

  /// Per-layer self time: each span's duration minus the part of it that
  /// its direct children cover.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span as one JSON document; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  double Now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name,
             int64_t query = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(layer, name, query) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench
