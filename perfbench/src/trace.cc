#include "trace.h"

#include <fstream>

#include "json.h"

namespace perfbench {

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int64_t Tracer::Begin(const char* layer, const char* name, int64_t query) {
  if (!enabled_) return -1;
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query = query;
  span.start_s = Now();
  spans_.push_back(std::move(span));
  const auto id = static_cast<int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<size_t>(id)].end_s = Now();
  // Spans are strictly nested (RAII on one thread): the closing span is
  // the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_cover[static_cast<size_t>(span.parent)] += span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] +=
        spans_[i].end_s - spans_[i].start_s - child_cover[i];
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"layer\": " << JsonString(s.layer)
        << ", \"name\": " << JsonString(s.name)
        << ", \"start_s\": " << JsonNumber(s.start_s)
        << ", \"end_s\": " << JsonNumber(s.end_s)
        << ", \"parent\": " << s.parent << ", \"query\": " << s.query << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
