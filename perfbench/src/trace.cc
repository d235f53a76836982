#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "util/env.h"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint64_t Tracer::Begin(const std::string& layer, uint64_t statement) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.statement = statement;
  s.layer = layer;
  s.start_ms = NowMs();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  const double now = NowMs();
  // Close `id` and anything still open inside it.
  while (!open_.empty()) {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end_ms = now;
    if (s.id == id) break;
  }
}

void Tracer::AddChild(uint64_t parent, const std::string& layer,
                      double start_ms, double duration_ms) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.statement = parent > 0 ? spans_[parent - 1].statement : 0;
  s.layer = layer;
  s.start_ms = start_ms;
  s.end_ms = start_ms + duration_ms;
  spans_.push_back(std::move(s));
}

double Tracer::SelfTimeMs(uint64_t span_id) const {
  const Span& s = spans_[span_id - 1];
  // Children always follow their parent and share its statement, so the
  // scan stops at the first span of a later statement.
  std::vector<std::pair<double, double>> kids;
  for (size_t i = span_id; i < spans_.size(); ++i) {
    const Span& c = spans_[i];
    if (c.statement != s.statement) break;
    if (c.parent == s.id) {
      kids.emplace_back(std::max(c.start_ms, s.start_ms),
                        std::min(c.end_ms, s.end_ms));
    }
  }
  std::sort(kids.begin(), kids.end());
  // Length of the union of the children's intervals.
  double covered = 0, lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : kids) {
    if (b <= a) continue;
    if (!open || a > hi) {
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) covered += hi - lo;
  return std::max(0.0, (s.end_ms - s.start_ms) - covered);
}

double Tracer::TreeSelfTimeMs(uint64_t span_id) const {
  const uint64_t statement = spans_[span_id - 1].statement;
  std::vector<uint64_t> tree = {span_id};  // ids, ascending
  double sum = SelfTimeMs(span_id);
  for (size_t i = span_id; i < spans_.size(); ++i) {
    const Span& c = spans_[i];
    if (c.statement != statement) break;
    if (std::binary_search(tree.begin(), tree.end(), c.parent)) {
      tree.push_back(c.id);
      sum += SelfTimeMs(c.id);
    }
  }
  return sum;
}

hique::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::string out;
  char buf[512];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"statement\":%llu,"
                  "\"layer\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.statement),
                  s.layer.c_str(), s.start_ms, s.end_ms);
    out += buf;
  }
  return hique::env::WriteFile(path, out);
}

}  // namespace perfbench
