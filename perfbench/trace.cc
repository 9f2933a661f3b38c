#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace wavemr {
namespace perfbench {

namespace {

// Innermost open Scope on this thread; new spans nest under it.
thread_local uint64_t tls_current_span = 0;

std::string LayerOf(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  name_ = std::move(name);
  {
    std::lock_guard<std::mutex> lock(tracer->mu_);
    id_ = tracer->next_id_++;
  }
  parent_ = tls_current_span;
  saved_current_ = tls_current_span;
  tls_current_span = id_;
  start_ns_ = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const int64_t end_ns = NowNs();
  tls_current_span = saved_current_;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(
      Span{id_, parent_, std::move(name_), start_ns_, end_ns, false});
}

uint64_t Tracer::Add(std::string name, uint64_t parent, int64_t start_ns,
                     int64_t end_ns, bool derived) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(
      Span{id, parent, std::move(name), start_ns, end_ns, derived});
  return id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Tracer::Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> spans = spans_;
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return spans;
}

std::vector<int64_t> Tracer::SelfTimesOf(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> Tracer::SumByLayerMs(
    const std::vector<Span>& spans, const std::vector<int64_t>& self_ns) {
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[LayerOf(spans[i].name)] += static_cast<double>(self_ns[i]) * 1e-6;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  const std::vector<int64_t> self = SelfTimesOf(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "  {\"id\": %llu, \"parent\": %llu, \"name\": ",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    WriteJsonString(f, s.name);
    std::fprintf(f,
                 ", \"start_us\": %.3f, \"end_us\": %.3f, \"self_us\": %.3f, "
                 "\"derived\": %s}%s\n",
                 static_cast<double>(s.start_ns - origin_ns_) * 1e-3,
                 static_cast<double>(s.end_ns - origin_ns_) * 1e-3,
                 static_cast<double>(self[i]) * 1e-3,
                 s.derived ? "true" : "false",
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"layer_self_ms\": {");
  bool first = true;
  for (const auto& [layer, ms] : SumByLayerMs(spans, self)) {
    std::fprintf(f, "%s", first ? "" : ", ");
    WriteJsonString(f, layer);
    std::fprintf(f, ": %.6f", ms);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace wavemr
