#ifndef WAVEMR_PERFBENCH_TRACE_H_
#define WAVEMR_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace wavemr {
namespace perfbench {

/// steady_clock now, in nanoseconds.
int64_t NowNs();

/// In-memory span recorder for the benchmark's own calls into each layer.
/// A span is named "<layer>.<call>" (layer = the src/ module the call enters)
/// and nests under the innermost span open on the calling thread. Spans stay
/// in memory until Write(), so recording one costs two clock reads and a
/// vector append under a mutex.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = top level
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /// Placed from a RoundStats duration rather than timed by the bench.
    bool derived = false;
  };

  /// Records [construction, destruction) as a child of the thread's
  /// innermost open Scope. Inert when the tracer is null or disabled at
  /// construction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return id_; }
    int64_t start_ns() const { return start_ns_; }

   private:
    Tracer* tracer_ = nullptr;
    std::string name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t saved_current_ = 0;
    int64_t start_ns_ = 0;
  };

  explicit Tracer(bool enabled) : origin_ns_(NowNs()), enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Recording switch: the traced run alternates traced and untraced
  /// operations to measure what tracing costs.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Records a finished span directly; returns its id (0 when disabled).
  uint64_t Add(std::string name, uint64_t parent, int64_t start_ns,
               int64_t end_ns, bool derived = false);

  size_t size() const;

  /// Writes {"spans": [...], "layer_self_ms": {...}} to `path`. A span's
  /// self time is its duration minus the union of its children's intervals
  /// (clipped to the span); a layer's is the sum over spans whose name
  /// starts with "<layer>.".
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> Snapshot() const;
  static std::vector<int64_t> SelfTimesOf(const std::vector<Span>& spans);
  static std::map<std::string, double> SumByLayerMs(
      const std::vector<Span>& spans, const std::vector<int64_t>& self_ns);

  const int64_t origin_ns_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;     // guarded by mu_
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
}  // namespace wavemr

#endif  // WAVEMR_PERFBENCH_TRACE_H_
