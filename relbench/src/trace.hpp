// Span recorder of the traced run.
//
// The benchmark records one span around each timed call into a layer of
// the library or the daemon: name, start, end, parent span and op id.
// Spans stay in memory and are written as Chrome trace-event JSON when
// the run ends. A span's self time is its duration minus the part of
// that interval its child spans cover.
//
// Disabled, a Span costs one branch: untraced runs pay nothing for the
// instrumentation they carry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace relbench {

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Spans begun from now on are recorded only while recording is on
  /// (the traced run interleaves untraced ops to price the tracing).
  void set_recording(bool on) {
    recording_.store(on && enabled_, std::memory_order_relaxed);
  }
  [[nodiscard]] bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  /// Scoped span. Its parent is the innermost open span of the same
  /// thread; `op` groups the spans of one benchmark op.
  class Span {
   public:
    /// Recorded when the trace is recording and `record` holds.
    Span(Trace& trace, const char* name, long long op, bool record = true);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace* trace_ = nullptr;
    int index_ = -1;
  };

  /// Records one sample of a named counter (sched.iterations, cone
  /// sizes, ...) at the current time.
  void count(const char* name, double value);

  /// Per-span durations / self times (ms) of every span named `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;
  /// Every sample of counter `name`.
  [[nodiscard]] std::vector<double> samples(const std::string& name) const;

  /// Writes every span and counter as Chrome trace-event JSON
  /// (chrome://tracing, Perfetto). False on an I/O failure.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct Rec {
    const char* name = nullptr;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    long long op = 0;
    int tid = 0;
  };
  struct Sample {
    const char* name = nullptr;
    std::int64_t at_ns = 0;
    double value = 0;
  };

  [[nodiscard]] std::int64_t now_ns() const;
  int begin(const char* name, long long op);
  void end(int index);
  /// Self time of every span (ns), indexed like spans_.
  [[nodiscard]] std::vector<std::int64_t> self_times_ns() const;

  const bool enabled_;
  std::atomic<bool> recording_{false};
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Rec> spans_;
  std::vector<Sample> samples_;
};

}  // namespace relbench
