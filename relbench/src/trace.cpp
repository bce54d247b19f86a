#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace relbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

int thread_index() {
  static std::mutex mutex;
  static int next = 0;
  thread_local int index = -1;
  if (index < 0) {
    std::lock_guard<std::mutex> lock(mutex);
    index = next++;
  }
  return index;
}

}  // namespace

Trace::Span::Span(Trace& trace, const char* name, long long op,
                  bool record) {
  if (!record || !trace.recording()) return;
  trace_ = &trace;
  index_ = trace.begin(name, op);
}

Trace::Span::~Span() {
  if (trace_ != nullptr) trace_->end(index_);
}

std::int64_t Trace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Trace::begin(const char* name, long long op) {
  Rec rec;
  rec.name = name;
  rec.parent = t_open.empty() ? -1 : t_open.back();
  rec.op = op;
  rec.tid = thread_index();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    rec.begin_ns = now_ns();
    spans_.push_back(rec);
  }
  t_open.push_back(index);
  return index;
}

void Trace::end(int index) {
  const std::int64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

void Trace::count(const char* name, double value) {
  if (!recording()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back({name, now_ns(), value});
}

std::vector<std::int64_t> Trace::self_times_ns() const {
  // Children of one parent, as intervals clipped to the parent; their
  // union is what the parent did not do itself.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Rec& r : spans_) {
    if (r.parent < 0 || r.end_ns < 0) continue;
    const Rec& p = spans_[static_cast<std::size_t>(r.parent)];
    const std::int64_t b = std::max(r.begin_ns, p.begin_ns);
    const std::int64_t e = p.end_ns < 0 ? r.end_ns : std::min(r.end_ns, p.end_ns);
    if (e > b) kids[static_cast<std::size_t>(r.parent)].emplace_back(b, e);
  }
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.end_ns < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_b = 0;
    std::int64_t cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[i] = r.end_ns - r.begin_ns - covered;
  }
  return self;
}

std::vector<double> Trace::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Rec& r : spans_) {
    if (r.end_ns >= 0 && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.begin_ns) / 1e6);
    }
  }
  return out;
}

std::vector<double> Trace::self_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<std::int64_t> self = self_times_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns >= 0 && name == spans_[i].name) {
      out.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }
  return out;
}

std::vector<double> Trace::samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Sample& s : samples_) {
    if (name == s.name) out.push_back(s.value);
  }
  return out;
}

bool Trace::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<std::int64_t> self = self_times_ns();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  char buf[512];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.end_ns < 0) continue;
    sep();
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"op\":%lld,\"self_us\":%.3f}}",
                  r.name, r.tid, static_cast<double>(r.begin_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.begin_ns) / 1e3, i,
                  r.parent, r.op, static_cast<double>(self[i]) / 1e3);
    out << buf;
  }
  for (const Sample& s : samples_) {
    sep();
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
                  "\"ts\":%.3f,\"args\":{\"value\":%.17g}}",
                  s.name, static_cast<double>(s.at_ns) / 1e3, s.value);
    out << buf;
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace relbench
