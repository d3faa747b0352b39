#ifndef CADRL_BENCH_E2E_TRACE_H_
#define CADRL_BENCH_E2E_TRACE_H_

// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark around its calls into the library (the library itself is
// not instrumented): each span has a name, start, end, a parent span and a
// request id shared by every span of one request. Spans stay in per-thread
// buffers until the run ends; WriteChromeTrace then writes them once, as
// Chrome trace JSON, with each span's self time (its duration minus the
// part its children cover).
//
// When disabled, Record is a single branch, so the untraced run that the
// end-to-end metrics come from pays nothing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cadrl {
namespace e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // static string
  int64_t start_ns = 0;   // since the recorder's epoch
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not part of a request
  int thread = 0;
};

class SpanRecorder {
 public:
  // Root spans of requests get an id derived from the request id, so a
  // span recorded on another thread can name its parent without a lookup.
  static constexpr uint64_t kRequestRootBit = uint64_t{1} << 62;
  static uint64_t RootIdFor(uint64_t request) {
    return request | kRequestRootBit;
  }

  static SpanRecorder& Get() {
    static SpanRecorder recorder;
    return recorder;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  // Records one finished span; `id` 0 allocates a fresh one.
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              uint64_t request, uint64_t parent, uint64_t id = 0) {
    if (!enabled()) return;
    Buffer& buf = ThreadBuffer();
    const Span span{name,   ToNs(start), ToNs(end), id != 0 ? id : NextId(),
                    parent, request,     buf.thread};
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.spans.push_back(span);
  }

  // The innermost open ScopedSpan on this thread (0 when none).
  static uint64_t& CurrentParent() {
    thread_local uint64_t current = 0;
    return current;
  }

  // Every span recorded so far (threads may still be recording).
  std::vector<Span> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    }
    return all;
  }

  // Durations in ms of the spans called `name` that started at or after
  // `since_ns`.
  std::vector<double> DurationsMs(std::string_view name,
                                  int64_t since_ns) const {
    std::vector<double> out;
    for (const Span& s : Collect()) {
      if (s.start_ns >= since_ns && name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    return out;
  }

  // Self time (ns) of every span in `spans`, in the same order: the span's
  // duration minus the union of its children's intervals clipped to it.
  static std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
    std::unordered_map<uint64_t, std::vector<size_t>> children;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::vector<std::pair<int64_t, int64_t>> cover;
      const auto it = children.find(s.id);
      if (it != children.end()) {
        for (const size_t c : it->second) {
          const int64_t b = std::max(spans[c].start_ns, s.start_ns);
          const int64_t e = std::min(spans[c].end_ns, s.end_ns);
          if (e > b) cover.emplace_back(b, e);
        }
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0;
      int64_t reach = s.start_ns;
      for (const auto& [b, e] : cover) {
        const int64_t from = std::max(b, reach);
        if (e > from) {
          covered += e - from;
          reach = e;
        }
      }
      self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
  }

  // Writes every recorded span as Chrome trace JSON ("X" events, times in
  // microseconds); args carry id, parent, request and self time.
  bool WriteChromeTrace(const std::string& path) const {
    const std::vector<Span> spans = Collect();
    const std::vector<int64_t> self = SelfTimes(spans);
    std::ofstream out(path);
    if (!out.is_open()) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
          << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request
          << ",\"self_us\":" << static_cast<double>(self[i]) / 1e3 << "}}";
    }
    out << "\n]}\n";
    return out.good();
  }

 private:
  // One per recording thread. Its mutex is uncontended except while
  // Collect copies the spans out.
  struct Buffer {
    int thread = 0;
    std::mutex mu;
    std::vector<Span> spans;
  };

  SpanRecorder() : epoch_(Clock::now()) {}

  // Buffers are owned by the recorder, so spans outlive the threads (serve
  // workers, pool threads) that recorded them.
  Buffer& ThreadBuffer() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->thread = static_cast<int>(buffers_.size());
    }
    return *mine;
  }

  const Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Records a span around a scope on the current thread; spans opened inside
// it (on the same thread) become its children.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0)
      : name_(name), request_(request) {
    SpanRecorder& rec = SpanRecorder::Get();
    if (!rec.enabled()) return;
    id_ = rec.NextId();
    parent_ = SpanRecorder::CurrentParent();
    SpanRecorder::CurrentParent() = id_;
    start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (id_ == 0) return;
    SpanRecorder::Get().Record(name_, start_, Clock::now(), request_, parent_,
                               id_);
    SpanRecorder::CurrentParent() = parent_;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t request_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  Clock::time_point start_;
};

}  // namespace e2e
}  // namespace cadrl

#endif  // CADRL_BENCH_E2E_TRACE_H_
