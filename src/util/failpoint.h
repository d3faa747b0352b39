#ifndef CADRL_UTIL_FAILPOINT_H_
#define CADRL_UTIL_FAILPOINT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace cadrl {

// A registry of named failure-injection points. Production code places
// `CADRL_FAILPOINT("subsystem/event")` at a spot where a fault can occur
// (a short write, ENOSPC, a crash between steps); while nothing is armed
// the call is one atomic load, otherwise a map lookup returning false
// unless a test armed that name. Tests arm a point with an optional skip
// count ("fire on the 3rd hit") and a trigger budget ("fire twice, then
// fall through"), run the workload, and assert that the failure surfaced
// as a Status instead of a torn artifact or an abort.
//
// Beyond the deterministic count mode, chaos tests can arm a point
// probabilistically (`ArmWithProbability`) and/or with latency injection
// (`ArmLatency`, modelling a slow-not-dead dependency: the hit sleeps, then
// falls through or fires as usual). Both draw their per-hit decision from a
// seeded splitmix64 hash of (seed, thread token, per-token hit index) — no
// global RNG state — so a given request replays the same fault pattern on
// every run regardless of how requests interleave across threads. The
// thread token defaults to 0; serving code scopes it to the request id via
// ScopedFailpointToken (see serve::RecommendService).
//
// The registry is process-global and thread-safe; arming is test-only and
// never persisted.
class Failpoints {
 public:
  static Failpoints& Instance();

  // Arms `name`: after `skip` non-firing hits, the next `count` hits fire.
  // `count < 0` fires on every hit (after `skip`) until Disarm.
  void Arm(const std::string& name, int count = 1, int skip = 0);

  // Arms `name` probabilistically: each hit fires with probability `p`,
  // decided by hash(seed, thread token, per-token hit index). Replaces any
  // count-mode arming of the same name.
  void ArmWithProbability(const std::string& name, double p, uint64_t seed);

  // Arms latency injection on `name`: each hit sleeps `delay` with
  // probability `p` (decided like ArmWithProbability, independent stream),
  // then proceeds to the normal fire decision. Latency arming is orthogonal
  // to Arm/ArmWithProbability — a point can be slow, failing, or both.
  void ArmLatency(const std::string& name, std::chrono::microseconds delay,
                  double p = 1.0, uint64_t seed = 0);

  void Disarm(const std::string& name);
  void DisarmAll();

  // True if `name` is armed and this hit should fail; consumes one trigger
  // (count mode) or one per-token draw (probability mode). Sleeps first
  // when a latency arming fires; the sleep happens outside the registry
  // lock, so concurrent hits are never serialized by an injected delay.
  bool Hit(std::string_view name);

  // Number of times `name` has fired since it was last armed.
  int fire_count(const std::string& name) const;

  // Thread-local fault-domain token folded into probabilistic decisions.
  // Serving code sets it to the request id so each request sees a fault
  // pattern that is a pure function of (seed, request id), independent of
  // thread scheduling. Defaults to 0.
  static void SetThreadToken(uint64_t token);
  static uint64_t thread_token();

  // Replaces the real sleep a firing latency arming performs — chaos tests
  // route it into a util::VirtualTimeSource so injected delays advance the
  // virtual clock instead of blocking the suite (DESIGN.md §15). Null
  // restores the real sleep. Process-global like the registry; the fire
  // *decision* stays the seeded hash either way, so swapping the sleeper
  // never changes which hits fire.
  void SetSleeper(std::function<void(std::chrono::microseconds)> sleeper);

 private:
  struct Arming {
    // Count mode (probability < 0).
    int skip = 0;
    int remaining = 0;  // negative = unlimited
    // Probability mode (probability >= 0).
    double probability = -1.0;
    uint64_t seed = 0;
    std::unordered_map<uint64_t, uint64_t> hits_by_token;
    int fired = 0;
  };
  struct LatencyArming {
    std::chrono::microseconds delay{0};
    double probability = 1.0;
    uint64_t seed = 0;
    std::unordered_map<uint64_t, uint64_t> hits_by_token;
    int fired = 0;
  };

  // Lets the maps be searched by string_view without building a string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <typename V>
  using NameMap = std::unordered_map<std::string, V, NameHash, std::equal_to<>>;

  Failpoints() = default;

  // Publishes the number of armings; called with mu_ held after every
  // change to armed_ or latency_.
  void PublishArmingsLocked() {
    armings_.store(armed_.size() + latency_.size(), std::memory_order_release);
  }

  mutable std::mutex mu_;
  NameMap<Arming> armed_;
  NameMap<LatencyArming> latency_;
  // armed_.size() + latency_.size(): zero lets Hit return without locking.
  std::atomic<size_t> armings_{0};
  std::function<void(std::chrono::microseconds)> sleeper_;
};

// Installs a failpoint sleeper for the current scope, restoring the real
// sleep on exit (test helper for virtual-time chaos runs).
class ScopedFailpointSleeper {
 public:
  explicit ScopedFailpointSleeper(
      std::function<void(std::chrono::microseconds)> sleeper) {
    Failpoints::Instance().SetSleeper(std::move(sleeper));
  }
  ~ScopedFailpointSleeper() { Failpoints::Instance().SetSleeper(nullptr); }

  ScopedFailpointSleeper(const ScopedFailpointSleeper&) = delete;
  ScopedFailpointSleeper& operator=(const ScopedFailpointSleeper&) = delete;
};

// Arms a failpoint for the current scope (test helper).
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(std::string name, int count = 1, int skip = 0)
      : name_(std::move(name)) {
    Failpoints::Instance().Arm(name_, count, skip);
  }
  ~ScopedFailpoint() { Failpoints::Instance().Disarm(name_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

// Sets the thread-local fault-domain token for the current scope, restoring
// the previous token on exit.
class ScopedFailpointToken {
 public:
  explicit ScopedFailpointToken(uint64_t token)
      : previous_(Failpoints::thread_token()) {
    Failpoints::SetThreadToken(token);
  }
  ~ScopedFailpointToken() { Failpoints::SetThreadToken(previous_); }

  ScopedFailpointToken(const ScopedFailpointToken&) = delete;
  ScopedFailpointToken& operator=(const ScopedFailpointToken&) = delete;

 private:
  uint64_t previous_;
};

#define CADRL_FAILPOINT(name) (::cadrl::Failpoints::Instance().Hit(name))

}  // namespace cadrl

#endif  // CADRL_UTIL_FAILPOINT_H_
