#include "util/failpoint.h"

#include <thread>

namespace cadrl {
namespace {

thread_local uint64_t g_thread_token = 0;

// splitmix64 finalizer; the same mixer Rng seeding uses.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Deterministic per-hit decision: a pure function of (seed, token, n), so a
// request (token) replays the same fire/no-fire sequence on every run no
// matter how its hits interleave with other threads'.
bool FireDecision(uint64_t seed, uint64_t token, uint64_t n, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const uint64_t h = Mix64(Mix64(seed ^ (token * 0x9e3779b97f4a7c15ULL)) ^ n);
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < p;
}

}  // namespace

Failpoints& Failpoints::Instance() {
  static Failpoints* instance = new Failpoints();
  return *instance;
}

void Failpoints::SetThreadToken(uint64_t token) { g_thread_token = token; }

uint64_t Failpoints::thread_token() { return g_thread_token; }

void Failpoints::Arm(const std::string& name, int count, int skip) {
  std::lock_guard<std::mutex> lock(mu_);
  Arming a;
  a.skip = skip;
  a.remaining = count;
  armed_[name] = std::move(a);
  PublishArmingsLocked();
}

void Failpoints::ArmWithProbability(const std::string& name, double p,
                                    uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  Arming a;
  a.probability = p;
  a.seed = seed;
  armed_[name] = std::move(a);
  PublishArmingsLocked();
}

void Failpoints::ArmLatency(const std::string& name,
                            std::chrono::microseconds delay, double p,
                            uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  LatencyArming a;
  a.delay = delay;
  a.probability = p;
  a.seed = seed;
  latency_[name] = std::move(a);
  PublishArmingsLocked();
}

void Failpoints::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.erase(name);
  latency_.erase(name);
  PublishArmingsLocked();
}

void Failpoints::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  latency_.clear();
  PublishArmingsLocked();
}

void Failpoints::SetSleeper(
    std::function<void(std::chrono::microseconds)> sleeper) {
  std::lock_guard<std::mutex> lock(mu_);
  sleeper_ = std::move(sleeper);
}

bool Failpoints::Hit(std::string_view name) {
  // Unarmed fast path: no lock, no lookup. An arming racing with this load
  // is ordered as if it happened just after the hit.
  if (armings_.load(std::memory_order_acquire) == 0) return false;
  const uint64_t token = g_thread_token;
  std::chrono::microseconds delay{0};
  std::function<void(std::chrono::microseconds)> sleeper;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = latency_.find(name);
    if (it != latency_.end()) {
      LatencyArming& a = it->second;
      const uint64_t n = a.hits_by_token[token]++;
      if (FireDecision(a.seed, token, n, a.probability)) {
        delay = a.delay;
        sleeper = sleeper_;
        ++a.fired;
      }
    }
  }
  // The sleep (real or injected) runs outside the registry lock so
  // concurrent hits are never serialized by an injected delay.
  if (delay.count() > 0) {
    if (sleeper) {
      sleeper(delay);
    } else {
      std::this_thread::sleep_for(delay);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = armed_.find(name);
  if (it == armed_.end()) return false;
  Arming& a = it->second;
  if (a.probability >= 0.0) {
    const uint64_t n = a.hits_by_token[token]++;
    if (!FireDecision(a.seed, token, n, a.probability)) return false;
    ++a.fired;
    return true;
  }
  if (a.skip > 0) {
    --a.skip;
    return false;
  }
  if (a.remaining == 0) return false;
  if (a.remaining > 0) --a.remaining;
  ++a.fired;
  return true;
}

int Failpoints::fire_count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = armed_.find(name);
  if (it != armed_.end()) return it->second.fired;
  auto lit = latency_.find(name);
  return lit == latency_.end() ? 0 : lit->second.fired;
}

}  // namespace cadrl
