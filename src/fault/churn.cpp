#include "fault/churn.h"

#include <algorithm>

#include "fault/fault_policy.h"
#include "sim/simulator.h"

namespace linbound {
namespace {

/// Uniform draw in [mean/2, 3*mean/2], never below 1.
Tick draw_duration(Rng& rng, Tick mean) {
  const Tick lo = std::max<Tick>(1, mean / 2);
  const Tick hi = std::max<Tick>(lo, mean + mean / 2);
  return rng.uniform_tick(lo, hi);
}

}  // namespace

ChurnSchedule::ChurnSchedule(std::vector<ChurnWindow> windows)
    : windows_(std::move(windows)) {
  std::sort(windows_.begin(), windows_.end(),
            [](const ChurnWindow& a, const ChurnWindow& b) {
              return a.crash_time != b.crash_time ? a.crash_time < b.crash_time
                                                  : a.pid < b.pid;
            });
}

ChurnSchedule ChurnSchedule::generate(const ChurnConfig& config, int n,
                                      std::uint64_t seed) {
  if (!config.any() || n <= 0) return ChurnSchedule{};
  const SplitRng base(seed);
  std::vector<ChurnWindow> candidates;
  for (ProcessId pid = 0; pid < n; ++pid) {
    // A stream per process: adding or removing a process leaves the others'
    // windows untouched.  Stream-id offset keeps these disjoint from any
    // future whole-schedule streams of the same family.
    Rng rng = base.stream(static_cast<std::uint64_t>(pid) + 10);
    Tick t = config.start + draw_duration(rng, config.mean_uptime);
    while (t < config.horizon) {
      const Tick down = draw_duration(rng, config.mean_downtime);
      candidates.push_back({pid, t, t + down});
      t += down + draw_duration(rng, config.mean_uptime);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ChurnWindow& a, const ChurnWindow& b) {
              return a.crash_time != b.crash_time ? a.crash_time < b.crash_time
                                                  : a.pid < b.pid;
            });
  // Greedy admission in crash-time order: a window that would push the
  // number of simultaneously-down processes above max_down is dropped (the
  // process simply stays up through it).  Deterministic, and with
  // max_down=1 it guarantees every rejoiner finds live peers.
  const int cap = std::max(1, config.max_down);
  std::vector<ChurnWindow> accepted;
  for (const ChurnWindow& w : candidates) {
    int overlapping = 0;
    for (const ChurnWindow& a : accepted) {
      if (a.recover_time > w.crash_time && a.crash_time < w.recover_time) {
        ++overlapping;
      }
    }
    if (overlapping < cap) accepted.push_back(w);
  }
  return ChurnSchedule{std::move(accepted)};
}

std::vector<ProcessId> ChurnSchedule::churners() const {
  std::vector<ProcessId> out;
  for (const ChurnWindow& w : windows_) {
    if (std::find(out.begin(), out.end(), w.pid) == out.end()) {
      out.push_back(w.pid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ChurnSchedule::apply(Simulator& sim) const {
  for (const ChurnWindow& w : windows_) {
    sim.crash_at(w.crash_time, w.pid);
    if (w.recover_time != kNoTime) sim.recover_at(w.recover_time, w.pid);
  }
}

ChurnSchedule make_churn_schedule(const FaultConfig& config, int n) {
  config.validate();
  // Salt 4: splits 1-3 feed drop/dup/spike and 5 feeds per-link faults in
  // make_fault_policy; churn gets its own stream so enabling it never
  // reshuffles message faults.
  const std::uint64_t churn_seed = Rng(config.seed).split(4).next_u64();
  return ChurnSchedule::generate(config.churn, n, churn_seed);
}

}  // namespace linbound
