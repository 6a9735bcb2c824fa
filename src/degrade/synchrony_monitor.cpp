#include "degrade/synchrony_monitor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace linbound {

SynchronyMonitor::SynchronyMonitor(Simulator& sim, MonitorOptions options)
    : sim_(sim), options_(options), timing_(sim.config().timing) {
  if (!options_.valid()) throw std::invalid_argument("invalid MonitorOptions");
}

void SynchronyMonitor::add_target(ProcessId pid, ModeSwitchTarget* target) {
  if (armed_) throw std::logic_error("add_target after arm()");
  targets_.emplace_back(pid, target);
}

void SynchronyMonitor::arm() {
  if (armed_) throw std::logic_error("SynchronyMonitor armed twice");
  armed_ = true;
  std::sort(targets_.begin(), targets_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Clock offsets are static: pairwise skew can be audited once, up front.
  // A skew violation cannot heal, so it pins the system in degraded mode.
  const std::vector<Tick>& offs = sim_.config().clock_offsets;
  const auto offset = [&](int i) {
    return static_cast<std::size_t>(i) < offs.size()
               ? offs[static_cast<std::size_t>(i)]
               : Tick{0};
  };
  const int n = sim_.process_count();
  for (int i = 0; i < n && !permanent_; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Tick skew = std::abs(offset(i) - offset(j));
      if (skew > timing_.eps) {
        permanent_ = true;
        break;
      }
    }
  }
  sim_.call_at(sim_.now() + timing_.d, [this] { poll(); });
}

void SynchronyMonitor::observe_delivery(const MessageRecord& rec) {
  const Tick delay = rec.delay();
  link_delays_[{rec.from, rec.to}].push_back(delay);
  if (!timing_.delay_admissible(delay)) note_violation(rec.recv_time);
}

void SynchronyMonitor::note_violation(Tick when) {
  ++violations_;
  last_violation_time_ = std::max(last_violation_time_, when);
}

void SynchronyMonitor::scan_trace() {
  const std::vector<MessageRecord>& msgs = sim_.trace().messages;
  const Tick now = sim_.now();
  const Tick overdue = 2 * timing_.d;  // d, plus a grace of d
  // Re-examine earlier undelivered messages first: each either got
  // delivered since, is now overdue (one violation, then forgotten -- a
  // lost message must not count once per poll forever), or stays watched.
  std::size_t kept = 0;
  for (std::size_t w = 0; w < watch_.size(); ++w) {
    const MessageRecord& rec = msgs[watch_[w]];
    if (rec.delivered()) {
      observe_delivery(rec);
    } else if (now - rec.send_time > overdue) {
      note_violation(now);
    } else {
      watch_[kept++] = watch_[w];
    }
  }
  watch_.resize(kept);
  for (; scanned_ < msgs.size(); ++scanned_) {
    const MessageRecord& rec = msgs[scanned_];
    if (rec.delivered()) {
      observe_delivery(rec);
    } else if (now - rec.send_time > overdue) {
      note_violation(now);
    } else {
      watch_.push_back(scanned_);
    }
  }
}

void SynchronyMonitor::poll() {
  scan_trace();
  const Tick now = sim_.now();
  const bool dwelled = last_switch_time_ == kNoTime ||
                       now - last_switch_time_ >= kMinDwellD * timing_.d;
  const bool degraded = (target_era_ % 2) != 0;
  if (!degraded) {
    const bool evidence = permanent_ ||
                          violations_ - violations_mark_ >=
                              options_.downgrade_after;
    if (evidence && dwelled) {
      ++downgrades_;
      signal(target_era_ + 1, FaultKind::kModeDowngrade);
      // Start the clean-window clock at the switch: only silence *after*
      // the downgrade argues for going back.
      last_violation_time_ = std::max(last_violation_time_, now);
    }
  } else if (!permanent_ && dwelled && last_violation_time_ != kNoTime &&
             now - last_violation_time_ >= kCleanWindowD * timing_.d) {
    ++upgrades_;
    signal(target_era_ + 1, FaultKind::kModeUpgrade);
    violations_mark_ = violations_;  // degraded-era violations are forgiven
  }
  // Quiescence-preserving reschedule: once every other event source has
  // drained, stop polling so Simulator::run can end.  (The current poll's
  // event has already been popped.)
  if (!sim_.event_queue().empty()) {
    sim_.call_at(now + timing_.d, [this] { poll(); });
  }
}

void SynchronyMonitor::signal(int era, FaultKind kind) {
  FaultEvent ev;
  ev.kind = kind;
  ev.time = sim_.now();
  ev.magnitude = era;
  sim_.record_fault(ev);
  target_era_ = era;
  last_switch_time_ = sim_.now();
  for (const auto& [pid, target] : targets_) {
    if (sim_.crashed(pid)) continue;  // reads target_era() on recovery
    target->on_mode_signal(era);
  }
}

std::size_t SynchronyMonitor::link_sample_count(ProcessId from,
                                                ProcessId to) const {
  auto it = link_delays_.find({from, to});
  return it == link_delays_.end() ? 0 : it->second.size();
}

Tick SynchronyMonitor::link_delay_percentile(ProcessId from, ProcessId to,
                                             double pct) const {
  auto it = link_delays_.find({from, to});
  if (it == link_delays_.end() || it->second.empty()) return kNoTime;
  if (pct <= 0.0 || pct > 100.0) {
    throw std::invalid_argument("percentile must be in (0, 100]");
  }
  std::vector<Tick> sorted = it->second;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // Nearest-rank: the ceil(pct/100 * n)-th smallest sample.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

}  // namespace linbound
