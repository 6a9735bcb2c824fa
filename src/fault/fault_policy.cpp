#include "fault/fault_policy.h"

#include <algorithm>

namespace linbound {

void check_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string(what) +
                                " must lie in [0, 1], got " +
                                std::to_string(p));
  }
}

void check_non_negative(Tick t, const char* what) {
  if (t < 0) {
    throw std::invalid_argument(std::string(what) + " must be >= 0, got " +
                                std::to_string(t));
  }
}

void StallWindow::validate() const {
  if (pid < 0) {
    throw std::invalid_argument("StallWindow pid must name a process, got " +
                                std::to_string(pid));
  }
  check_non_negative(from, "StallWindow from");
  if (until < from) {
    throw std::invalid_argument(
        "StallWindow is inverted: until " + std::to_string(until) +
        " precedes from " + std::to_string(from));
  }
}

void PartitionWindow::validate() const {
  check_non_negative(from, "PartitionWindow from");
  if (until < from) {
    throw std::invalid_argument(
        "PartitionWindow is inverted: until " + std::to_string(until) +
        " precedes from " + std::to_string(from));
  }
  for (std::size_t i = 0; i < component_of.size(); ++i) {
    if (component_of[i] < 0) {
      throw std::invalid_argument(
          "PartitionWindow component of process " + std::to_string(i) +
          " must be >= 0, got " + std::to_string(component_of[i]));
    }
  }
}

void LinkFault::validate() const {
  if (from < 0 || to < 0) {
    throw std::invalid_argument(
        "LinkFault endpoints must name processes, got " +
        std::to_string(from) + " -> " + std::to_string(to));
  }
  check_probability(drop_p, "LinkFault drop probability");
  check_probability(delay_p, "LinkFault delay probability");
  check_non_negative(delay_max, "LinkFault delay bound");
  if (delay_p > 0 && delay_max == 0) {
    throw std::invalid_argument(
        "LinkFault delay probability is positive but delay bound is 0");
  }
}

LinkFaultPolicy::LinkFaultPolicy(std::vector<LinkFault> links,
                                 std::uint64_t seed)
    : links_(std::move(links)) {
  Rng seeder(seed);
  rngs_.reserve(links_.size());
  for (const LinkFault& link : links_) {
    link.validate();
    // Salt by the directed pair: editing one link's parameters never
    // reshuffles another link's stream.
    const std::uint64_t salt =
        (static_cast<std::uint64_t>(link.from) + 1) * 0x1f3ull +
        (static_cast<std::uint64_t>(link.to) + 1);
    rngs_.push_back(seeder.split(salt));
  }
}

FaultDecision LinkFaultPolicy::on_send(ProcessId from, ProcessId to, Tick,
                                       std::int64_t) {
  FaultDecision out;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const LinkFault& link = links_[i];
    if (link.from != from || link.to != to) continue;
    // One draw per configured matching link per send, unconditionally, so
    // the stream's position depends only on how many matching sends came
    // before (reproducible from the seed).
    if (link.drop_p > 0 && rngs_[i].chance(link.drop_p)) out.drop = true;
    if (link.delay_p > 0 && link.delay_max > 0 &&
        rngs_[i].chance(link.delay_p)) {
      out.delay_boost += rngs_[i].uniform_tick(1, link.delay_max);
    }
  }
  return out;
}

Tick FaultConfig::max_delay_boost() const {
  Tick boost = spike_max;
  for (const LinkFault& link : links) boost = std::max(boost, link.delay_max);
  return boost;
}

void FaultConfig::validate() const {
  check_probability(drop_p, "FaultConfig drop_p");
  check_probability(dup_p, "FaultConfig dup_p");
  check_probability(spike_p, "FaultConfig spike_p");
  check_non_negative(spike_max, "FaultConfig spike_max");
  if (dup_copies < 0) {
    throw std::invalid_argument("FaultConfig dup_copies must be >= 0, got " +
                                std::to_string(dup_copies));
  }
  for (const StallWindow& w : stalls) w.validate();
  for (const PartitionWindow& w : partitions) w.validate();
  for (const LinkFault& link : links) link.validate();
  check_non_negative(churn.mean_uptime, "ChurnConfig mean_uptime");
  check_non_negative(churn.mean_downtime, "ChurnConfig mean_downtime");
  check_non_negative(churn.start, "ChurnConfig start");
  check_non_negative(churn.horizon, "ChurnConfig horizon");
  if (churn.max_down < 1) {
    throw std::invalid_argument("ChurnConfig max_down must be >= 1, got " +
                                std::to_string(churn.max_down));
  }
}

FaultDecision ComposedFaultPolicy::on_send(ProcessId from, ProcessId to,
                                           Tick send_time,
                                           std::int64_t msg_seq) {
  FaultDecision out;
  for (const auto& child : children_) {
    const FaultDecision d = child->on_send(from, to, send_time, msg_seq);
    out.drop = out.drop || d.drop;
    out.extra_copies += d.extra_copies;
    out.delay_boost += d.delay_boost;
  }
  return out;
}

Tick ComposedFaultPolicy::stalled_until(ProcessId pid, Tick now) {
  Tick until = kNoTime;
  for (const auto& child : children_) {
    const Tick t = child->stalled_until(pid, now);
    if (t != kNoTime && (until == kNoTime || t > until)) until = t;
  }
  return until;
}

std::shared_ptr<FaultPolicy> make_fault_policy(const FaultConfig& config) {
  config.validate();
  Rng seeder(config.seed);
  std::vector<std::shared_ptr<FaultPolicy>> children;
  // Split unconditionally so each ingredient's stream depends only on the
  // seed, not on which other ingredients are enabled.
  const std::uint64_t drop_seed = seeder.split(1).next_u64();
  const std::uint64_t dup_seed = seeder.split(2).next_u64();
  const std::uint64_t spike_seed = seeder.split(3).next_u64();
  // Salt 4 is churn's (make_churn_schedule); links take the next stream.
  const std::uint64_t link_seed = seeder.split(5).next_u64();
  if (config.drop_p > 0) {
    children.push_back(
        std::make_shared<DropFaultPolicy>(config.drop_p, drop_seed));
  }
  if (config.dup_p > 0) {
    children.push_back(std::make_shared<DuplicateFaultPolicy>(
        config.dup_p, dup_seed, config.dup_copies));
  }
  if (config.spike_p > 0 && config.spike_max > 0) {
    children.push_back(std::make_shared<DelaySpikeFaultPolicy>(
        config.spike_p, config.spike_max, spike_seed));
  }
  if (!config.stalls.empty()) {
    children.push_back(std::make_shared<StallFaultPolicy>(config.stalls));
  }
  if (!config.partitions.empty()) {
    children.push_back(
        std::make_shared<PartitionFaultPolicy>(config.partitions));
  }
  if (!config.links.empty()) {
    children.push_back(
        std::make_shared<LinkFaultPolicy>(config.links, link_seed));
  }
  return std::make_shared<ComposedFaultPolicy>(std::move(children));
}

}  // namespace linbound
