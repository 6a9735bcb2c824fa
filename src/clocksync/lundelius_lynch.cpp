#include "clocksync/lundelius_lynch.h"

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <typeinfo>

namespace linbound {

void LundeliusLynchProcess::on_start() {
  broadcast(make_msg<ClockReadingPayload>(local_time()));
}

void LundeliusLynchProcess::on_message(ProcessId /*from*/,
                                       const MessagePayload& payload) {
  const auto* msg = payload_as<ClockReadingPayload>(payload);
  if (msg == nullptr) throw std::bad_cast();
  // est = (T_j + d - u/2) - local_time(), doubled to stay in integers:
  // 2*est = 2*T_j + 2*d - u - 2*local_time().
  doubled_estimate_sum_ +=
      2 * msg->sender_clock + 2 * timing().d - timing().u - 2 * local_time();
  ++heard_from_;
}

void LundeliusLynchProcess::on_invoke(std::int64_t /*token*/,
                                      const Operation& /*op*/) {
  throw std::logic_error("clock-sync processes take no object operations");
}

std::vector<Tick> run_lundelius_lynch(const SystemTiming& timing,
                                      std::vector<Tick> clock_offsets,
                                      std::shared_ptr<DelayPolicy> delays) {
  const int n = static_cast<int>(clock_offsets.size());
  SimConfig config;
  config.timing = timing;
  config.clock_offsets = std::move(clock_offsets);
  config.delays = std::move(delays);
  Simulator sim(std::move(config));

  std::vector<LundeliusLynchProcess*> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto proc = std::make_unique<LundeliusLynchProcess>();
    procs.push_back(proc.get());
    sim.add_process(std::move(proc));
  }
  sim.start();
  if (!sim.run()) throw std::runtime_error("clock sync run exceeded event cap");

  std::vector<Tick> scaled;
  scaled.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (!procs[static_cast<std::size_t>(i)]->done()) {
      throw std::runtime_error("clock sync did not hear from every process");
    }
    const Tick c = sim.config().clock_offsets[static_cast<std::size_t>(i)];
    scaled.push_back(2 * static_cast<Tick>(n) * c +
                     procs[static_cast<std::size_t>(i)]->doubled_estimate_sum());
  }
  return scaled;
}

Tick worst_skew_scaled(const std::vector<Tick>& scaled_adjusted) {
  Tick worst = 0;
  for (std::size_t i = 0; i < scaled_adjusted.size(); ++i) {
    for (std::size_t j = i + 1; j < scaled_adjusted.size(); ++j) {
      const Tick skew = std::llabs(scaled_adjusted[i] - scaled_adjusted[j]);
      if (skew > worst) worst = skew;
    }
  }
  return worst;
}

}  // namespace linbound
