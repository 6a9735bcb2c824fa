#include "degrade/degrade_system.h"

#include <stdexcept>

namespace linbound {

DegradeSystem::DegradeSystem(std::shared_ptr<const ObjectModel> model,
                             const DegradeOptions& options)
    : ObjectSystem(std::move(model), options.base) {
  if (options.base.algorithm_delays || options.base.recoverable ||
      options.base.give_up_after != 0) {
    throw std::invalid_argument(
        "DegradeOptions: algorithm_delays / recoverable / give_up_after do "
        "not apply to degradation systems");
  }
  if (!options.switching) {
    for (int i = 0; i < options.base.n; ++i) {
      sim_->add_process(std::make_unique<QuorumReplicaProcess>(model_));
    }
    return;
  }
  const HardenedParams link =
      options.base.hardened ? *options.base.hardened : HardenedParams{};
  delays_ = AlgorithmDelays::standard(link.effective_timing(options.base.timing),
                                      options.base.x);
  monitor_ = std::make_unique<SynchronyMonitor>(*sim_, MonitorOptions{});
  for (int i = 0; i < options.base.n; ++i) {
    auto replica =
        std::make_unique<ModeSwitchingReplica>(model_, delays_, link);
    replica->set_monitor(monitor_.get());
    monitor_->add_target(static_cast<ProcessId>(i), replica.get());
    sim_->add_process(std::move(replica));
  }
  monitor_->arm();
}

}  // namespace linbound
