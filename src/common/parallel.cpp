#include "common/parallel.h"

namespace linbound {

int resolve_jobs(int requested) {
  if (requested < 0) return 1;
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw ? static_cast<int>(hw) : 1;
  }
  return requested > kMaxJobs ? kMaxJobs : requested;
}

}  // namespace linbound
