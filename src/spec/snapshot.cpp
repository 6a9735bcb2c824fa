#include "spec/snapshot.h"

namespace linbound {

Snapshot ObjectState::snapshot() const { return Snapshot(clone()); }

}  // namespace linbound
