#include "spec/object_model.h"

#include <cassert>

namespace linbound {

Value ObjectState::apply_accessor(const Operation& op) {
#ifndef NDEBUG
  const std::uint64_t before = compute_fingerprint();
#endif
  Value out = do_apply(op);
  assert(compute_fingerprint() == before &&
         "apply_accessor used on a mutating operation");
  return out;
}

std::string ObjectModel::describe(const Operation& op) const {
  std::string out = op_name(op.code) + "(";
  for (std::size_t i = 0; i < op.args.size(); ++i) {
    if (i) out += ", ";
    out += op.args[i].to_string();
  }
  out += ")";
  return out;
}

std::string ObjectModel::describe(const OpInstance& inst) const {
  return describe(inst.op) + " -> " + inst.ret.to_string();
}

}  // namespace linbound
