#include "types/stack_type.h"

#include <sstream>

namespace linbound {
namespace {

class StackState final : public ObjectState {
 public:
  explicit StackState(std::vector<std::int64_t> items) : items_(std::move(items)) {}

  std::unique_ptr<ObjectState> clone() const override {
    return std::make_unique<StackState>(items_);
  }

  Value do_apply(const Operation& op) override {
    switch (op.code) {
      case StackModel::kPush:
        items_.push_back(op.args.at(0).as_int());
        return Value::unit();
      case StackModel::kPop: {
        if (items_.empty()) return Value::unit();
        const std::int64_t top = items_.back();
        items_.pop_back();
        return Value(top);
      }
      case StackModel::kPeek:
        if (items_.empty()) return Value::unit();
        return Value(items_.back());
      case StackModel::kSize:
        return Value(static_cast<std::int64_t>(items_.size()));
      default:
        return Value::unit();
    }
  }

  bool equals(const ObjectState& other) const override {
    const auto* o = dynamic_cast<const StackState*>(&other);
    return o != nullptr && o->items_ == items_;
  }

  std::uint64_t compute_fingerprint() const override {
    Value::List xs;
    xs.reserve(items_.size());
    for (std::int64_t x : items_) xs.emplace_back(x);
    // Salt so a stack and a queue holding the same items fingerprint apart.
    return Value(std::move(xs)).hash() ^ 0x57ac57ac57ac57acULL;
  }

  std::string to_string() const override {
    std::ostringstream os;
    os << "stack[";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) os << ",";
      os << items_[i];
    }
    os << "]";
    return os.str();
  }

 private:
  std::vector<std::int64_t> items_;  // bottom..top
};

}  // namespace

std::unique_ptr<ObjectState> StackModel::initial_state() const {
  return std::make_unique<StackState>(initial_);
}

OpClass StackModel::classify(const Operation& op) const {
  switch (op.code) {
    case kPush:
      return OpClass::kPureMutator;
    case kPeek:
    case kSize:
      return OpClass::kPureAccessor;
    default:
      return OpClass::kOther;  // pop
  }
}

std::string StackModel::op_name(OpCode code) const {
  switch (code) {
    case kPush:
      return "push";
    case kPop:
      return "pop";
    case kPeek:
      return "peek";
    case kSize:
      return "size";
    default:
      return "op" + std::to_string(code);
  }
}

namespace stack_ops {
Operation push(std::int64_t v) {
  // Built with push_back: see queue_ops::enqueue.
  Operation op{StackModel::kPush, {}};
  op.args.push_back(Value(v));
  return op;
}
Operation pop() { return Operation{StackModel::kPop, {}}; }
Operation peek() { return Operation{StackModel::kPeek, {}}; }
Operation size() { return Operation{StackModel::kSize, {}}; }
}  // namespace stack_ops

}  // namespace linbound
