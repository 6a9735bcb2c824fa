#include "types/queue_type.h"

#include <deque>
#include <sstream>

namespace linbound {
namespace {

class QueueState final : public ObjectState {
 public:
  explicit QueueState(std::deque<std::int64_t> items) : items_(std::move(items)) {}

  std::unique_ptr<ObjectState> clone() const override {
    return std::make_unique<QueueState>(items_);
  }

  Value do_apply(const Operation& op) override {
    switch (op.code) {
      case QueueModel::kEnqueue:
        items_.push_back(op.args.at(0).as_int());
        return Value::unit();
      case QueueModel::kDequeue: {
        if (items_.empty()) return Value::unit();  // "empty" answer
        const std::int64_t head = items_.front();
        items_.pop_front();
        return Value(head);
      }
      case QueueModel::kPeek:
        if (items_.empty()) return Value::unit();
        return Value(items_.front());
      case QueueModel::kSize:
        return Value(static_cast<std::int64_t>(items_.size()));
      default:
        return Value::unit();
    }
  }

  bool equals(const ObjectState& other) const override {
    const auto* o = dynamic_cast<const QueueState*>(&other);
    return o != nullptr && o->items_ == items_;
  }

  std::uint64_t compute_fingerprint() const override {
    Value::List xs;
    xs.reserve(items_.size());
    for (std::int64_t x : items_) xs.emplace_back(x);
    return Value(std::move(xs)).hash();
  }

  std::string to_string() const override {
    std::ostringstream os;
    os << "queue[";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) os << ",";
      os << items_[i];
    }
    os << "]";
    return os.str();
  }

 private:
  std::deque<std::int64_t> items_;
};

}  // namespace

std::unique_ptr<ObjectState> QueueModel::initial_state() const {
  return std::make_unique<QueueState>(
      std::deque<std::int64_t>(initial_.begin(), initial_.end()));
}

OpClass QueueModel::classify(const Operation& op) const {
  switch (op.code) {
    case kEnqueue:
      return OpClass::kPureMutator;
    case kPeek:
    case kSize:
      return OpClass::kPureAccessor;
    default:
      return OpClass::kOther;  // dequeue
  }
}

std::string QueueModel::op_name(OpCode code) const {
  switch (code) {
    case kEnqueue:
      return "enqueue";
    case kDequeue:
      return "dequeue";
    case kPeek:
      return "peek";
    case kSize:
      return "size";
    default:
      return "op" + std::to_string(code);
  }
}

namespace queue_ops {
Operation enqueue(std::int64_t v) {
  // Built with push_back: g++ 12 under -fsanitize=address reports a false
  // maybe-uninitialized on the braced-init argument list.
  Operation op{QueueModel::kEnqueue, {}};
  op.args.push_back(Value(v));
  return op;
}
Operation dequeue() { return Operation{QueueModel::kDequeue, {}}; }
Operation peek() { return Operation{QueueModel::kPeek, {}}; }
Operation size() { return Operation{QueueModel::kSize, {}}; }
}  // namespace queue_ops

}  // namespace linbound
