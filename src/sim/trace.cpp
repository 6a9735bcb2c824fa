#include "sim/trace.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace linbound {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMessageDropped:
      return "message-dropped";
    case FaultKind::kMessageDuplicated:
      return "message-duplicated";
    case FaultKind::kDelaySpike:
      return "delay-spike";
    case FaultKind::kProcessStalled:
      return "process-stalled";
    case FaultKind::kProcessCrashed:
      return "process-crashed";
    case FaultKind::kOperationGivenUp:
      return "operation-given-up";
    case FaultKind::kProcessRecovered:
      return "process-recovered";
    case FaultKind::kModeDowngrade:
      return "mode-downgrade";
    case FaultKind::kModeUpgrade:
      return "mode-upgrade";
    case FaultKind::kFaultKindCount:
      break;
  }
  return "?";
}

FaultKind fault_kind_from_name(const std::string& name) {
  for (int k = 0; k < static_cast<int>(FaultKind::kFaultKindCount); ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == fault_kind_name(kind)) return kind;
  }
  return FaultKind::kFaultKindCount;
}

std::int64_t OpLog::put(const Value& v, Kind& kind) {
  if (v.is_unit()) {
    kind = Kind::kUnit;
    return 0;
  }
  if (v.is_int()) {
    kind = Kind::kInt;
    return v.as_int();
  }
  if (v.is_bool()) {
    kind = Kind::kBool;
    return v.as_bool() ? 1 : 0;
  }
  kind = Kind::kSide;
  side_.push_back(v);
  return static_cast<std::int64_t>(side_.size() - 1);
}

Value OpLog::ValueRef::value() const {
  switch (kind) {
    case Kind::kUnit:
      return Value();
    case Kind::kInt:
      return Value(bits);
    case Kind::kBool:
      return Value(bits != 0);
    case Kind::kSide:
      break;
  }
  return *side;
}

bool operator==(const OpLog::ValueRef& a, const OpLog::ValueRef& b) {
  if (a.side == nullptr && b.side == nullptr) {
    return a.kind == b.kind && a.bits == b.bits;
  }
  return a.value() == b.value();
}

void OpLog::append(const OperationRecord& rec) {
  const std::size_t i = slots_.size();
  Slot& slot = slots_.emplace_back();
  slot.invoke_time = rec.invoke_time;
  slot.response_time = rec.response_time;
  slot.ret = put(rec.ret, slot.ret_kind);
  const Value::List& args = rec.op.args;
  if (args.size() <= 2) {
    slot.argc = static_cast<std::uint8_t>(args.size());
    for (std::size_t a = 0; a < args.size(); ++a) {
      slot.args[a] = put(args[a], slot.arg_kind[a]);
    }
  } else {
    slot.argc = kSpilledArgs;
    slot.args[0] = put(Value(args), slot.arg_kind[0]);
  }
  slot.proc = static_cast<std::int16_t>(rec.proc);
  slot.code = static_cast<std::int16_t>(rec.op.code);
  slot.gave_up = rec.gave_up ? 1 : 0;
  if (rec.token != static_cast<std::int64_t>(i) || slot.proc != rec.proc ||
      slot.code != rec.op.code || rec.give_up_time != kNoTime) {
    slot.cold = 1;
    cold_.insert_or_assign(
        i, Cold{rec.token, rec.proc, rec.op.code, rec.give_up_time});
  }
}

void OpLog::respond(std::size_t i, Tick t, const Value& ret) {
  Slot& slot = slots_[i];
  slot.response_time = t;
  slot.ret = put(ret, slot.ret_kind);
}

void OpLog::give_up(std::size_t i, Tick t) {
  Slot& slot = slots_[i];
  slot.gave_up = 1;
  if (!slot.cold) {
    slot.cold = 1;
    cold_.insert_or_assign(
        i, Cold{static_cast<std::int64_t>(i), slot.proc, slot.code, t});
  } else {
    cold_.find(i)->give_up_time = t;
  }
}

std::int64_t OpLog::token(std::size_t i) const {
  return slots_[i].cold ? cold_.find(i)->token : static_cast<std::int64_t>(i);
}

ProcessId OpLog::proc(std::size_t i) const {
  return slots_[i].cold ? cold_.find(i)->proc : slots_[i].proc;
}

OpCode OpLog::code(std::size_t i) const {
  return slots_[i].cold ? cold_.find(i)->code : slots_[i].code;
}

std::size_t OpLog::arg_count(std::size_t i) const {
  return slots_[i].argc == kSpilledArgs ? spilled_args(i).size()
                                        : slots_[i].argc;
}

OpLog::ValueRef OpLog::arg(std::size_t i, std::size_t a) const {
  const Slot& slot = slots_[i];
  if (slot.argc == kSpilledArgs) {
    return {Kind::kSide, 0, &spilled_args(i)[a]};
  }
  return ref(slot.arg_kind[a], slot.args[a]);
}

const OperationRecord OpLog::operator[](std::size_t i) const {
  const Slot& slot = slots_[i];
  OperationRecord rec;
  rec.invoke_time = slot.invoke_time;
  rec.response_time = slot.response_time;
  rec.ret = ret(i).value();
  if (slot.argc == kSpilledArgs) {
    rec.op.args = spilled_args(i);
  } else {
    for (std::size_t a = 0; a < slot.argc; ++a) {
      rec.op.args.push_back(arg(i, a).value());
    }
  }
  rec.gave_up = slot.gave_up != 0;
  if (slot.cold) {
    const Cold& c = *cold_.find(i);
    rec.token = c.token;
    rec.proc = c.proc;
    rec.op.code = c.code;
    rec.give_up_time = c.give_up_time;
  } else {
    rec.token = static_cast<std::int64_t>(i);
    rec.proc = slot.proc;
    rec.op.code = slot.code;
  }
  return rec;
}

FaultsByMessage::FaultsByMessage(const std::vector<FaultEvent>& faults)
    : faults_(faults) {
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].msg >= 0) index_.emplace_back(faults[i].msg, i);
  }
  std::sort(index_.begin(), index_.end());
}

AdmissibilityReport Trace::audit() const {
  AdmissibilityReport report;
  const FaultsByMessage by_message(faults);

  for (const MessageRecord& m : messages) {
    if (m.delivered()) {
      if (!timing.delay_admissible(m.delay())) {
        std::ostringstream os;
        os << "message " << m.id << " from " << m.from << " to " << m.to
           << " sent at tick " << m.send_time << ": observed delay "
           << m.delay() << " outside [" << timing.min_delay() << ", "
           << timing.max_delay() << "]";
        by_message.for_each(m.id, [&os](const FaultEvent& f) {
          if (f.kind == FaultKind::kDelaySpike) {
            os << " (injected spike +" << f.magnitude << ")";
          }
        });
        report.fail(os.str());
      }
    } else if (end_time >= m.send_time + timing.d) {
      std::ostringstream os;
      os << "message " << m.id << " from " << m.from << " to " << m.to
         << " sent at tick " << m.send_time
         << ": undelivered although the run lasted past "
         << m.send_time + timing.d;
      by_message.for_each(m.id, [&os](const FaultEvent& f) {
        if (f.kind == FaultKind::kMessageDropped) {
          os << " (dropped by fault injection)";
        }
      });
      report.fail(os.str());
    }
  }

  for (std::size_t i = 0; i < clock_offsets.size(); ++i) {
    for (std::size_t j = i + 1; j < clock_offsets.size(); ++j) {
      const Tick skew = std::llabs(clock_offsets[i] - clock_offsets[j]);
      if (skew > timing.eps) {
        std::ostringstream os;
        os << "clock skew |c_" << i << " - c_" << j << "| = " << skew
           << " exceeds eps = " << timing.eps;
        report.fail(os.str());
      }
    }
  }

  return report;
}

bool Trace::complete() const {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops.completed(i)) return false;
  }
  return true;
}

}  // namespace linbound
