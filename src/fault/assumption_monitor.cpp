#include "fault/assumption_monitor.h"

#include <cstdlib>
#include <map>
#include <sstream>

namespace linbound {
namespace {

AssumptionViolation make(Assumption a, std::string detail, Tick time,
                         ProcessId proc, MessageId msg) {
  AssumptionViolation v;
  v.assumption = a;
  v.detail = std::move(detail);
  v.time = time;
  v.proc = proc;
  v.msg = msg;
  return v;
}

/// A violation's detail text, appended piece by piece: cheaper than a
/// std::ostringstream per fault event (most produce no violation at all)
/// and the same characters.
class Detail {
 public:
  Detail& operator<<(const char* s) {
    text_ += s;
    return *this;
  }
  Detail& operator<<(std::int64_t x) {
    text_ += std::to_string(x);
    return *this;
  }
  /// Moves the text out: each detail is read once.
  std::string str() { return std::move(text_); }

 private:
  std::string text_;
};

}  // namespace

const char* assumption_name(Assumption a) {
  switch (a) {
    case Assumption::kDelayBounds:
      return "delay-bounds";
    case Assumption::kReliableDelivery:
      return "reliable-delivery";
    case Assumption::kNoDuplication:
      return "no-duplication";
    case Assumption::kClockSkew:
      return "clock-skew";
    case Assumption::kFailureFree:
      return "failure-free";
    case Assumption::kNoStalls:
      return "no-stalls";
    case Assumption::kRecovering:
      return "recovering";
    case Assumption::kAssumptionCount:
      break;
  }
  return "?";
}

bool AssumptionReport::violated(Assumption a) const { return count(a) > 0; }

int AssumptionReport::count(Assumption a) const {
  int n = 0;
  for (const AssumptionViolation& v : violations) {
    if (v.assumption == a) ++n;
  }
  return n;
}

std::string AssumptionReport::summary() const {
  if (clean()) return "all model assumptions held";
  std::map<Assumption, int> counts;
  for (const AssumptionViolation& v : violations) ++counts[v.assumption];
  std::ostringstream os;
  bool first = true;
  for (const auto& [assumption, n] : counts) {
    if (!first) os << "; ";
    first = false;
    os << assumption_name(assumption) << " violated " << n << "x";
  }
  return os.str();
}

std::string AssumptionReport::attribute(bool linearizable) const {
  std::ostringstream os;
  if (linearizable) {
    if (clean()) {
      os << "linearizable, all model assumptions held";
    } else {
      os << "linearizable despite violated assumptions (" << summary()
         << ") -- the implementation masked them";
    }
    return os.str();
  }
  if (clean()) {
    os << "NOT linearizable although every model assumption held -- the "
          "implementation (or its deliberately eager delays) is at fault";
    return os.str();
  }
  os << "NOT linearizable, attributed to: " << summary();
  if (!violations.empty()) {
    os << " (first: " << violations.front().detail << ")";
  }
  return os.str();
}

AssumptionReport audit_assumptions(const Trace& trace) {
  AssumptionReport report;
  const SystemTiming& timing = trace.timing;

  // Recovery makes a crash "churn" rather than a permanent failure: a crash
  // of process p at tick t that p later recovers from is attributed to
  // kRecovering, a crash it never comes back from to kFailureFree.
  const auto recovers_after = [&trace](ProcessId pid, Tick t) {
    for (const FaultEvent& f : trace.faults) {
      if (f.kind == FaultKind::kProcessRecovered && f.proc == pid &&
          f.time >= t) {
        return true;
      }
    }
    return false;
  };

  // Injected faults and failures, straight from the recorder.
  for (const FaultEvent& f : trace.faults) {
    Detail os;
    switch (f.kind) {
      case FaultKind::kMessageDropped:
        os << "message " << f.msg << " from " << f.proc << " to " << f.peer
           << " sent at tick " << f.time << " dropped";
        report.violations.push_back(make(Assumption::kReliableDelivery,
                                         os.str(), f.time, f.proc, f.msg));
        break;
      case FaultKind::kMessageDuplicated:
        os << "message " << f.magnitude << " from " << f.proc << " to "
           << f.peer << " duplicated at tick " << f.time << " (copy id "
           << f.msg << ")";
        report.violations.push_back(make(Assumption::kNoDuplication, os.str(),
                                         f.time, f.proc, f.msg));
        break;
      case FaultKind::kDelaySpike:
        // The spike's effect on the observed delay is classified below from
        // the message record itself; only spikes that pushed the delivery
        // outside the bounds count as violations there.
        break;
      case FaultKind::kProcessStalled:
        os << "process " << f.proc << " stalled at tick " << f.time << " for "
           << f.magnitude << " ticks";
        report.violations.push_back(
            make(Assumption::kNoStalls, os.str(), f.time, f.proc, f.msg));
        break;
      case FaultKind::kProcessCrashed:
        os << "process " << f.proc << " crashed at tick " << f.time;
        if (recovers_after(f.proc, f.time)) {
          os << " (later recovered)";
          report.violations.push_back(
              make(Assumption::kRecovering, os.str(), f.time, f.proc, -1));
        } else {
          report.violations.push_back(
              make(Assumption::kFailureFree, os.str(), f.time, f.proc, -1));
        }
        break;
      case FaultKind::kProcessRecovered:
        os << "process " << f.proc << " recovered at tick " << f.time
           << " (incarnation " << f.magnitude << ")";
        report.violations.push_back(
            make(Assumption::kRecovering, os.str(), f.time, f.proc, -1));
        break;
      case FaultKind::kOperationGivenUp:
        // Degradation behavior, not an assumption: the cause (crash, loss)
        // is reported by its own event.
        break;
      case FaultKind::kModeDowngrade:
      case FaultKind::kModeUpgrade:
        // The synchrony supervisor's reaction to a violation, not a
        // violation itself; the triggering drops/spikes are attributed by
        // their own events above.
        break;
      case FaultKind::kFaultKindCount:
        break;
    }
  }

  // Delivered delays against [d-u, d]; spikes that stayed in bounds are not
  // violations, late deliveries are -- whatever caused them.
  for (const MessageRecord& m : trace.messages) {
    if (!m.delivered()) continue;
    if (timing.delay_admissible(m.delay())) continue;
    Detail os;
    os << "message " << m.id << " from " << m.from << " to " << m.to
       << " sent at tick " << m.send_time << ": delay " << m.delay()
       << " outside [" << timing.min_delay() << ", " << timing.max_delay()
       << "]";
    report.violations.push_back(
        make(Assumption::kDelayBounds, os.str(), m.send_time, m.from, m.id));
  }

  // Undelivered messages the recorder did not already explain: receipt
  // suppressed by a crash counts against failure-freedom; anything else
  // past the horizon is unexplained loss.
  for (const MessageRecord& m : trace.messages) {
    if (m.delivered()) continue;
    if (trace.end_time < m.send_time + timing.d) continue;  // run ended first
    bool explained = false;
    bool recipient_crashed = false;
    for (const FaultEvent& f : trace.faults) {
      if (f.kind == FaultKind::kMessageDropped && f.msg == m.id) {
        explained = true;
      }
      if (f.kind == FaultKind::kProcessCrashed && f.proc == m.to &&
          f.time <= m.send_time + timing.d) {
        recipient_crashed = true;
      }
    }
    if (explained) continue;
    Detail os;
    os << "message " << m.id << " from " << m.from << " to " << m.to
       << " sent at tick " << m.send_time << " never delivered";
    if (recipient_crashed) {
      // A recipient that was down on arrival but came back is churn, not a
      // permanent failure.
      const bool came_back = recovers_after(m.to, m.send_time);
      os << (came_back ? " (recipient was down, later recovered)"
                       : " (recipient crashed)");
      report.violations.push_back(
          make(came_back ? Assumption::kRecovering : Assumption::kFailureFree,
               os.str(), m.send_time, m.to, m.id));
    } else {
      report.violations.push_back(make(Assumption::kReliableDelivery, os.str(),
                                       m.send_time, m.from, m.id));
    }
  }

  // Static clock skew against eps.
  for (std::size_t i = 0; i < trace.clock_offsets.size(); ++i) {
    for (std::size_t j = i + 1; j < trace.clock_offsets.size(); ++j) {
      const Tick skew =
          std::llabs(trace.clock_offsets[i] - trace.clock_offsets[j]);
      if (skew <= timing.eps) continue;
      Detail os;
      os << "clock skew |c_" << i << " - c_" << j << "| = " << skew
         << " exceeds eps = " << timing.eps;
      report.violations.push_back(make(Assumption::kClockSkew, os.str(),
                                       kNoTime,
                                       static_cast<ProcessId>(i), -1));
    }
  }

  return report;
}

}  // namespace linbound
