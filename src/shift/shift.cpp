#include "shift/shift.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace linbound {

std::vector<Tick> shifted_offsets(const std::vector<Tick>& offsets,
                                  const std::vector<Tick>& x) {
  if (offsets.size() != x.size()) {
    throw std::invalid_argument("shifted_offsets: size mismatch");
  }
  std::vector<Tick> out(offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) out[i] = offsets[i] - x[i];
  return out;
}

Tick shifted_time(Tick t, ProcessId pid, const std::vector<Tick>& x) {
  return t + x.at(static_cast<std::size_t>(pid));
}

ChopSpec compute_chop(const MatrixDelayPolicy& matrix, ProcessId from,
                      ProcessId to, Tick first_send, Tick delta) {
  ChopSpec spec;
  const Tick invalid_delay = matrix.get(from, to);
  spec.t_star = first_send + std::min(invalid_delay, delta);
  const int n = matrix.size();
  spec.view_end.resize(static_cast<std::size_t>(n));
  for (ProcessId k = 0; k < n; ++k) {
    spec.view_end[static_cast<std::size_t>(k)] =
        (k == to) ? spec.t_star : spec.t_star + matrix.shortest_path(to, k);
  }
  return spec;
}

Trace chop_trace(const Trace& trace, const std::vector<Tick>& view_end) {
  Trace out;
  out.timing = trace.timing;
  out.clock_offsets = trace.clock_offsets;
  out.end_time = 0;
  for (Tick end : view_end) out.end_time = std::max(out.end_time, end);

  auto inside = [&](ProcessId pid, Tick t) {
    return t < view_end.at(static_cast<std::size_t>(pid));
  };

  for (const MessageRecord& m : trace.messages) {
    if (!inside(m.from, m.send_time)) continue;  // sent outside the run
    MessageRecord copy = m;
    if (copy.delivered() && !inside(copy.to, copy.recv_time)) {
      copy.recv_time = kNoTime;  // receipt chopped away
    }
    out.messages.push_back(copy);
  }

  for (OperationRecord rec : trace.ops) {
    if (rec.invoke_time == kNoTime || !inside(rec.proc, rec.invoke_time)) continue;
    if (rec.completed() && !inside(rec.proc, rec.response_time)) {
      rec.response_time = kNoTime;
      rec.ret = Value::unit();
    }
    out.ops.append(rec);
  }
  return out;
}

AdmissibilityReport audit_chopped(const Trace& chopped,
                                  const std::vector<Tick>& view_end) {
  AdmissibilityReport report;

  for (const MessageRecord& m : chopped.messages) {
    if (m.delivered()) {
      if (!chopped.timing.delay_admissible(m.delay())) {
        std::ostringstream os;
        os << "delivered message " << m.id << " (" << m.from << "->" << m.to
           << ") has delay " << m.delay();
        report.fail(os.str());
      }
      if (m.recv_time >= view_end.at(static_cast<std::size_t>(m.to))) {
        std::ostringstream os;
        os << "message " << m.id << " received after its recipient's view end";
        report.fail(os.str());
      }
    } else {
      // Undelivered: the recipient's view must end before send + d.
      if (view_end.at(static_cast<std::size_t>(m.to)) >
          m.send_time + chopped.timing.d) {
        std::ostringstream os;
        os << "undelivered message " << m.id << " (" << m.from << "->" << m.to
           << ") sent at " << m.send_time << " but recipient view lasts to "
           << view_end.at(static_cast<std::size_t>(m.to));
        report.fail(os.str());
      }
    }
    if (m.send_time >= view_end.at(static_cast<std::size_t>(m.from))) {
      std::ostringstream os;
      os << "message " << m.id << " sent outside its sender's view";
      report.fail(os.str());
    }
  }

  for (std::size_t i = 0; i < chopped.clock_offsets.size(); ++i) {
    for (std::size_t j = i + 1; j < chopped.clock_offsets.size(); ++j) {
      const Tick skew = std::llabs(chopped.clock_offsets[i] - chopped.clock_offsets[j]);
      if (skew > chopped.timing.eps) {
        std::ostringstream os;
        os << "clock skew between " << i << " and " << j << " is " << skew;
        report.fail(os.str());
      }
    }
  }
  return report;
}

}  // namespace linbound
