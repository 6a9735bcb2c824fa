#include "chaos/fault_script.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace linbound {
namespace {

bool fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

}  // namespace

void write_fault_script(std::ostream& os, const FaultScript& script) {
  os << "faultscript v1\n";
  for (const ScriptedDecision& d : script.decisions) {
    os << "decision " << d.msg_seq << " " << (d.decision.drop ? 1 : 0) << " "
       << d.decision.extra_copies << " " << d.decision.delay_boost << "\n";
  }
  os << "end\n";
}

std::optional<FaultScript> read_fault_script(std::istream& is,
                                             std::string* error) {
  std::string line;
  if (!std::getline(is, line) || line != "faultscript v1") {
    fail(error, "missing 'faultscript v1' header");
    return std::nullopt;
  }
  FaultScript script;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line == "end") return script;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind != "decision") {
      fail(error, "unknown faultscript line: " + line);
      return std::nullopt;
    }
    ScriptedDecision d;
    int drop = 0;
    ls >> d.msg_seq >> drop >> d.decision.extra_copies >>
        d.decision.delay_boost;
    if (ls.fail() || d.msg_seq < 0 || (drop != 0 && drop != 1) ||
        d.decision.extra_copies < 0 || d.decision.delay_boost < 0) {
      fail(error, "malformed decision line: " + line);
      return std::nullopt;
    }
    d.decision.drop = drop == 1;
    script.decisions.push_back(d);
  }
  fail(error, "faultscript missing 'end' marker");
  return std::nullopt;
}

std::optional<FaultScript> fault_script_from_string(const std::string& text,
                                                    std::string* error) {
  std::istringstream is(text);
  return read_fault_script(is, error);
}

FaultDecision RecordingFaultPolicy::on_send(ProcessId from, ProcessId to,
                                            Tick send_time,
                                            std::int64_t msg_seq) {
  const FaultDecision d =
      inner_ ? inner_->on_send(from, to, send_time, msg_seq) : FaultDecision{};
  if (d.drop || d.extra_copies > 0 || d.delay_boost > 0) {
    script_.decisions.push_back({msg_seq, d});
  }
  return d;
}

Tick RecordingFaultPolicy::stalled_until(ProcessId pid, Tick now) {
  return inner_ ? inner_->stalled_until(pid, now) : kNoTime;
}

ScriptedFaultPolicy::ScriptedFaultPolicy(FaultScript script)
    : script_(std::move(script)) {
  std::sort(script_.decisions.begin(), script_.decisions.end(),
            [](const ScriptedDecision& a, const ScriptedDecision& b) {
              return a.msg_seq < b.msg_seq;
            });
}

FaultDecision ScriptedFaultPolicy::on_send(ProcessId, ProcessId, Tick,
                                           std::int64_t msg_seq) {
  const auto it = std::lower_bound(
      script_.decisions.begin(), script_.decisions.end(), msg_seq,
      [](const ScriptedDecision& d, std::int64_t seq) {
        return d.msg_seq < seq;
      });
  if (it != script_.decisions.end() && it->msg_seq == msg_seq) {
    return it->decision;
  }
  return {};
}

}  // namespace linbound
