#include "sim/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace linbound {
namespace {

std::optional<Tick> parse_time_or_dash(const std::string& token) {
  if (token == "-") return kNoTime;
  try {
    std::size_t used = 0;
    const long long x = std::stoll(token, &used);
    if (used != token.size()) return std::nullopt;
    return static_cast<Tick>(x);
  } catch (...) {
    return std::nullopt;
  }
}

/// Values may contain spaces (lists, strings); arguments are written
/// separated by a field marker that cannot appear inside the grammar.
constexpr char kFieldSep = '\t';

bool fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

/// The one trace formatter: every serialized byte -- write_trace (and so
/// trace_to_string) and hash_trace -- comes out of format_trace.  It fills a
/// fixed buffer and hands it to `sink.put(data, n)` whenever the buffer is
/// full and once at the end; integers go through std::to_chars, which
/// prints exactly the digits operator<< does.
template <typename Sink>
class TraceFormatter {
 public:
  explicit TraceFormatter(Sink& sink) : sink_(sink) {}

  void text(std::string_view s) {
    if (s.size() > kCapacity - len_) {
      flush();
      if (s.size() > kCapacity) {
        sink_.put(s.data(), s.size());
        return;
      }
    }
    std::memcpy(buf_ + len_, s.data(), s.size());
    len_ += s.size();
  }

  void ch(char c) {
    if (len_ == kCapacity) flush();
    buf_[len_++] = c;
  }

  void num(std::int64_t x) {
    if (kCapacity - len_ < kMaxDigits) flush();
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_ + len_, buf_ + kCapacity, x).ptr - buf_);
  }

  /// " <x>" per argument: every numeric field is preceded by one space.
  template <typename... Ints>
  void fields(Ints... xs) {
    ((ch(' '), num(xs)), ...);
  }

  /// A stored value in the Value::to_string grammar: unit, int and bool
  /// straight into the buffer, side-table values through to_string.
  void value(const OpLog::ValueRef& v) {
    switch (v.kind) {
      case OpLog::Kind::kUnit:
        text("()");
        return;
      case OpLog::Kind::kInt:
        num(v.bits);
        return;
      case OpLog::Kind::kBool:
        text(v.bits != 0 ? "true" : "false");
        return;
      case OpLog::Kind::kSide:
        text(v.side->to_string());
        return;
    }
  }

  /// " <t>", or " -" for kNoTime.
  void time_field(Tick t) {
    if (t == kNoTime) {
      text(" -");
    } else {
      fields(t);
    }
  }

  void flush() {
    if (len_ > 0) sink_.put(buf_, len_);
    len_ = 0;
  }

 private:
  static constexpr std::size_t kCapacity = 4096;
  static constexpr std::size_t kMaxDigits = 20;  ///< "-9223372036854775808"
  Sink& sink_;
  std::size_t len_ = 0;
  char buf_[kCapacity] = {};
};

template <typename Sink>
void format_trace(const Trace& trace, Sink& sink) {
  TraceFormatter<Sink> out(sink);
  out.text("trace v1\ntiming");
  out.fields(trace.timing.d, trace.timing.u, trace.timing.eps);
  out.text("\noffsets");
  for (Tick c : trace.clock_offsets) out.fields(c);
  out.text("\nend");
  out.fields(trace.end_time);
  out.ch('\n');
  for (const MessageRecord& m : trace.messages) {
    out.text("msg");
    out.fields(m.id, m.from, m.to, m.send_time);
    out.time_field(m.recv_time);
    out.ch('\n');
  }
  const OpLog& ops = trace.ops;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out.text("op");
    out.fields(ops.token(i), ops.proc(i), ops.code(i));
    out.time_field(ops.invoke_time(i));
    out.time_field(ops.response_time(i));
    out.ch(kFieldSep);
    out.value(ops.ret(i));
    for (std::size_t a = 0, argc = ops.arg_count(i); a < argc; ++a) {
      out.ch(kFieldSep);
      out.value(ops.arg(i, a));
    }
    out.ch('\n');
  }
  for (const FaultEvent& f : trace.faults) {
    out.text("fault ");
    out.text(fault_kind_name(f.kind));
    out.fields(f.time, f.proc, f.peer, f.msg, f.magnitude);
    out.ch('\n');
  }
  out.flush();
}

struct OstreamSink {
  std::ostream& os;
  void put(const char* data, std::size_t n) {
    os.write(data, static_cast<std::streamsize>(n));
  }
};

/// FNV-1a over everything put through it.
struct FnvSink {
  std::uint64_t hash = 14695981039346656037ull;
  void put(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash = (hash ^ static_cast<unsigned char>(data[i])) * 1099511628211ull;
    }
  }
};

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  OstreamSink sink{os};
  format_trace(trace, sink);
}

std::string trace_to_string(const Trace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

std::uint64_t hash_trace(const Trace& trace) {
  FnvSink sink;
  format_trace(trace, sink);
  return sink.hash;
}

bool same_trace(const Trace& a, const Trace& b) {
  if (a.timing.d != b.timing.d || a.timing.u != b.timing.u ||
      a.timing.eps != b.timing.eps || a.clock_offsets != b.clock_offsets ||
      a.end_time != b.end_time || a.messages != b.messages ||
      a.ops.size() != b.ops.size() || a.faults != b.faults) {
    return false;
  }
  const OpLog& x = a.ops;
  const OpLog& y = b.ops;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x.token(i) != y.token(i) || x.proc(i) != y.proc(i) ||
        x.code(i) != y.code(i) || x.invoke_time(i) != y.invoke_time(i) ||
        x.response_time(i) != y.response_time(i) || !(x.ret(i) == y.ret(i))) {
      return false;
    }
    const std::size_t argc = x.arg_count(i);
    if (argc != y.arg_count(i)) return false;
    for (std::size_t j = 0; j < argc; ++j) {
      if (!(x.arg(i, j) == y.arg(i, j))) return false;
    }
  }
  return true;
}

std::optional<Trace> read_trace(std::istream& is, std::string* error) {
  Trace trace;
  std::string line;
  // First op index per token, for the ops whose token is not their index
  // (the give-up pass below); every other token finds its op directly.
  std::unordered_map<std::int64_t, std::size_t> moved_tokens;

  if (!std::getline(is, line) || line != "trace v1") {
    fail(error, "missing 'trace v1' header");
    return std::nullopt;
  }

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "timing") {
      if (!(ls >> trace.timing.d >> trace.timing.u >> trace.timing.eps)) {
        fail(error, "bad timing line");
        return std::nullopt;
      }
    } else if (kind == "offsets") {
      Tick c;
      while (ls >> c) trace.clock_offsets.push_back(c);
    } else if (kind == "end") {
      if (!(ls >> trace.end_time)) {
        fail(error, "bad end line");
        return std::nullopt;
      }
    } else if (kind == "msg") {
      MessageRecord m;
      std::string recv;
      if (!(ls >> m.id >> m.from >> m.to >> m.send_time >> recv)) {
        fail(error, "bad msg line: " + line);
        return std::nullopt;
      }
      auto recv_time = parse_time_or_dash(recv);
      if (!recv_time) {
        fail(error, "bad recv time: " + recv);
        return std::nullopt;
      }
      m.recv_time = *recv_time;
      trace.messages.push_back(m);
    } else if (kind == "op") {
      OperationRecord rec;
      std::string invoke, response;
      if (!(ls >> rec.token >> rec.proc >> rec.op.code >> invoke >> response)) {
        fail(error, "bad op line: " + line);
        return std::nullopt;
      }
      auto invoke_time = parse_time_or_dash(invoke);
      auto response_time = parse_time_or_dash(response);
      if (!invoke_time || !response_time) {
        fail(error, "bad op times: " + line);
        return std::nullopt;
      }
      rec.invoke_time = *invoke_time;
      rec.response_time = *response_time;
      // Remainder: tab-separated Value fields, first the return.
      std::string rest;
      std::getline(ls, rest);
      std::vector<std::string> fields;
      std::size_t start = 0;
      while (start < rest.size()) {
        if (rest[start] == kFieldSep) {
          ++start;
          const std::size_t end = rest.find(kFieldSep, start);
          fields.push_back(rest.substr(start, end == std::string::npos
                                                  ? std::string::npos
                                                  : end - start));
          start = end == std::string::npos ? rest.size() : end;
        } else {
          ++start;
        }
      }
      if (fields.empty()) {
        fail(error, "op line missing return value: " + line);
        return std::nullopt;
      }
      auto ret = Value::parse(fields[0]);
      if (!ret) {
        fail(error, "bad return value: " + fields[0]);
        return std::nullopt;
      }
      rec.ret = std::move(*ret);
      for (std::size_t i = 1; i < fields.size(); ++i) {
        auto arg = Value::parse(fields[i]);
        if (!arg) {
          fail(error, "bad argument value: " + fields[i]);
          return std::nullopt;
        }
        rec.op.args.push_back(std::move(*arg));
      }
      const std::size_t index = trace.ops.size();
      if (rec.token != static_cast<std::int64_t>(index)) {
        moved_tokens.try_emplace(rec.token, index);
      }
      trace.ops.append(rec);
    } else if (kind == "fault") {
      FaultEvent f;
      std::string kind_name;
      if (!(ls >> kind_name >> f.time >> f.proc >> f.peer >> f.msg >>
            f.magnitude)) {
        fail(error, "bad fault line: " + line);
        return std::nullopt;
      }
      f.kind = fault_kind_from_name(kind_name);
      if (f.kind == FaultKind::kFaultKindCount) {
        fail(error, "unknown fault kind: " + kind_name);
        return std::nullopt;
      }
      trace.faults.push_back(f);
    } else {
      fail(error, "unknown line kind: " + kind);
      return std::nullopt;
    }
  }
  // gave_up / give_up_time are not serialized as op fields: they are fully
  // determined by the kOperationGivenUp fault events (magnitude = token),
  // so they are reconstructed here and the v1 grammar -- and every archived
  // trace hash -- stays unchanged.  Each event marks the first op carrying
  // its token.
  const std::size_t n = trace.ops.size();
  for (const FaultEvent& f : trace.faults) {
    if (f.kind != FaultKind::kOperationGivenUp) continue;
    std::size_t first = n;
    const auto at = static_cast<std::size_t>(f.magnitude);
    if (f.magnitude >= 0 && at < n && trace.ops.token(at) == f.magnitude) {
      first = at;
    }
    const auto moved = moved_tokens.find(f.magnitude);
    if (moved != moved_tokens.end()) first = std::min(first, moved->second);
    if (first < n) trace.ops.give_up(first, f.time);
  }
  return trace;
}

std::optional<Trace> trace_from_string(const std::string& text, std::string* error) {
  std::istringstream is(text);
  return read_trace(is, error);
}

}  // namespace linbound
