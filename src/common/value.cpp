#include "common/value.h"

#include <limits>
#include <sstream>

#include "common/intern.h"

namespace linbound {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void hash_into(std::uint64_t& h, const Value& v) {
  if (v.is_unit()) {
    char tag = 'u';
    fnv_bytes(h, &tag, 1);
  } else if (v.is_int()) {
    char tag = 'i';
    fnv_bytes(h, &tag, 1);
    std::int64_t x = v.as_int();
    fnv_bytes(h, &x, sizeof(x));
  } else if (v.is_bool()) {
    char tag = 'b';
    fnv_bytes(h, &tag, 1);
    bool b = v.as_bool();
    fnv_bytes(h, &b, sizeof(b));
  } else if (v.is_str()) {
    char tag = 's';
    fnv_bytes(h, &tag, 1);
    const std::string& s = v.as_str();
    std::uint64_t n = s.size();
    fnv_bytes(h, &n, sizeof(n));
    fnv_bytes(h, s.data(), s.size());
  } else {
    char tag = 'l';
    fnv_bytes(h, &tag, 1);
    const Value::List& xs = v.as_list();
    std::uint64_t n = xs.size();
    fnv_bytes(h, &n, sizeof(n));
    for (const Value& x : xs) hash_into(h, x);
  }
}

// The empty list is common enough (queue/stack drains, unit results of
// composite ops) to deserve one shared allocation for the whole process.
const std::shared_ptr<const Value::List>& empty_list() {
  static const auto* shared =
      new std::shared_ptr<const Value::List>(std::make_shared<Value::List>());
  return *shared;
}

}  // namespace

Value::Value(std::string s) : v_(intern_string(std::move(s))) {}

Value::Value(const char* s) : v_(intern_string(std::string(s))) {}

Value::Value(List xs)
    : v_(xs.empty() ? empty_list()
                    : std::make_shared<const List>(std::move(xs))) {}

bool operator==(const Value& a, const Value& b) {
  if (a.v_.index() != b.v_.index()) return false;
  switch (a.v_.index()) {
    case 0:
      return true;
    case 1:
      return std::get<std::int64_t>(a.v_) == std::get<std::int64_t>(b.v_);
    case 2:
      return std::get<bool>(a.v_) == std::get<bool>(b.v_);
    case 3: {
      // Interning makes equal strings pointer-identical; keep the deep
      // compare as a safety net rather than a representation invariant.
      const auto& pa = std::get<Value::StrPtr>(a.v_);
      const auto& pb = std::get<Value::StrPtr>(b.v_);
      return pa == pb || *pa == *pb;
    }
    default: {
      const auto& pa = std::get<Value::ListPtr>(a.v_);
      const auto& pb = std::get<Value::ListPtr>(b.v_);
      return pa == pb || *pa == *pb;
    }
  }
}

bool operator<(const Value& a, const Value& b) {
  if (a.v_.index() != b.v_.index()) return a.v_.index() < b.v_.index();
  switch (a.v_.index()) {
    case 0:
      return false;
    case 1:
      return std::get<std::int64_t>(a.v_) < std::get<std::int64_t>(b.v_);
    case 2:
      return std::get<bool>(a.v_) < std::get<bool>(b.v_);
    case 3: {
      const auto& pa = std::get<Value::StrPtr>(a.v_);
      const auto& pb = std::get<Value::StrPtr>(b.v_);
      return pa != pb && *pa < *pb;
    }
    default: {
      const auto& pa = std::get<Value::ListPtr>(a.v_);
      const auto& pb = std::get<Value::ListPtr>(b.v_);
      return pa != pb && *pa < *pb;
    }
  }
}

std::string Value::to_string() const {
  if (is_unit()) return "()";
  if (is_int()) return std::to_string(as_int());
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_str()) return "\"" + as_str() + "\"";
  std::ostringstream os;
  os << "[";
  const List& xs = as_list();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ", ";
    os << xs[i].to_string();
  }
  os << "]";
  return os.str();
}

std::uint64_t Value::hash() const {
  std::uint64_t h = kFnvOffset;
  hash_into(h, *this);
  return h;
}

namespace {

/// Deepest list nesting parse() accepts.  Every value the types and
/// composites produce nests at most two lists deep; the cap bounds the
/// recursion below (and a parsed Value's recursive destructor) on any
/// input, so one hostile trace field cannot overflow the stack.
constexpr int kMaxParseDepth = 64;

/// Recursive-descent parser over the to_string() grammar.  `pos` advances
/// past the parsed value; whitespace is skipped between tokens.  `depth`
/// counts the lists open around the value.
std::optional<Value> parse_value(std::string_view s, std::size_t& pos,
                                 int depth) {
  auto skip_ws = [&] {
    while (pos < s.size() && s[pos] == ' ') ++pos;
  };
  skip_ws();
  if (pos >= s.size()) return std::nullopt;

  if (s.compare(pos, 2, "()") == 0) {
    pos += 2;
    return Value::unit();
  }
  if (s.compare(pos, 4, "true") == 0) {
    pos += 4;
    return Value(true);
  }
  if (s.compare(pos, 5, "false") == 0) {
    pos += 5;
    return Value(false);
  }
  if (s[pos] == '"') {
    const std::size_t end = s.find('"', pos + 1);
    if (end == std::string_view::npos) return std::nullopt;
    Value out(std::string(s.substr(pos + 1, end - pos - 1)));
    pos = end + 1;
    return out;
  }
  if (s[pos] == '[') {
    if (depth == kMaxParseDepth) return std::nullopt;
    ++pos;
    Value::List items;
    skip_ws();
    if (pos < s.size() && s[pos] == ']') {
      ++pos;
      return Value(std::move(items));
    }
    while (true) {
      auto item = parse_value(s, pos, depth + 1);
      if (!item) return std::nullopt;
      items.push_back(std::move(*item));
      skip_ws();
      if (pos >= s.size()) return std::nullopt;
      if (s[pos] == ']') {
        ++pos;
        return Value(std::move(items));
      }
      if (s[pos] != ',') return std::nullopt;
      ++pos;
    }
  }
  // Integer: optional sign, then digits.  Accumulate the magnitude in an
  // unsigned so INT64_MIN parses and anything out of range is rejected
  // instead of overflowing (signed overflow is UB).
  {
    std::size_t end = pos;
    if (end < s.size() && (s[end] == '-' || s[end] == '+')) ++end;
    const std::size_t digits_start = end;
    while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
    if (end == digits_start) return std::nullopt;
    const bool negative = s[pos] == '-';
    const std::uint64_t limit =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
        (negative ? 1u : 0u);
    std::uint64_t mag = 0;
    for (std::size_t i = digits_start; i < end; ++i) {
      const std::uint64_t digit = static_cast<std::uint64_t>(s[i] - '0');
      if (mag > (limit - digit) / 10) return std::nullopt;  // out of range
      mag = mag * 10 + digit;
    }
    pos = end;
    if (negative) {
      // -mag computed in unsigned space handles INT64_MIN without UB.
      return Value(static_cast<std::int64_t>(~mag + 1));
    }
    return Value(static_cast<std::int64_t>(mag));
  }
}

}  // namespace

std::optional<Value> Value::parse(std::string_view text) {
  std::size_t pos = 0;
  auto out = parse_value(text, pos, 0);
  if (!out) return std::nullopt;
  while (pos < text.size() && text[pos] == ' ') ++pos;
  if (pos != text.size()) return std::nullopt;  // trailing garbage
  return out;
}

}  // namespace linbound
