#include "common/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/rng.h"

namespace linbound {
namespace {

TEST(Value, DefaultIsUnit) {
  Value v;
  EXPECT_TRUE(v.is_unit());
  EXPECT_EQ(v, Value::unit());
}

TEST(Value, IntRoundTrip) {
  Value v(42);
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_EQ(v.to_string(), "42");
}

TEST(Value, BoolRoundTrip) {
  Value t(true), f(false);
  ASSERT_TRUE(t.is_bool());
  EXPECT_TRUE(t.as_bool());
  EXPECT_FALSE(f.as_bool());
  EXPECT_EQ(t.to_string(), "true");
  EXPECT_EQ(f.to_string(), "false");
}

TEST(Value, StringRoundTrip) {
  Value v("hello");
  ASSERT_TRUE(v.is_str());
  EXPECT_EQ(v.as_str(), "hello");
  EXPECT_EQ(v.to_string(), "\"hello\"");
}

TEST(Value, ListRoundTrip) {
  Value v(Value::List{Value(1), Value("x")});
  ASSERT_TRUE(v.is_list());
  EXPECT_EQ(v.as_list().size(), 2u);
  EXPECT_EQ(v.to_string(), "[1, \"x\"]");
}

TEST(Value, EqualityDistinguishesTypes) {
  EXPECT_NE(Value(0), Value(false));
  EXPECT_NE(Value(1), Value(true));
  EXPECT_NE(Value::unit(), Value(0));
  EXPECT_NE(Value("1"), Value(1));
}

TEST(Value, EqualitySameType) {
  EXPECT_EQ(Value(7), Value(7));
  EXPECT_NE(Value(7), Value(8));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_EQ(Value(Value::List{Value(1)}), Value(Value::List{Value(1)}));
  EXPECT_NE(Value(Value::List{Value(1)}), Value(Value::List{Value(2)}));
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value(7).hash(), Value(7).hash());
  EXPECT_EQ(Value("abc").hash(), Value("abc").hash());
  // Not guaranteed in general but expected for these simple cases:
  EXPECT_NE(Value(7).hash(), Value(8).hash());
  EXPECT_NE(Value(0).hash(), Value(false).hash());
  EXPECT_NE(Value::unit().hash(), Value(0).hash());
}

TEST(Value, HashOfNestedLists) {
  Value a(Value::List{Value(1), Value(Value::List{Value(2)})});
  Value b(Value::List{Value(1), Value(Value::List{Value(2)})});
  Value c(Value::List{Value(1), Value(Value::List{Value(3)})});
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
}

// --- parse() / to_string() round-trip -------------------------------------

void expect_round_trip(const Value& v) {
  const std::string text = v.to_string();
  const std::optional<Value> back = Value::parse(text);
  ASSERT_TRUE(back.has_value()) << "failed to parse: " << text;
  EXPECT_EQ(*back, v) << "round trip changed: " << text;
}

TEST(ValueParse, ScalarsRoundTrip) {
  expect_round_trip(Value::unit());
  expect_round_trip(Value(0));
  expect_round_trip(Value(-1));
  expect_round_trip(Value(true));
  expect_round_trip(Value(false));
  expect_round_trip(Value("hello"));
  expect_round_trip(Value(""));
}

TEST(ValueParse, Int64ExtremesRoundTrip) {
  expect_round_trip(Value(std::numeric_limits<std::int64_t>::max()));
  expect_round_trip(Value(std::numeric_limits<std::int64_t>::min()));
  expect_round_trip(Value(std::numeric_limits<std::int64_t>::min() + 1));
}

TEST(ValueParse, OutOfRangeIntegersRejected) {
  // One past either end of int64 must be rejected, not wrapped.
  EXPECT_FALSE(Value::parse("9223372036854775808").has_value());
  EXPECT_FALSE(Value::parse("-9223372036854775809").has_value());
  EXPECT_FALSE(Value::parse("99999999999999999999999").has_value());
  // The extremes themselves parse.
  EXPECT_EQ(Value::parse("9223372036854775807"),
            Value(std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(Value::parse("-9223372036854775808"),
            Value(std::numeric_limits<std::int64_t>::min()));
}

TEST(ValueParse, ListsRoundTrip) {
  expect_round_trip(Value(Value::List{}));  // empty list -> "[]"
  expect_round_trip(Value(Value::List{Value(1), Value("x"), Value(true)}));
  // Nested, including nested-empty.
  expect_round_trip(Value(Value::List{
      Value(Value::List{}),
      Value(Value::List{Value(Value::List{Value(-7)}), Value::unit()})}));
}

TEST(ValueParse, MalformedInputsRejected) {
  for (const char* bad :
       {"", "[", "]", "[1,", "[1 2]", "\"unterminated", "truex", "1 2", "--1",
        "+", "()garbage", "[1,,2]"}) {
    EXPECT_FALSE(Value::parse(bad).has_value()) << "accepted: " << bad;
  }
}

/// Deterministic random Value generator for the fuzz round-trip; depth
/// bounds keep lists small.
Value random_value(Rng& rng, int depth) {
  switch (rng.uniform(0, depth > 0 ? 4 : 3)) {
    case 0:
      return Value::unit();
    case 1:
      // Mix extreme magnitudes in with small ones.
      switch (rng.uniform(0, 3)) {
        case 0:
          return Value(std::numeric_limits<std::int64_t>::max());
        case 1:
          return Value(std::numeric_limits<std::int64_t>::min());
        default:
          return Value(rng.uniform(-1000, 1000));
      }
    case 2:
      return Value(rng.chance(0.5));
    case 3: {
      std::string s;
      const int len = static_cast<int>(rng.uniform(0, 8));
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng.uniform(0, 25)));
      }
      return Value(std::move(s));
    }
    default: {
      Value::List xs;
      const int len = static_cast<int>(rng.uniform(0, 4));
      for (int i = 0; i < len; ++i) {
        xs.push_back(random_value(rng, depth - 1));
      }
      return Value(std::move(xs));
    }
  }
}

TEST(ValueParse, FuzzRoundTrip) {
  Rng rng(0xf022f022ull);
  for (int i = 0; i < 500; ++i) {
    const Value v = random_value(rng, 3);
    expect_round_trip(v);
    // The hash must survive the round trip too (the checker memoizes on it).
    EXPECT_EQ(Value::parse(v.to_string())->hash(), v.hash());
  }
}

}  // namespace
}  // namespace linbound
