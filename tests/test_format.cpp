#include "common/format.h"

#include <gtest/gtest.h>

namespace linbound {
namespace {

TEST(Format, Ticks) {
  EXPECT_EQ(format_ticks(1500), "1500us");
  EXPECT_EQ(format_ticks(0), "0us");
  EXPECT_EQ(format_ticks(kNoTime), "-");
}

TEST(Format, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"op", "bound"});
  t.add_row({"write", "300us"});
  t.add_row({"read-modify-write", "1100us"});
  const std::string out = t.render();
  EXPECT_NE(out.find("op                | bound"), std::string::npos);
  EXPECT_NE(out.find("write             | 300us"), std::string::npos);
  EXPECT_NE(out.find("read-modify-write | 1100us"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  const std::string out = t.render();
  EXPECT_NE(out.find("1"), std::string::npos);
}

}  // namespace
}  // namespace linbound
