#include "util/logging.h"

#include <gtest/gtest.h>

namespace tdr {
namespace {

TEST(StrPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StrPrintf("x=%d y=%s", 42, "hi"), "x=42 y=hi");
  EXPECT_EQ(StrPrintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrPrintf("%s", ""), "");
}

TEST(StrPrintfTest, LongStringsNotTruncated) {
  std::string big(5000, 'a');
  std::string out = StrPrintf("[%s]", big.c_str());
  EXPECT_EQ(out.size(), big.size() + 2);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

}  // namespace
}  // namespace tdr
