#include "storage/types.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

namespace tdr {
namespace {

// A slot hands values out by value, so assigning to a temporary must not
// compile.
static_assert(!std::is_assignable_v<Value, Value>);
static_assert(!std::is_assignable_v<Value, const Value&>);
static_assert(std::is_assignable_v<Value&, Value>);
static_assert(std::is_assignable_v<Value&, const Value&>);

TEST(ValueTest, DefaultIsScalarZero) {
  Value v;
  EXPECT_TRUE(v.is_scalar());
  EXPECT_EQ(v.AsScalar(), 0);
}

TEST(ValueTest, ScalarRoundTrip) {
  Value v(42);
  EXPECT_TRUE(v.is_scalar());
  EXPECT_EQ(v.AsScalar(), 42);
  v.SetScalar(-17);
  EXPECT_EQ(v.AsScalar(), -17);
}

TEST(ValueTest, ListConstruction) {
  Value v(Value::List{3, 1, 2});
  EXPECT_TRUE(v.is_list());
  EXPECT_EQ(v.AsList().size(), 3u);
  EXPECT_EQ(v.AsScalar(), 3);  // lists read as their size
}

TEST(ValueTest, AppendKeepsSortedOrder) {
  Value v(Value::List{});
  v.Append(5);
  v.Append(1);
  v.Append(3);
  EXPECT_EQ(v.AsList(), (Value::List{1, 3, 5}));
}

TEST(ValueTest, AppendCommutes) {
  // Any interleaving of the same appends yields the same list — the §6
  // property that makes timestamped append safe under lazy replication.
  Value a(Value::List{});
  Value b(Value::List{});
  for (int x : {9, 2, 7, 2, 5}) a.Append(x);
  for (int x : {5, 2, 2, 7, 9}) b.Append(x);
  EXPECT_EQ(a, b);
}

TEST(ValueTest, AppendPromotesScalar) {
  Value v(10);
  v.Append(4);
  EXPECT_TRUE(v.is_list());
  EXPECT_EQ(v.AsList(), (Value::List{4, 10}));
}

TEST(ValueTest, AppendPromotesZeroScalarToEmptyBase) {
  Value v;  // scalar 0
  v.Append(6);
  EXPECT_EQ(v.AsList(), (Value::List{6}));
}

TEST(ValueTest, EqualityDistinguishesKinds) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_NE(Value(0), Value(Value::List{}));
  EXPECT_EQ(Value(Value::List{1, 2}), Value(Value::List{1, 2}));
}

TEST(ValueTest, CopiedListIsDeep) {
  Value source(Value::List{1, 2});
  Value copy(source);
  copy.Append(3);
  EXPECT_EQ(source.AsList(), (Value::List{1, 2}));
  EXPECT_EQ(copy.AsList(), (Value::List{1, 2, 3}));
}

TEST(ValueTest, CopyAssignmentCrossesKinds) {
  const Value list(Value::List{4, 5});
  const Value scalar(9);
  Value v(7);
  v = list;  // scalar -> list
  EXPECT_TRUE(v.is_list());
  EXPECT_EQ(v, list);
  v = scalar;  // list -> scalar
  EXPECT_TRUE(v.is_scalar());
  EXPECT_EQ(v, scalar);
  EXPECT_EQ(list.AsList(), (Value::List{4, 5}));
}

TEST(ValueTest, SelfAssignmentLeavesValueUnchanged) {
  Value list(Value::List{1, 2});
  const Value& list_alias = list;
  list = list_alias;
  EXPECT_EQ(list.AsList(), (Value::List{1, 2}));
  Value scalar(3);
  const Value& scalar_alias = scalar;
  scalar = scalar_alias;
  EXPECT_EQ(scalar, Value(3));
}

TEST(ValueTest, MovedFromValueCanBeReassigned) {
  Value source(Value::List{1, 2});
  Value target(std::move(source));
  EXPECT_EQ(target.AsList(), (Value::List{1, 2}));
  source = Value(Value::List{5});
  EXPECT_EQ(source.AsList(), (Value::List{5}));
  target = std::move(source);
  source = Value(6);
  EXPECT_EQ(source, Value(6));
  EXPECT_EQ(target.AsList(), (Value::List{5}));
}

TEST(ValueTest, SetScalarOnListMakesScalar) {
  Value v(Value::List{1, 2, 3});
  v.SetScalar(8);
  EXPECT_TRUE(v.is_scalar());
  EXPECT_EQ(v, Value(8));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(7).ToString(), "7");
  EXPECT_EQ(Value(Value::List{1, 2, 3}).ToString(), "[1,2,3]");
  EXPECT_EQ(Value(Value::List{}).ToString(), "[]");
}

}  // namespace
}  // namespace tdr
