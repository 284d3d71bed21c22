#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace vitri {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, FactoryCodesRoundTrip) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "DeadlineExceeded: late");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  const Status s = Status::IoError("disk on fire");
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status {
    VITRI_RETURN_IF_ERROR(Status::NotFound("gone"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(3), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(3), 3);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 41;
  };
  auto outer = [&](bool fail) -> Result<int> {
    int x = 0;
    VITRI_ASSIGN_OR_RETURN(x, inner(fail));
    return x + 1;
  };
  EXPECT_EQ(*outer(false), 42);
  EXPECT_TRUE(outer(true).status().IsInternal());
}

}  // namespace
}  // namespace vitri
