#include "common/status.h"

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>

#include "common/result.h"

namespace mlnclean {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  EXPECT_TRUE(Status::Invalid("x").IsInvalid());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::Cancelled("x").IsCancelled());
  Status s = Status::Invalid("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "Invalid: bad input");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::IOError("disk gone");
  Status t = s;
  EXPECT_TRUE(t.IsIOError());
  EXPECT_EQ(t.message(), "disk gone");
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalid), "Invalid");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCancelled), "Cancelled");
}

TEST(StatusTest, RobustnessCodes) {
  Status oom = Status::ResourceExhausted("allocator said no");
  EXPECT_TRUE(oom.IsResourceExhausted());
  EXPECT_FALSE(oom.IsInternal());
  Status torn = Status::Corruption("section 2 checksum mismatch");
  EXPECT_TRUE(torn.IsCorruption());
  EXPECT_FALSE(torn.IsInvalid());
  EXPECT_STRNE(StatusCodeToString(StatusCode::kResourceExhausted),
               StatusCodeToString(StatusCode::kCorruption));
}

TEST(StatusTest, FromCurrentExceptionMapsTheExceptionType) {
  Status from_runtime = [] {
    try {
      throw std::runtime_error("widget jammed");
    } catch (...) {
      return StatusFromCurrentException("spinning widget");
    }
  }();
  EXPECT_TRUE(from_runtime.IsInternal()) << from_runtime.ToString();
  EXPECT_NE(from_runtime.message().find("spinning widget"), std::string::npos);
  EXPECT_NE(from_runtime.message().find("widget jammed"), std::string::npos);

  Status from_bad_alloc = [] {
    try {
      throw std::bad_alloc();
    } catch (...) {
      return StatusFromCurrentException("allocating");
    }
  }();
  EXPECT_TRUE(from_bad_alloc.IsResourceExhausted())
      << from_bad_alloc.ToString();

  Status from_unknown = [] {
    try {
      throw 42;  // not a std::exception
    } catch (...) {
      return StatusFromCurrentException("computing");
    }
  }();
  EXPECT_TRUE(from_unknown.IsInternal()) << from_unknown.ToString();
  EXPECT_NE(from_unknown.message().find("computing"), std::string::npos);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).ValueUnsafe();
  EXPECT_EQ(v, "payload");
}

// Counts its copies; moves are free.
struct CopyCounted {
  static int copies;
  CopyCounted() = default;
  CopyCounted(const CopyCounted&) { ++copies; }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(const CopyCounted&) {
    ++copies;
    return *this;
  }
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
};
int CopyCounted::copies = 0;

Result<CopyCounted> MakeCopyCounted() { return CopyCounted(); }

TEST(ResultTest, DereferencingATemporaryMovesTheValueOut) {
  CopyCounted::copies = 0;
  auto v = *MakeCopyCounted();
  (void)v;
  EXPECT_EQ(CopyCounted::copies, 0);
  // An lvalue Result still hands out a reference.
  Result<CopyCounted> r = MakeCopyCounted();
  const CopyCounted& ref = *r;
  EXPECT_EQ(&ref, &r.ValueUnsafe());
  EXPECT_EQ(CopyCounted::copies, 0);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  MLN_ASSIGN_OR_RETURN(int h, Half(x));
  MLN_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

Status CheckEven(int x) {
  MLN_RETURN_NOT_OK(Half(x).ok() ? Status::OK() : Half(x).status());
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> bad = Quarter(6);  // 6/2 = 3, odd -> Invalid
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalid());
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(CheckEven(4).ok());
  EXPECT_FALSE(CheckEven(3).ok());
}

}  // namespace
}  // namespace mlnclean
