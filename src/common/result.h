// Result<T>: value-or-Status, in the style of arrow::Result.

#ifndef MLNCLEAN_COMMON_RESULT_H_
#define MLNCLEAN_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace mlnclean {

/// Holds either a T or a non-OK Status explaining why no T is available.
///
/// Typical use:
///   Result<Dataset> r = Dataset::FromCsv(path);
///   if (!r.ok()) return r.status();
///   Dataset d = std::move(r).ValueUnsafe();
/// or, inside a Status/Result-returning function:
///   MLN_ASSIGN_OR_RETURN(Dataset d, Dataset::FromCsv(path));
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit so `return value;` works).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from a non-OK status (implicit so `return status;` works).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result must not be built from an OK Status");
    if (status_.ok()) status_ = Status::Internal("Result built from OK Status");
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const { return status_; }

  /// The contained value; must only be called when ok().
  const T& ValueUnsafe() const& { return *value_; }
  T& ValueUnsafe() & { return *value_; }
  T ValueUnsafe() && { return std::move(*value_); }

  /// The contained value, or `fallback` when this Result holds an error.
  T ValueOr(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

  const T& operator*() const& { return ValueUnsafe(); }
  T& operator*() & { return ValueUnsafe(); }
  /// Moves the value out of a temporary, so `T x = *F(...)` never copies.
  T operator*() && { return std::move(*value_); }
  const T* operator->() const { return &ValueUnsafe(); }
  T* operator->() { return &ValueUnsafe(); }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_COMMON_RESULT_H_
