// Plaintext value model shared by the execution engine and the crypto layer.

#ifndef MPQ_COMMON_VALUE_H_
#define MPQ_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"

namespace mpq {

/// Column data types supported by the engine.
enum class DataType {
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeName(DataType t);

/// A plaintext cell: NULL, int64, double, or string.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(AsInt());
    return std::get<double>(v_);
  }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Three-way comparison. NULLs sort first; numeric types compare
  /// numerically across int/double; comparing a number to a string compares
  /// type tags (deterministic total order).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Canonical byte serialization (used by ciphers and hashing).
  std::string Serialize() const;

  /// Inverse of Serialize.
  static Result<Value> Deserialize(std::string_view bytes);

  /// Human-readable rendering.
  std::string ToString() const;

  /// Approximate in-memory size in bytes (for cost accounting).
  size_t ByteSize() const;

  /// 64-bit hash of the canonical serialization.
  uint64_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

}  // namespace mpq

#endif  // MPQ_COMMON_VALUE_H_
