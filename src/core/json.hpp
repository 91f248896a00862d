// Minimal JSON reader shared by the history and replay layers.
//
// Only what this repo's own exporters emit (objects, arrays, strings,
// numbers, bools, null), but written as a complete little parser so a
// hand-edited or truncated document fails with a PARATICK_CHECK message,
// not UB.
#pragma once

#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace paratick::core::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parse a complete JSON document. PARATICK_CHECK (throws sim::SimError)
/// on malformed input.
[[nodiscard]] Value parse(const std::string& text);

/// Object field helpers; `num` falls back, `str` CHECKs presence.
[[nodiscard]] double num_field(const Value& obj, const char* key,
                               double fallback = 0.0);
[[nodiscard]] std::string str_field(const Value& obj, const char* key);

/// Throws sim::SimError naming `what` unless `v` is finite, has no
/// fractional part and lies in [-2^digits, 2^digits) (signed) or
/// [0, 2^digits) (unsigned). Use to_int / int_field instead.
void check_integer(double v, int digits, bool is_signed, const char* what);

/// Checked number -> integer conversion for numbers read from files and
/// pipes: a value such as -1 for an unsigned field, 2.5 or 1e300 is a
/// SimError naming `what`, never a silently wrapped (or undefined) cast.
template <typename T>
[[nodiscard]] T to_int(double v, const char* what) {
  static_assert(std::is_integral_v<T>);
  check_integer(v, std::numeric_limits<T>::digits, std::is_signed_v<T>, what);
  return static_cast<T>(v);
}

/// Integer object field: `fallback` when absent or not a number,
/// otherwise to_int named after `key`.
template <typename T>
[[nodiscard]] T int_field(const Value& obj, const char* key, T fallback = 0) {
  const Value* v = obj.find(key);
  if (v == nullptr || v->type != Value::Type::kNumber) return fallback;
  return to_int<T>(v->number, key);
}

}  // namespace paratick::core::json
