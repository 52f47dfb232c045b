#ifndef TDR_OBS_JSON_H_
#define TDR_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tdr::obs {

/// Minimal deterministic JSON value for report and trace emission.
///
/// Guarantees the rest of obs depends on:
///  * object members keep INSERTION order (callers choose a canonical
///    order once; Dump never reorders);
///  * number formatting is a pure function of the bits (%lld for
///    integers, %.17g round-trip for doubles), so equal values dump to
///    equal bytes on every run and thread count;
///  * strings are escaped per RFC 8259 (control chars, quote,
///    backslash).
///
/// This is a writer's data model, not a parser — nothing in the repo
/// reads JSON back (tools/report.py does, in Python).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value) : type_(Type::kNumber), num_(value) {}
  Json(int value) : Json(static_cast<std::int64_t>(value)) {}
  Json(std::int64_t value)
      : type_(Type::kNumber), int_(value), is_int_(true) {}
  Json(std::uint64_t value);
  Json(std::string value) : type_(Type::kString), str_(std::move(value)) {}
  Json(std::string_view value) : Json(std::string(value)) {}
  Json(const char* value) : Json(std::string(value)) {}

  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Object member set/replace (insertion order preserved). Returns
  /// *this for chaining.
  Json& Set(std::string_view key, Json value);
  /// Object member lookup; null if absent (or not an object).
  const Json* Find(std::string_view key) const;

  /// Array append. Returns *this for chaining.
  Json& Push(Json value);

  /// Array element access; null if out of range (or not an array).
  const Json* Item(std::size_t index) const;

  // Scalar reads for structural checks (tests walk emitted documents
  // with these). AsInt returns the fallback when the type differs.
  std::int64_t AsInt(std::int64_t fallback = 0) const;
  const std::string& AsString() const { return str_; }

  std::size_t size() const;

  /// Serializes. indent == 0 is compact; indent > 0 pretty-prints with
  /// that many spaces per level. Both are deterministic.
  std::string Dump(int indent = 0) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;
  static void AppendEscaped(std::string* out, std::string_view s);

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool is_int_ = false;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;  // kObject
  std::vector<Json> items_;                            // kArray
};

}  // namespace tdr::obs

#endif  // TDR_OBS_JSON_H_
