// Minimal JSON document model for the observability layer.
//
// Everything ftx::obs emits — metrics snapshots, Chrome trace files,
// machine-readable bench results — is JSON, and the repository deliberately
// carries no third-party JSON dependency. This module provides the small
// subset the layer needs: an ordered object/array value type and a
// serializer with stable key order (so emitted files diff cleanly across
// runs).

#ifndef FTX_SRC_OBS_JSON_H_
#define FTX_SRC_OBS_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace ftx_obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}                      // NOLINT
  Json(double d) : type_(Type::kNumber), number_(d) {}                // NOLINT
  Json(int64_t i) : type_(Type::kNumber), number_(static_cast<double>(i)), int_(i), is_int_(true) {}  // NOLINT
  Json(int i) : Json(static_cast<int64_t>(i)) {}                      // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}           // NOLINT

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
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  int64_t integer() const { return is_int_ ? int_ : static_cast<int64_t>(number_); }
  const std::string& str() const { return string_; }

  // --- object access (insertion-ordered) ---
  Json& Set(std::string key, Json value);  // returns *this for chaining
  // Appends a member whose key the caller knows is new, without Set's scan
  // of the earlier members (which makes n Sets quadratic).
  Json& AppendMember(std::string key, Json value);
  const Json* Find(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const { return members_; }

  // --- array access ---
  Json& Push(Json value);  // returns *this for chaining
  size_t size() const { return type_ == Type::kArray ? items_.size() : members_.size(); }
  const Json& at(size_t i) const { return items_[i]; }
  const std::vector<Json>& items() const { return items_; }

  // Serializes the value. indent == 0 emits compact one-line JSON;
  // indent > 0 pretty-prints with that many spaces per level.
  std::string Dump(int indent = 0) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  int64_t int_ = 0;
  bool is_int_ = false;
  std::string string_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

// Escapes a string for embedding in a JSON document (without quotes).
std::string JsonEscape(std::string_view s);

// Writes `content` to `path` atomically enough for our purposes (truncate +
// write + close), creating the file if needed.
ftx::Status WriteFileContents(const std::string& path, std::string_view content);

}  // namespace ftx_obs

#endif  // FTX_SRC_OBS_JSON_H_
