#include "src/obs/json.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/check.h"

namespace ftx_obs {

Json& Json::Set(std::string key, Json value) {
  FTX_CHECK_MSG(type_ == Type::kObject, "Json::Set on a non-object");
  for (auto& [existing, v] : members_) {
    if (existing == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::AppendMember(std::string key, Json value) {
  FTX_CHECK_MSG(type_ == Type::kObject, "Json::AppendMember on a non-object");
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Json& Json::Push(Json value) {
  FTX_CHECK_MSG(type_ == Type::kArray, "Json::Push on a non-array");
  items_.push_back(std::move(value));
  return *this;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

void AppendNumber(std::string* out, double number, int64_t integer, bool is_int) {
  char buf[40];
  if (is_int) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, integer);
  } else if (std::isfinite(number)) {
    // Shortest representation that round-trips a double.
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    double reparsed = 0;
    std::sscanf(buf, "%lf", &reparsed);
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[40];
      std::snprintf(shorter, sizeof(shorter), "%.*g", precision, number);
      std::sscanf(shorter, "%lf", &reparsed);
      if (reparsed == number) {
        std::memcpy(buf, shorter, sizeof(shorter));
        break;
      }
    }
  } else {
    std::snprintf(buf, sizeof(buf), "null");  // JSON has no inf/nan
  }
  *out += buf;
}

void Newline(std::string* out, int indent, int depth) {
  if (indent > 0) {
    *out += '\n';
    out->append(static_cast<size_t>(indent * depth), ' ');
  }
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      AppendNumber(out, number_, int_, is_int_);
      return;
    case Type::kString:
      *out += '"';
      *out += JsonEscape(string_);
      *out += '"';
      return;
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        return;
      }
      *out += '{';
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) {
          *out += ',';
        }
        first = false;
        Newline(out, indent, depth + 1);
        *out += '"';
        *out += JsonEscape(key);
        *out += indent > 0 ? "\": " : "\":";
        value.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      *out += '}';
      return;
    }
    case Type::kArray: {
      if (items_.empty()) {
        *out += "[]";
        return;
      }
      *out += '[';
      bool first = true;
      for (const Json& value : items_) {
        if (!first) {
          *out += ',';
        }
        first = false;
        Newline(out, indent, depth + 1);
        value.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      *out += ']';
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

ftx::Status WriteFileContents(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return ftx::UnavailableError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int close_result = std::fclose(f);
  if (written != content.size() || close_result != 0) {
    return ftx::UnavailableError("short write to " + path);
  }
  return ftx::Status::Ok();
}

}  // namespace ftx_obs
