#include "src/obs/json.h"

#include <cctype>
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

// --- parser ---

namespace {

struct Parser {
  std::string_view text;
  size_t pos = 0;
  std::string error;

  bool Fail(const std::string& message) {
    char where[48];
    std::snprintf(where, sizeof(where), " at offset %zu", pos);
    error = message + where;
    return false;
  }

  void SkipWhitespace() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
                                 text[pos] == '\r')) {
      ++pos;
    }
  }

  bool Consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool ParseValue(Json* out) {
    SkipWhitespace();
    if (pos >= text.size()) {
      return Fail("unexpected end of input");
    }
    char c = text[pos];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) {
        return false;
      }
      *out = Json(std::move(s));
      return true;
    }
    if (c == 't' && text.substr(pos, 4) == "true") {
      pos += 4;
      *out = Json(true);
      return true;
    }
    if (c == 'f' && text.substr(pos, 5) == "false") {
      pos += 5;
      *out = Json(false);
      return true;
    }
    if (c == 'n' && text.substr(pos, 4) == "null") {
      pos += 4;
      *out = Json();
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return Fail("expected '\"'");
    }
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos >= text.size()) {
        return Fail("dangling escape");
      }
      char esc = text[pos++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos + 4 > text.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // UTF-8 encode (surrogate pairs are not needed by our emitters).
          if (value < 0x80) {
            *out += static_cast<char>(value);
          } else if (value < 0x800) {
            *out += static_cast<char>(0xC0 | (value >> 6));
            *out += static_cast<char>(0x80 | (value & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (value >> 12));
            *out += static_cast<char>(0x80 | ((value >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (value & 0x3F));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Json* out) {
    size_t start = pos;
    if (Consume('-')) {
    }
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    bool is_int = true;
    if (pos < text.size() && (text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E')) {
      is_int = false;
      if (Consume('.')) {
        while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
          ++pos;
        }
      }
      if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
        ++pos;
        if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) {
          ++pos;
        }
        while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
          ++pos;
        }
      }
    }
    if (pos == start || (pos == start + 1 && text[start] == '-')) {
      return Fail("expected a value");
    }
    std::string token(text.substr(start, pos - start));
    if (is_int) {
      *out = Json(static_cast<int64_t>(std::strtoll(token.c_str(), nullptr, 10)));
    } else {
      *out = Json(std::strtod(token.c_str(), nullptr));
    }
    return true;
  }

  bool ParseObject(Json* out) {
    Consume('{');
    *out = Json::Object();
    SkipWhitespace();
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      Json value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(Json* out) {
    Consume('[');
    *out = Json::Array();
    SkipWhitespace();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      Json value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->Push(std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }
};

}  // namespace

bool Json::Parse(std::string_view text, Json* out, std::string* error) {
  Parser parser{text, 0, {}};
  if (!parser.ParseValue(out)) {
    if (error != nullptr) {
      *error = parser.error;
    }
    return false;
  }
  parser.SkipWhitespace();
  if (parser.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing characters after document";
    }
    return false;
  }
  return true;
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
