#include "core/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core::json {

namespace {

/// Deepest array/object nesting accepted. The documents this repo writes
/// nest a handful of levels; the bound keeps a hostile input from
/// recursing the parser off the end of the stack.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    PARATICK_CHECK_MSG(i_ == s_.size(), "json: trailing garbage after document");
    return v;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }

  char peek() {
    skip_ws();
    PARATICK_CHECK_MSG(i_ < s_.size(), "json: unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    PARATICK_CHECK_MSG(peek() == c, "json: unexpected character");
    ++i_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s_.compare(i_, len, lit) != 0) return false;
    i_ += len;
    return true;
  }

  Value value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxDepth) {
        const std::string msg = "json: arrays/objects nested more than " +
                                std::to_string(kMaxDepth) + " deep";
        PARATICK_CHECK_MSG(false, msg.c_str());
      }
      Value v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    switch (c) {
      case '"': return string();
      case 't':
      case 'f': return literal();
      case 'n': return s_.compare(i_, 4, "null") == 0 ? literal() : number();
      default: return number();
    }
  }

  Value literal() {
    Value v;
    if (consume_literal("true")) {
      v.type = Value::Type::kBool;
      v.boolean = true;
    } else if (consume_literal("false")) {
      v.type = Value::Type::kBool;
    } else if (consume_literal("null")) {
      v.type = Value::Type::kNull;
    } else {
      PARATICK_CHECK_MSG(false, "json: bad literal");
    }
    return v;
  }

  Value number() {
    const char* start = s_.c_str() + i_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    PARATICK_CHECK_MSG(end != start, "json: bad number");
    i_ += static_cast<std::size_t>(end - start);
    Value v;
    v.type = Value::Type::kNumber;
    v.number = d;
    return v;
  }

  Value string() {
    expect('"');
    Value v;
    v.type = Value::Type::kString;
    while (true) {
      PARATICK_CHECK_MSG(i_ < s_.size(), "json: unterminated string");
      const char c = s_[i_++];
      if (c == '"') break;
      if (c != '\\') {
        v.str += c;
        continue;
      }
      PARATICK_CHECK_MSG(i_ < s_.size(), "json: unterminated escape");
      const char esc = s_[i_++];
      switch (esc) {
        case '"': v.str += '"'; break;
        case '\\': v.str += '\\'; break;
        case '/': v.str += '/'; break;
        case 'n': v.str += '\n'; break;
        case 'r': v.str += '\r'; break;
        case 't': v.str += '\t'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'u': {
          PARATICK_CHECK_MSG(i_ + 4 <= s_.size(), "json: bad \\u escape");
          for (std::size_t k = i_; k < i_ + 4; ++k) {
            PARATICK_CHECK_MSG(std::isxdigit(static_cast<unsigned char>(s_[k])),
                               "json: \\u escape needs four hex digits");
          }
          const unsigned long code = std::strtoul(s_.substr(i_, 4).c_str(), nullptr, 16);
          i_ += 4;
          // Exporter strings are ASCII control chars at most; encode the
          // BMP code point as UTF-8 for completeness.
          if (code < 0x80) {
            v.str += static_cast<char>(code);
          } else if (code < 0x800) {
            v.str += static_cast<char>(0xC0 | (code >> 6));
            v.str += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            v.str += static_cast<char>(0xE0 | (code >> 12));
            v.str += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            v.str += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: PARATICK_CHECK_MSG(false, "json: unknown escape");
      }
    }
    return v;
  }

  Value array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    if (peek() == ']') {
      ++i_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      const char c = peek();
      ++i_;
      if (c == ']') break;
      PARATICK_CHECK_MSG(c == ',', "json: expected ',' or ']' in array");
    }
    return v;
  }

  Value object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    if (peek() == '}') {
      ++i_;
      return v;
    }
    while (true) {
      Value key = string();
      expect(':');
      v.object.emplace_back(std::move(key.str), value());
      const char c = peek();
      ++i_;
      if (c == '}') break;
      PARATICK_CHECK_MSG(c == ',', "json: expected ',' or '}' in object");
    }
    return v;
  }

  const std::string& s_;
  int depth_ = 0;

 public:
  std::size_t i_ = 0;
};

}  // namespace

Value parse(const std::string& text) {
  Parser parser(text);
  try {
    return parser.parse();
  } catch (const sim::SimError& e) {
    // Re-throw with the byte offset where parsing stopped: for a corrupt
    // multi-megabyte partial snapshot, "json: bad number" alone is not
    // actionable — "at byte offset 1048241" pins the torn write.
    const std::string msg =
        e.msg() + " (at byte offset " + std::to_string(parser.i_) + " of " +
        std::to_string(text.size()) + ")";
    throw sim::SimError(e.kind(), e.expr(), e.file(), e.line(), msg,
                        e.sim_time(), e.events_executed());
  }
}

double num_field(const Value& obj, const char* key, double fallback) {
  const Value* v = obj.find(key);
  if (v == nullptr || v->type != Value::Type::kNumber) return fallback;
  return v->number;
}

void check_integer(double v, int digits, bool is_signed, const char* what) {
  const double bound = std::ldexp(1.0, digits);
  if (std::isfinite(v) && v == std::trunc(v) && v >= (is_signed ? -bound : 0.0) &&
      v < bound) {
    return;
  }
  char num[32];
  std::snprintf(num, sizeof num, "%.17g", v);
  const std::string msg = std::string("json: field \"") + what +
                          "\" is not a valid " + (is_signed ? "" : "non-negative ") +
                          std::to_string(digits + (is_signed ? 1 : 0)) +
                          "-bit integer: " + num;
  PARATICK_CHECK_MSG(false, msg.c_str());
}

std::string str_field(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr || v->type != Value::Type::kString) {
    const std::string msg = std::string("json: missing string field \"") + key + "\"";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  return v->str;
}

}  // namespace paratick::core::json
