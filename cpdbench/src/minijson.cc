#include "minijson.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace bench {

const JVal* JVal::get(std::string_view key) const {
  if (kind != kObj) return nullptr;
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool Parse(JVal* out, std::string* error) {
    if (!Value(out, 0)) {
      *error = error_ + " at byte " + std::to_string(pos_);
      return false;
    }
    SkipSpace();
    if (pos_ != s_.size()) {
      *error = "trailing bytes at " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool Fail(const char* what) {
    error_ = what;
    return false;
  }
  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool Value(JVal* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->kind = JVal::kStr;
      return String(&out->str);
    }
    if (c == 't') {
      out->kind = JVal::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JVal::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = JVal::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  bool Number(JVal* out) {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool digits = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          ((c == '+' || c == '-') && (s_[pos_ - 1] == 'e' || s_[pos_ - 1] == 'E'))) {
        digits = digits || (c >= '0' && c <= '9');
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) return Fail("bad number");
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out->kind = JVal::kNum;
    out->num = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("bad number");
    return true;
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool Hex4(uint32_t* cp) {
    if (pos_ + 4 > s_.size()) return Fail("short \\u escape");
    *cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      *cp <<= 4;
      if (c >= '0' && c <= '9') {
        *cp |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        *cp |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        *cp |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("bad \\u escape");
      }
    }
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return Fail("control char");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          if (!Hex4(&cp)) return false;
          if (cp >= 0xD800 && cp < 0xDC00) {
            uint32_t lo = 0;
            if (s_.substr(pos_, 2) != "\\u") return Fail("lone surrogate");
            pos_ += 2;
            if (!Hex4(&lo) || lo < 0xDC00 || lo > 0xDFFF) {
              return Fail("bad surrogate pair");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Array(JVal* out, int depth) {
    ++pos_;
    out->kind = JVal::kArr;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out->arr.emplace_back();
      if (!Value(&out->arr.back(), depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return Fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected , or ]");
    }
  }

  bool Object(JVal* out, int depth) {
    ++pos_;
    out->kind = JVal::kObj;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected key");
      std::string key;
      if (!String(&key)) return false;
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected :");
      ++pos_;
      out->obj.emplace_back(std::move(key), JVal());
      if (!Value(&out->obj.back().second, depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return Fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected , or }");
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(std::string_view text, JVal* out, std::string* error) {
  *out = JVal();
  return Parser(text).Parse(out, error);
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

}  // namespace bench
