#include "src/serve/json.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace kms::serve {
namespace {

/// Nesting ceiling: the job wire format is two levels deep, so 64 is
/// generous headroom while keeping adversarial input away from the
/// thread stack.
constexpr int kMaxDepth = 64;

[[noreturn]] void fail_at(std::size_t pos, const std::string& what) {
  throw JsonError("json: " + what + " at byte " + std::to_string(pos));
}

void append_utf8(std::string* out, std::uint32_t cp) {
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

}  // namespace

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail_at(pos_, "trailing bytes after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail_at(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_lit(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value(int depth) {
    if (depth > kMaxDepth) fail_at(pos_, "nesting too deep");
    skip_ws();
    Json v;
    switch (peek()) {
      case '{': {
        v.kind_ = Json::Kind::kObject;
        ++pos_;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return v;
        }
        while (true) {
          skip_ws();
          if (peek() != '"') fail_at(pos_, "expected object key");
          std::string key = string_body();
          skip_ws();
          expect(':');
          v.obj_.emplace_back(std::move(key), value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.kind_ = Json::Kind::kArray;
        ++pos_;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return v;
        }
        while (true) {
          v.arr_.push_back(value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return v;
        }
      }
      case '"':
        v.kind_ = Json::Kind::kString;
        v.str_ = string_body();
        return v;
      case 't':
        if (!consume_lit("true")) fail_at(pos_, "bad literal");
        v.kind_ = Json::Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_lit("false")) fail_at(pos_, "bad literal");
        v.kind_ = Json::Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_lit("null")) fail_at(pos_, "bad literal");
        v.kind_ = Json::Kind::kNull;
        return v;
      default:
        return number();
    }
  }

  /// Reads a string assuming pos_ is at the opening quote.
  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail_at(pos_, "unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        const char e = peek();
        ++pos_;
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            std::uint32_t cp = hex4();
            // Surrogate pair: a high surrogate must be followed by an
            // escaped low surrogate; combine into one code point.
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                  text_[pos_ + 1] == 'u') {
                pos_ += 2;
                const std::uint32_t lo = hex4();
                if (lo < 0xDC00 || lo > 0xDFFF)
                  fail_at(pos_, "bad low surrogate");
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                fail_at(pos_, "unpaired surrogate");
              }
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              fail_at(pos_, "unpaired surrogate");
            }
            append_utf8(&out, cp);
            break;
          }
          default:
            fail_at(pos_ - 1, "bad escape");
        }
        continue;
      }
      if (c < 0x20) fail_at(pos_, "raw control character in string");
      out.push_back(static_cast<char>(c));
      ++pos_;
    }
  }

  std::uint32_t hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail_at(pos_ - 1, "bad \\u escape");
    }
    return v;
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (peek() >= '1' && peek() <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    } else {
      fail_at(pos_, "bad number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        fail_at(pos_, "bad fraction");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        fail_at(pos_, "bad exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    Json v;
    v.kind_ = Json::Kind::kNumber;
    v.str_ = std::string(text_.substr(start, pos_ - start));
    double d = 0.0;
    const auto res =
        std::from_chars(v.str_.data(), v.str_.data() + v.str_.size(), d);
    if (res.ec != std::errc()) fail_at(start, "unrepresentable number");
    v.num_ = d;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Json Json::parse(std::string_view text) { return Parser(text).run(); }

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError("json: expected bool");
  return bool_;
}

double Json::as_double() const {
  if (kind_ != Kind::kNumber) throw JsonError("json: expected number");
  return num_;
}

std::uint64_t Json::as_u64() const {
  if (kind_ != Kind::kNumber) throw JsonError("json: expected number");
  std::uint64_t v = 0;
  const auto res = std::from_chars(str_.data(), str_.data() + str_.size(), v);
  if (res.ec != std::errc() || res.ptr != str_.data() + str_.size())
    throw JsonError("json: expected unsigned integer, got '" + str_ + "'");
  return v;
}

std::int64_t Json::as_i64() const {
  if (kind_ != Kind::kNumber) throw JsonError("json: expected number");
  std::int64_t v = 0;
  const auto res = std::from_chars(str_.data(), str_.data() + str_.size(), v);
  if (res.ec != std::errc() || res.ptr != str_.data() + str_.size())
    throw JsonError("json: expected integer, got '" + str_ + "'");
  return v;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) throw JsonError("json: expected string");
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) throw JsonError("json: expected array");
  return arr_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (kind_ != Kind::kObject) throw JsonError("json: expected object");
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

std::string json_double(double v) {
  if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  std::string s(buf, res.ptr);
  // to_chars may emit bare integers ("3") — legal JSON already — and
  // never emits leading '+' or stray spaces, so the literal is clean.
  return s;
}

}  // namespace kms::serve
