#include "pnc/serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace pnc::serve {

namespace {

[[noreturn]] void fail_at(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json: " + what + " at byte " + std::to_string(pos));
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail_at(pos_, "trailing characters");
    return value;
  }

 private:
  char peek() {
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail_at(pos_ - 1, std::string("expected '") + c + "'");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail_at(pos_, "bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail_at(pos_, "bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail_at(pos_, "bad literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.type_ = JsonValue::Type::kBool;
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_[std::move(key)] = parse_value();
      skip_ws();
      char c = take();
      if (c == '}') return v;
      if (c != ',') fail_at(pos_ - 1, "expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') return v;
      if (c != ',') fail_at(pos_ - 1, "expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      char esc = take();
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail_at(pos_ - 1, "bad \\u escape");
            }
          }
          if (code > 0xFF) fail_at(pos_, "\\u escape beyond Latin-1");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail_at(pos_ - 1, "bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || end != last || start == pos_) {
      fail_at(start, "bad number");
    }
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  return array_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto found = object_.find(key);
  return found == object_.end() ? nullptr : &found->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->type_ == Type::kNumber ? v->number_ : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v && v->type_ == Type::kString ? v->string_ : fallback;
}

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).run();
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
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
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace pnc::serve
