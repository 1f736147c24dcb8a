#include "util/json.h"

#include <charconv>
#include <cmath>

#include "util/strings.h"

namespace flexvis {

namespace {

// Bounds of the doubles that convert to int64 without overflow: [-2^63, 2^63).
constexpr double kInt64Min = -9223372036854775808.0;
constexpr double kInt64End = 9223372036854775808.0;

}  // namespace

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Int(int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::Double(double d) {
  JsonValue v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

int64_t JsonValue::AsInt() const {
  if (!is_double()) return int_;
  if (double_ >= kInt64Min && double_ < kInt64End) return static_cast<int64_t>(double_);
  if (std::isnan(double_)) return 0;
  return double_ < 0 ? INT64_MIN : INT64_MAX;
}

void JsonValue::Append(JsonValue value) {
  kind_ = Kind::kArray;
  array_.push_back(std::move(value));
}

void JsonValue::Set(std::string key, JsonValue value) {
  kind_ = Kind::kObject;
  object_[std::move(key)] = std::move(value);
}

const JsonValue& JsonValue::Get(std::string_view key) const {
  static const JsonValue kNull;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? kNull : it->second;
}

bool JsonValue::Has(std::string_view key) const {
  return object_.find(std::string(key)) != object_.end();
}

Result<int64_t> JsonValue::GetInt(std::string_view key) const {
  const JsonValue& v = Get(key);
  if (!v.is_number()) {
    return InvalidArgumentError(StrFormat("JSON: missing or non-numeric field '%.*s'",
                                          static_cast<int>(key.size()), key.data()));
  }
  JsonNumber number{v.is_int(), v.int_, v.double_};
  int64_t value = 0;
  FLEXVIS_RETURN_IF_ERROR(number.ToIntField(key, &value));
  return value;
}

Result<double> JsonValue::GetDouble(std::string_view key) const {
  const JsonValue& v = Get(key);
  if (!v.is_number()) {
    return InvalidArgumentError(StrFormat("JSON: missing or non-numeric field '%.*s'",
                                          static_cast<int>(key.size()), key.data()));
  }
  return v.AsDouble();
}

Result<std::string> JsonValue::GetString(std::string_view key) const {
  const JsonValue& v = Get(key);
  if (!v.is_string()) {
    return InvalidArgumentError(StrFormat("JSON: missing or non-string field '%.*s'",
                                          static_cast<int>(key.size()), key.data()));
  }
  return v.AsString();
}

Result<bool> JsonValue::GetBool(std::string_view key) const {
  const JsonValue& v = Get(key);
  if (!v.is_bool()) {
    return InvalidArgumentError(StrFormat("JSON: missing or non-bool field '%.*s'",
                                          static_cast<int>(key.size()), key.data()));
  }
  return v.AsBool();
}

bool JsonNumber::ToInt(int64_t* out) const {
  if (is_int) {
    *out = int_value;
    return true;
  }
  if (!(double_value >= kInt64Min && double_value < kInt64End)) return false;
  const int64_t value = static_cast<int64_t>(double_value);
  if (static_cast<double>(value) != double_value) return false;  // fractional part
  *out = value;
  return true;
}

Status JsonNumber::ToIntField(std::string_view key, int64_t* out) const {
  if (ToInt(out)) return OkStatus();
  const bool in_range = double_value >= kInt64Min && double_value < kInt64End;
  const char* problem = in_range ? "not an integer" : "outside the int64 range";
  return InvalidArgumentError(StrFormat("JSON: field '%.*s' is %s", static_cast<int>(key.size()),
                                        key.data(), problem));
}

void AppendJsonInt(std::string* out, int64_t value) {
  char buffer[24];
  const std::to_chars_result r = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, r.ptr);
}

void AppendJsonDouble(std::string* out, double value) {
  if (!std::isfinite(value)) {
    *out += "null";  // JSON has no Inf/NaN
    return;
  }
  // %.17g: the longest output is "-2.2250738585072014e-308" (24 bytes).
  char buffer[32];
  const std::to_chars_result r = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                               std::chars_format::general, 17);
  out->append(buffer, r.ptr);
}

void AppendJsonString(std::string* out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out += '"';
  size_t plain = 0;  // start of the pending run that needs no escaping
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + plain, text.size() - plain);
  *out += '"';
}

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  const std::string pad = indent > 0 ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ')
                                     : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<size_t>(indent * depth), ' ') : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      AppendJsonInt(out, int_);
      break;
    case Kind::kDouble:
      AppendJsonDouble(out, double_);
      break;
    case Kind::kString:
      AppendJsonString(out, string_);
      break;
    case Kind::kArray: {
      *out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) *out += ',';
        *out += nl;
        *out += pad;
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) {
        *out += nl;
        *out += close_pad;
      }
      *out += ']';
      break;
    }
    case Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) *out += ',';
        first = false;
        *out += nl;
        *out += pad;
        AppendJsonString(out, key);
        *out += indent > 0 ? ": " : ":";
        value.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) {
        *out += nl;
        *out += close_pad;
      }
      *out += '}';
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, 0, 0);
  return out;
}

std::string JsonValue::Pretty() const {
  std::string out;
  DumpTo(&out, 2, 0);
  return out;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.kind_ != b.kind_) {
    // Ints and doubles with the same value compare equal.
    if (a.is_number() && b.is_number()) return a.AsDouble() == b.AsDouble();
    return false;
  }
  switch (a.kind_) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.bool_ == b.bool_;
    case JsonValue::Kind::kInt: return a.int_ == b.int_;
    case JsonValue::Kind::kDouble: return a.double_ == b.double_;
    case JsonValue::Kind::kString: return a.string_ == b.string_;
    case JsonValue::Kind::kArray: return a.array_ == b.array_;
    case JsonValue::Kind::kObject: return a.object_ == b.object_;
  }
  return false;
}

// ---- JsonReader -------------------------------------------------------------------

void JsonReader::SkipWhitespace() {
  // The C-locale isspace set: space, \t, \n, \v, \f, \r.
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && (c < '\t' || c > '\r')) break;
    ++pos_;
  }
}

bool JsonReader::Fail(const char* what) {
  if (status_.ok()) {
    status_ = InvalidArgumentError(StrFormat("JSON: %s at offset %zu", what, pos_));
  }
  return false;
}

bool JsonReader::Peek(Token* token) {
  if (!ok()) return false;
  SkipWhitespace();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  switch (text_[pos_]) {
    case '{': *token = Token::kObject; break;
    case '[': *token = Token::kArray; break;
    case '"': *token = Token::kString; break;
    case 't':
    case 'f': *token = Token::kBool; break;
    case 'n': *token = Token::kNull; break;
    default: *token = Token::kNumber; break;
  }
  return true;
}

bool JsonReader::ReadNull() {
  if (!ok()) return false;
  SkipWhitespace();
  if (text_.substr(pos_, 4) != "null") return Fail("invalid literal");
  pos_ += 4;
  return true;
}

bool JsonReader::ReadBool(bool* value) {
  if (!ok()) return false;
  SkipWhitespace();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    *value = true;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    *value = false;
    return true;
  }
  return Fail("invalid literal");
}

bool JsonReader::ReadNumber(JsonNumber* number) {
  if (!ok()) return false;
  SkipWhitespace();
  const size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  bool is_double = false;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c >= '0' && c <= '9') {
      ++pos_;
    } else if (c == '.' || c == 'e' || c == 'E') {
      is_double = true;
      ++pos_;
    } else if (c == '+' || c == '-') {
      ++pos_;  // only valid after e/E; from_chars validates the token in full
    } else {
      break;
    }
  }
  if (pos_ == start) return Fail("expected a value");
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  std::from_chars_result r;
  if (is_double) {
    number->is_int = false;
    r = std::from_chars(first, last, number->double_value, std::chars_format::general);
  } else {
    number->is_int = true;
    r = std::from_chars(first, last, number->int_value);
  }
  if (r.ec == std::errc::result_out_of_range) {
    pos_ = start;
    return Fail(is_double ? "number out of double range" : "integer out of int64 range");
  }
  if (r.ec != std::errc() || r.ptr != last) {
    pos_ = start;
    return Fail("malformed number");
  }
  return true;
}

bool JsonReader::ReadString(std::string_view* value) {
  if (!ok()) return false;
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected a string");
  const size_t start = ++pos_;
  // Fast path: no escapes, so the value is a view into the input.
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') ++pos_;
  if (pos_ >= text_.size()) return Fail("unterminated string");
  if (text_[pos_] == '"') {
    *value = text_.substr(start, pos_ - start);
    ++pos_;
    return true;
  }
  scratch_.assign(text_.data() + start, pos_ - start);
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') {
      *value = scratch_;
      return true;
    }
    if (c != '\\') {
      scratch_ += c;
      continue;
    }
    if (pos_ >= text_.size()) break;
    switch (text_[pos_++]) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return Fail("invalid \\u escape");
        }
        // UTF-8 encode (BMP only; surrogate pairs unsupported).
        if (code < 0x80) {
          scratch_ += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch_ += static_cast<char>(0xC0 | (code >> 6));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          scratch_ += static_cast<char>(0xE0 | (code >> 12));
          scratch_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default:
        return Fail("invalid escape");
    }
  }
  return Fail("unterminated string");
}

bool JsonReader::Enter(char open) {
  if (!ok()) return false;
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != open) {
    return Fail(open == '{' ? "expected an object" : "expected an array");
  }
  if (depth_ >= kJsonMaxDepth) return Fail("nesting deeper than 64 levels");
  ++depth_;
  ++pos_;
  first_ = true;
  return true;
}

bool JsonReader::Next(char close, const char* what) {
  if (!ok()) return false;
  SkipWhitespace();
  const bool first = first_;
  first_ = false;
  if (pos_ < text_.size() && text_[pos_] == close) {
    ++pos_;
    --depth_;
    return false;
  }
  if (first) return true;
  if (pos_ >= text_.size() || text_[pos_] != ',') return Fail(what);
  ++pos_;
  return true;
}

bool JsonReader::BeginObject() { return Enter('{'); }

bool JsonReader::NextMember(std::string_view* key) {
  if (!Next('}', "expected ',' or '}'")) return false;
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected object key");
  if (!ReadString(key)) return false;
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
  ++pos_;
  return true;
}

bool JsonReader::BeginArray() { return Enter('['); }

bool JsonReader::NextElement() { return Next(']', "expected ',' or ']'"); }

bool JsonReader::SkipValue() {
  Token token;
  if (!Peek(&token)) return false;
  switch (token) {
    case Token::kNull: return ReadNull();
    case Token::kBool: {
      bool b;
      return ReadBool(&b);
    }
    case Token::kNumber: {
      JsonNumber n;
      return ReadNumber(&n);
    }
    case Token::kString: {
      std::string_view s;
      return ReadString(&s);
    }
    case Token::kArray:
      if (!BeginArray()) return false;
      while (NextElement()) SkipValue();
      return ok();
    case Token::kObject: {
      if (!BeginObject()) return false;
      std::string_view key;
      while (NextMember(&key)) SkipValue();
      return ok();
    }
  }
  return ok();
}

bool JsonReader::Finish() {
  if (!ok()) return false;
  SkipWhitespace();
  if (pos_ != text_.size()) return Fail("trailing data");
  return true;
}

namespace {

bool ParseInto(JsonReader& reader, JsonValue* out) {
  JsonReader::Token token;
  if (!reader.Peek(&token)) return false;
  switch (token) {
    case JsonReader::Token::kNull:
      *out = JsonValue::Null();
      return reader.ReadNull();
    case JsonReader::Token::kBool: {
      bool b = false;
      if (!reader.ReadBool(&b)) return false;
      *out = JsonValue::Bool(b);
      return true;
    }
    case JsonReader::Token::kNumber: {
      JsonNumber n;
      if (!reader.ReadNumber(&n)) return false;
      *out = n.is_int ? JsonValue::Int(n.int_value) : JsonValue::Double(n.double_value);
      return true;
    }
    case JsonReader::Token::kString: {
      std::string_view s;
      if (!reader.ReadString(&s)) return false;
      *out = JsonValue::Str(std::string(s));
      return true;
    }
    case JsonReader::Token::kArray: {
      *out = JsonValue::Array();
      if (!reader.BeginArray()) return false;
      while (reader.NextElement()) {
        JsonValue element;
        if (!ParseInto(reader, &element)) return false;
        out->Append(std::move(element));
      }
      return reader.ok();
    }
    case JsonReader::Token::kObject: {
      *out = JsonValue::Object();
      if (!reader.BeginObject()) return false;
      std::string_view key_view;
      while (reader.NextMember(&key_view)) {
        std::string key(key_view);  // the view dies with the next read
        JsonValue value;
        if (!ParseInto(reader, &value)) return false;
        out->Set(std::move(key), std::move(value));
      }
      return reader.ok();
    }
  }
  return false;
}

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonReader reader(text);
  JsonValue value;
  if (!ParseInto(reader, &value) || !reader.Finish()) return reader.status();
  return value;
}

}  // namespace flexvis
