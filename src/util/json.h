#ifndef FLEXVIS_UTIL_JSON_H_
#define FLEXVIS_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace flexvis {

/// Deepest container nesting the parser accepts. flexvis itself writes at
/// most 4 levels (message envelope > payload > profile > slice); the bound
/// keeps hostile input from exhausting the stack.
inline constexpr int kJsonMaxDepth = 64;

/// A minimal JSON document model (RFC 8259 subset: no surrogate-pair \u
/// escapes beyond the BMP, numbers parsed as double or int64). Used for
/// manifests, journal records and scenario specs; flex-offer records and
/// message envelopes, the bulk of every warehouse, checkpoint and wire
/// stream, go through JsonReader and the AppendJson* writers instead
/// (core/messages).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  /// Null by default.
  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Int(int64_t i);
  static JsonValue Double(double d);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; preconditions per the is_* predicates. AsInt truncates
  /// a double toward zero and saturates outside the int64 range (GetInt
  /// rejects such values instead).
  bool AsBool() const { return bool_; }
  int64_t AsInt() const;
  double AsDouble() const { return is_int() ? static_cast<double>(int_) : double_; }
  const std::string& AsString() const { return string_; }

  /// Array access.
  size_t size() const { return array_.size(); }
  const JsonValue& operator[](size_t index) const { return array_[index]; }
  void Append(JsonValue value);

  /// Object access. Get returns null for absent keys; Find reports absence.
  void Set(std::string key, JsonValue value);
  const JsonValue& Get(std::string_view key) const;
  bool Has(std::string_view key) const;
  const std::map<std::string, JsonValue>& items() const { return object_; }

  /// Checked object field readers used by message decoding: error on a
  /// missing key or a kind mismatch. GetInt also rejects a double with a
  /// fractional part or outside the int64 range (an integral double such as
  /// 1e3 reads).
  Result<int64_t> GetInt(std::string_view key) const;
  Result<double> GetDouble(std::string_view key) const;
  Result<std::string> GetString(std::string_view key) const;
  Result<bool> GetBool(std::string_view key) const;

  /// Compact serialization (no whitespace). `Pretty` indents with 2 spaces.
  std::string Dump() const;
  std::string Pretty() const;

  /// Parses a JSON document. The whole input must be consumed (trailing
  /// non-whitespace is an error).
  static Result<JsonValue> Parse(std::string_view text);

  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Append-style writers producing exactly the bytes JsonValue::Dump writes:
/// integers as %lld, doubles as %.17g (non-finite values as `null`), strings
/// quoted and escaped.
void AppendJsonInt(std::string* out, int64_t value);
void AppendJsonDouble(std::string* out, double value);
void AppendJsonString(std::string* out, std::string_view text);

/// One number token. A token without '.', 'e' or 'E' is an integer (so "-0"
/// reads back as integer 0); anything else is a finite double.
struct JsonNumber {
  bool is_int = false;
  int64_t int_value = 0;
  double double_value = 0.0;

  double AsDouble() const { return is_int ? static_cast<double>(int_value) : double_value; }
  /// The integer value; false when a double has a fractional part or lies
  /// outside the int64 range (an integral double such as 1e3 converts).
  bool ToInt(int64_t* out) const;
  /// ToInt as the reading of object field `key`: kInvalidArgument naming the
  /// field when the number is not an integer or lies outside the int64 range.
  Status ToIntField(std::string_view key, int64_t* out) const;
};

/// Pull tokenizer over one JSON document: the caller asks for the value it
/// expects next and walks containers with BeginObject/NextMember and
/// BeginArray/NextElement. It accepts exactly the text JsonValue::Parse
/// accepts (JsonValue::Parse is built on it). Numbers are validated in full,
/// integers must fit int64, doubles must be finite, and nesting deeper than
/// kJsonMaxDepth is rejected.
///
/// Errors are sticky: every method returns false on a syntax error, records
/// it in status() and keeps returning false. NextMember and NextElement
/// also return false, with ok() still true, at the container's end.
class JsonReader {
 public:
  enum class Token { kNull, kBool, kNumber, kString, kArray, kObject };

  explicit JsonReader(std::string_view text) : text_(text) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Classifies the next value by its first character.
  bool Peek(Token* token);

  bool ReadNull();
  bool ReadBool(bool* value);
  bool ReadNumber(JsonNumber* number);
  /// The unescaped string; the view stays valid until the next call.
  bool ReadString(std::string_view* value);

  bool BeginObject();
  /// Moves to the next member and reads its key (valid until the next
  /// call); the caller then reads or skips the member's value.
  bool NextMember(std::string_view* key);
  bool BeginArray();
  /// Moves to the next element; the caller then reads or skips it.
  bool NextElement();

  /// Validates and discards the next value, containers included.
  bool SkipValue();
  /// Requires that only whitespace remains.
  bool Finish();

  /// Byte offset of the next unread character.
  size_t offset() const { return pos_; }

 private:
  void SkipWhitespace();
  bool Fail(const char* what);
  bool Enter(char open);
  bool Next(char close, const char* what);

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  bool first_ = false;  // no member/element read yet in the open container
  std::string scratch_;
  Status status_;
};

}  // namespace flexvis

#endif  // FLEXVIS_UTIL_JSON_H_
