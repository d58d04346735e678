#ifndef CPDBENCH_MINIJSON_H_
#define CPDBENCH_MINIJSON_H_

// A small JSON reader of the benchmark's own, plus the two value writers
// its output needs. Responses of the program under test are parsed here
// rather than with the program's codec, so a codec fault cannot hide
// behind a matching fault in the checker. Numbers go through strtod, which
// rounds correctly, so a double printed with round-trip precision parses
// back to the same bits.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bench {

struct JVal {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;

  bool is_num() const { return kind == kNum; }
  bool is_arr() const { return kind == kArr; }
  /// Member of an object, or nullptr (also for non-objects).
  const JVal* get(std::string_view key) const;
};

/// Parses one complete JSON text; false with `error` set on any defect,
/// including trailing bytes.
bool ParseJson(std::string_view text, JVal* out, std::string* error);

/// Appends `s` as a quoted JSON string.
void AppendJsonString(std::string* out, std::string_view s);
/// Appends a double with round-trip precision ("%.17g"; non-finite as null).
void AppendJsonNumber(std::string* out, double v);

}  // namespace bench

#endif  // CPDBENCH_MINIJSON_H_
