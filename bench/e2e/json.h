#ifndef CADRL_BENCH_E2E_JSON_H_
#define CADRL_BENCH_E2E_JSON_H_

// A minimal JSON reader for the benchmark's own inputs: BENCHMARK.json and
// the JSON lines earlier runs printed (the compare subcommand and the
// smoke test's metric check). Numbers are doubles; strings keep their
// escapes decoded only for \" \\ \/ \n \t (enough for those files).

#include <cctype>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cadrl {
namespace e2e {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Find(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::string StringOr(std::string_view key, std::string fallback) const {
    const Json* v = Find(key);
    return v != nullptr && v->type == Type::kString ? v->str : fallback;
  }
  double NumberOr(std::string_view key, double fallback) const {
    const Json* v = Find(key);
    return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  // Parses one complete value; false on any syntax error or trailing text.
  bool Parse(Json* out) {
    if (!Value(out, 0)) return false;
    Skip();
    return i_ == s_.size();
  }

 private:
  void Skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Eat(char c) {
    Skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        c = s_[i_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
      }
      out->push_back(c);
    }
    return Eat('"');
  }
  bool Value(Json* out, int depth) {
    if (depth > 32) return false;
    Skip();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      out->type = Json::Type::kObject;
      if (Eat('}')) return true;
      do {
        std::string key;
        Json value;
        if (!String(&key) || !Eat(':') || !Value(&value, depth + 1)) {
          return false;
        }
        out->fields.emplace_back(std::move(key), std::move(value));
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      ++i_;
      out->type = Json::Type::kArray;
      if (Eat(']')) return true;
      do {
        Json value;
        if (!Value(&value, depth + 1)) return false;
        out->items.push_back(std::move(value));
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->str);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    const std::string rest(s_.substr(i_, 64));
    char* end = nullptr;
    out->number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    out->type = Json::Type::kNumber;
    i_ += static_cast<size_t>(end - rest.c_str());
    return true;
  }

  std::string_view s_;
  size_t i_ = 0;
};

}  // namespace e2e
}  // namespace cadrl

#endif  // CADRL_BENCH_E2E_JSON_H_
