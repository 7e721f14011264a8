#include "util/args.hpp"

#include <charconv>

#include "util/check.hpp"

namespace ethshard::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--flag value" unless the next token is another flag (then it is a
    // boolean switch).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[i + 1];
      ++i;
    } else {
      flags_[body] = "";
    }
  }
}

std::optional<std::string> ArgParser::raw(const std::string& name) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

bool ArgParser::has(const std::string& name) const {
  return raw(name).has_value();
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(v->data(), v->data() + v->size(), out);
  ETHSHARD_INPUT_CHECK(ec == std::errc{} && ptr == v->data() + v->size(),
                       "flag --" << name << ": bad integer '" << *v << "'");
  return out;
}

std::uint64_t ArgParser::get_uint(const std::string& name,
                                  std::uint64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(v->data(), v->data() + v->size(), out);
  ETHSHARD_INPUT_CHECK(ec == std::errc{} && ptr == v->data() + v->size(),
                       "flag --" << name << ": bad integer '" << *v << "'");
  return out;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  ETHSHARD_INPUT_CHECK(!v->empty(), "flag --" << name << ": empty value");
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  ETHSHARD_INPUT_CHECK(end == v->c_str() + v->size(),
                       "flag --" << name << ": bad number '" << *v << "'");
  return out;
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  if (v->empty() || *v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  ETHSHARD_INPUT_CHECK(false, "flag --" << name << ": bad boolean '" << *v
                                        << "'");
  return fallback;
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_)
    if (!queried_.contains(name)) out.push_back(name);
  return out;
}

}  // namespace ethshard::util
