// Lightweight runtime checking helpers.
//
// ETHSHARD_CHECK is used for precondition/invariant validation in library
// code. Violations throw std::logic_error (they indicate a programming
// error, not an environmental failure), carrying the failed expression and
// source location.
//
// ETHSHARD_INPUT_CHECK validates input from outside the program instead:
// command-line flags, strategy specs, trace files. Violations throw
// InputError, whose message names the problem and nothing else.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace ethshard::util {

/// Thrown when a library precondition or internal invariant is violated.
class CheckFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when user input is malformed or names something that does not
/// exist. The message is meant for the user: no expression, no source
/// location.
class InputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str());
}
}  // namespace detail

}  // namespace ethshard::util

/// Validate a condition; throws ethshard::util::CheckFailure on violation.
#define ETHSHARD_CHECK(expr)                                                \
  do {                                                                      \
    if (!(expr))                                                            \
      ::ethshard::util::detail::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

/// Validate a condition with an explanatory message (streamed-in string).
#define ETHSHARD_CHECK_MSG(expr, msg)                                       \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream os_;                                               \
      os_ << msg;                                                           \
      ::ethshard::util::detail::check_failed(#expr, __FILE__, __LINE__,     \
                                             os_.str());                    \
    }                                                                       \
  } while (0)

/// Validate user input; throws ethshard::util::InputError carrying only the
/// streamed-in message.
#define ETHSHARD_INPUT_CHECK(expr, msg)                                     \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream os_;                                               \
      os_ << msg;                                                           \
      throw ::ethshard::util::InputError(os_.str());                        \
    }                                                                       \
  } while (0)
