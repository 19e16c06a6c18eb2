#pragma once

/// \file error.hpp
/// Error types and precondition checking used across all hmcs libraries.
///
/// The library reports user-facing configuration problems with
/// hmcs::ConfigError and internal invariant violations with
/// hmcs::LogicError. HMCS_REQUIRE is used at public API boundaries where
/// the failure is attributable to the caller's input; it always throws
/// (never compiled out) because every caller of this library is a
/// modelling tool where a silently wrong configuration is worse than an
/// exception.

#include <concepts>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace hmcs {

/// Base class for all exceptions thrown by the hmcs libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// An invalid user-supplied configuration (bad parameter values,
/// inconsistent system description, unstable queueing inputs, ...).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// An internal invariant was violated; indicates a bug in hmcs itself.
class LogicError : public Error {
 public:
  explicit LogicError(const std::string& what) : Error(what) {}
};

/// A cooperative wall-clock deadline expired (util::CancelToken). The
/// sweep runner maps this to CellStatus::kTimedOut rather than a
/// failure: the configuration may be fine, it just did not finish in
/// the time budget.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Execution was cancelled from outside (SIGINT, a parent token). The
/// interrupted work is incomplete, not wrong; the sweep runner leaves
/// such cells kSkipped so a resumed run re-executes them.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_config_error(
    std::string_view message, const std::source_location& loc) {
  throw ConfigError(std::string(loc.file_name()) + ":" +
                    std::to_string(loc.line()) + ": " + std::string(message));
}

[[noreturn]] inline void throw_logic_error(
    std::string_view message, const std::source_location& loc) {
  throw LogicError(std::string(loc.file_name()) + ":" +
                   std::to_string(loc.line()) + ": " + std::string(message));
}

}  // namespace detail

/// Validates a caller-supplied precondition; throws ConfigError on failure.
inline void require(bool condition, std::string_view message,
                    const std::source_location& loc =
                        std::source_location::current()) {
  if (!condition) detail::throw_config_error(message, loc);
}

/// require with a message callable, called only on failure. A check that
/// runs per sweep point, per solve or per JSON lookup uses this form,
/// so a passing check builds no message string.
template <std::invocable Message>
void require(bool condition, Message&& message,
             const std::source_location& loc =
                 std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_config_error(std::forward<Message>(message)(), loc);
  }
}

/// Checks an internal invariant; throws LogicError on failure.
inline void ensure(bool condition, std::string_view message,
                   const std::source_location& loc =
                       std::source_location::current()) {
  if (!condition) detail::throw_logic_error(message, loc);
}

/// ensure with a message callable, called only on failure.
template <std::invocable Message>
void ensure(bool condition, Message&& message,
            const std::source_location& loc =
                std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_logic_error(std::forward<Message>(message)(), loc);
  }
}

}  // namespace hmcs
