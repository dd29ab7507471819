// Invariant-check macros with contextual logging.
//
// MENDEL_CHECK(cond, msg)   — always compiled. On failure, logs the
//                             expression, location, and a streamed context
//                             message (node id, block id, ...) at error
//                             level, then throws mendel::CheckError.
// MENDEL_DCHECK(cond, msg)  — compiled only in checked builds
//                             (-DMENDEL_CHECKED=ON); otherwise the
//                             condition and message are not evaluated.
//
// Use MENDEL_CHECK for internal invariants whose violation means the
// process state is corrupt (placement drift, structure corruption,
// protocol round-trip mismatch), and MENDEL_DCHECK for per-element checks
// too hot to pay for in release builds. Precondition validation of caller
// input stays on mendel::require() / InvalidArgument.
//
// The failure is thrown (not abort()) so the actor runtimes can surface it
// through SocketTransport::handler_errors() instead of tearing down every
// dispatch thread mid-test; the log line is still emitted first, so the context
// survives even if the exception is swallowed.
//
// The message argument is a stream expression:
//
//   MENDEL_CHECK(slot < arena_.size(),
//                "node " << id_ << ": block slot " << slot << " out of "
//                        << arena_.size());
#pragma once

#include <sstream>
#include <string>

#include "src/common/error.h"
#include "src/common/logging.h"

namespace mendel {

// A MENDEL_CHECK failed: an internal invariant does not hold.
class CheckError : public Error {
 public:
  explicit CheckError(const std::string& what) : Error(what) {}
};

namespace detail {

// Ostream adapter so the macro's message argument can chain << without a
// named temporary.
class CheckStream {
 public:
  template <typename T>
  CheckStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }
  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

[[noreturn]] inline void check_failed(const char* file, int line,
                                      const char* expr,
                                      const std::string& context) {
  std::ostringstream out;
  out << "CHECK failed: " << expr << " at " << file << ":" << line;
  if (!context.empty()) out << " — " << context;
  const std::string what = out.str();
  log_line(LogLevel::kError, what);
  throw CheckError(what);
}

}  // namespace detail
}  // namespace mendel

// The message argument is a `<<` chain, so it cannot be parenthesized.
// NOLINTBEGIN(bugprone-macro-parentheses)
#define MENDEL_CHECK(cond, msg)                                        \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::mendel::detail::check_failed(                                  \
          __FILE__, __LINE__, #cond,                                   \
          (::mendel::detail::CheckStream() << msg).str());             \
    }                                                                  \
  } while (0)

#ifdef MENDEL_CHECKED
#define MENDEL_DCHECK(cond, msg) MENDEL_CHECK(cond, msg)
#else
#define MENDEL_DCHECK(cond, msg) \
  do {                           \
  } while (0)
#endif
// NOLINTEND(bugprone-macro-parentheses)
