#pragma once

// Executable invariant contracts (correctness tooling, DESIGN.md §8).
//
// The paper's correctness argument rests on invariants the code used to
// check only by example: rank mass is conserved across the chaotic
// iteration (§3.3), the Chord ring stays routable under churn (§2.4.2),
// per-edge delivery stays exactly-once through the ReliableChannel, and
// the parallel pass engine merges shards deterministically. This header
// turns those statements into contracts:
//
//   DPRANK_ASSERT(cond, subsystem, msg)      cheap precondition checks
//   DPRANK_INVARIANT(cond, subsystem, msg)   structural validate() checks
//
// Both evaluate `cond` only when DPRANK_CHECK_INVARIANTS is compiled in
// (CMake option of the same name; default ON for every build type except
// Release) and compile to nothing otherwise, so release binaries pay
// zero cost. `msg` is any expression convertible to std::string and is
// evaluated lazily, only on failure.
//
// A failing contract throws ContractViolation carrying a structured
// report — subsystem, stringified expression, file:line, and the
// caller's message — so tests can assert that a deliberately corrupted
// structure is caught by the *right* checker, and a crashing run names
// the broken subsystem instead of dying on a downstream symptom.

#include <stdexcept>
#include <string>

namespace dprank::contracts {

/// Thrown by a failing DPRANK_ASSERT / DPRANK_INVARIANT. what() carries
/// the full structured message; the fields are kept for test assertions.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(std::string subsystem, std::string expression,
                    const char* file, int line, std::string message);

  [[nodiscard]] const std::string& subsystem() const { return subsystem_; }
  [[nodiscard]] const std::string& expression() const { return expression_; }
  [[nodiscard]] const std::string& file() const { return file_; }
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  std::string subsystem_;
  std::string expression_;
  std::string file_;
  int line_;
  std::string message_;
};

/// Build the report and throw ContractViolation. Out-of-line so the
/// macro's failure path stays cold in the caller.
[[noreturn]] void fail(const char* subsystem, const char* expression,
                       const char* file, int line,
                       const std::string& message);

/// True when invariant checking was compiled in — lets the CLI and tests
/// tell the user whether --check-invariants can actually check anything.
[[nodiscard]] constexpr bool enabled() {
#if defined(DPRANK_CHECK_INVARIANTS) && DPRANK_CHECK_INVARIANTS
  return true;
#else
  return false;
#endif
}

}  // namespace dprank::contracts

/// Compiled-out contracts keep their operands in an unevaluated
/// decltype: no code is generated, but the locals that only a check
/// reads still count as used, so contracts-off builds stay warning-free.
#define DPRANK_CONTRACT_UNEVALUATED(cond, subsystem, msg)              \
  do {                                                                 \
    static_cast<void>(sizeof(decltype(static_cast<void>(!(cond)),      \
                                      static_cast<void>(subsystem),    \
                                      static_cast<void>(msg), 0)));    \
  } while (false)

#if defined(DPRANK_CHECK_INVARIANTS) && DPRANK_CHECK_INVARIANTS
#define DPRANK_ASSERT(cond, subsystem, msg)                             \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::dprank::contracts::fail((subsystem), #cond, __FILE__, __LINE__, \
                                (msg));                                 \
    }                                                                   \
  } while (false)
#else
#define DPRANK_ASSERT(cond, subsystem, msg) \
  DPRANK_CONTRACT_UNEVALUATED(cond, subsystem, msg)
#endif

/// Same machinery, distinct name: DPRANK_ASSERT guards local pre/post
/// conditions, DPRANK_INVARIANT states a subsystem-level structural
/// invariant inside a validate() walk. Failure reports are labelled
/// "invariant" vs "assert" so a violation names its class.
#if defined(DPRANK_CHECK_INVARIANTS) && DPRANK_CHECK_INVARIANTS
#define DPRANK_INVARIANT(cond, subsystem, msg)                          \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::dprank::contracts::fail((subsystem), "invariant: " #cond,       \
                                __FILE__, __LINE__, (msg));             \
    }                                                                   \
  } while (false)
#else
#define DPRANK_INVARIANT(cond, subsystem, msg) \
  DPRANK_CONTRACT_UNEVALUATED(cond, subsystem, msg)
#endif
