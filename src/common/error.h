// Error types shared across all Mendel libraries.
//
// Mendel uses exceptions for programmer errors and unrecoverable conditions
// (malformed input files, protocol violations) and return values / optionals
// for expected "not found" style outcomes. All exceptions derive from
// mendel::Error so callers can catch the library's failures uniformly.
#pragma once

#include <stdexcept>
#include <string>

namespace mendel {

// Root of the Mendel exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Malformed external input: FASTA syntax errors, bad characters, corrupt
// serialized indexes.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

// Malformed *external bytes* — a wire frame, snapshot file, or packed row
// that failed bounds/length/range validation while decoding. Derives from
// ParseError so existing catch sites keep working, but carries the stronger
// contract that it is the ONLY exception a decode path may raise on
// arbitrary input: transports and nodes catch it, count it
// (`net.decode_errors`), and drop the frame instead of crashing. Internal
// invariants keep using MENDEL_CHECK / CheckError, which must never be
// reachable from attacker-controlled bytes.
class DecodeError : public ParseError {
 public:
  explicit DecodeError(const std::string& what) : ParseError(what) {}
};

// A caller violated an API precondition (bad parameter ranges, mismatched
// lengths). Distinct from ParseError so tests can assert on the category.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

// I/O failure while reading or writing files (index persistence, FASTA).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

// A distributed-protocol invariant was violated (unknown destination,
// message decoded with the wrong type, routing to a nonexistent group).
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

// Precondition check helper: throws InvalidArgument when `cond` is false.
inline void require(bool cond, const std::string& what) {
  if (!cond) throw InvalidArgument(what);
}
// Literal-message overload: builds the message only on failure, so checks
// on hot paths (row reads, segment pins) cost a branch, not an allocation.
inline void require(bool cond, const char* what) {
  if (!cond) throw InvalidArgument(what);
}

}  // namespace mendel
