// Stable serving error codes — one vocabulary for the C++ API and the wire.
//
// Every way a request can fail in the serving tiers has a code here, and
// every error type the tiers throw (or resolve futures with) carries its
// code, so the network front-end (src/net/) can frame the exact same
// condition a C++ caller would catch: a shed request is kDeadlineExceeded
// whether it failed a future or a socket frame, a full queue is
// kBackpressure whether it came back as std::nullopt or a decline frame.
// The numeric values are wire-visible (protocol.h serializes them as one
// byte) and therefore stable: append new codes, never renumber.
//
// Exception taxonomy
//   * ServingError (std::runtime_error) is the base for runtime failures
//     delivered through futures or after submission: DeadlineExceeded,
//     UnknownModelError, ShutdownError, BackpressureError. Catch the base
//     and switch on code() when one handler serves every path — that is
//     exactly what the wire server does.
//   * DuplicateIdError derives from std::invalid_argument, not
//     ServingError: it is wire-only — a client reusing a correlation id
//     still in flight on its connection, a client programming error.
//     In-process request ids are assigned by the serving tiers, never
//     supplied, so no in-process submit can raise it. net::Client rethrows
//     it from a kDuplicateId frame, and callers catch it as
//     std::invalid_argument like the other validation errors.
#pragma once

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>

namespace bt::serving {

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kUnknownModel = 1,     // Request::model is not a registered name
  kDuplicateId = 2,      // wire: correlation id already in flight
  kBackpressure = 3,     // bounded queue full; retry later
  kDeadlineExceeded = 4, // deadline passed before compute; request shed
  kShutdown = 5,         // serving tier stopped (or failed terminally)
  kInternal = 6,         // this request broke (round failure, lost response)
};

// One past the largest valid code — the wire decoder's range check.
inline constexpr std::uint8_t kErrorCodeCount = 7;

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kUnknownModel: return "unknown_model";
    case ErrorCode::kDuplicateId: return "duplicate_id";
    case ErrorCode::kBackpressure: return "backpressure";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kInternal: return "internal";
  }
  return "invalid";
}

// Base of the runtime serving failures. what() keeps the human-readable
// detail; code() is the stable machine-readable identity.
class ServingError : public std::runtime_error {
 public:
  ServingError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

// A request whose deadline passed before its round started computing is
// shed: its future resolves with this error (distinct from the generic
// runtime errors, so callers can tell "too late, not computed" from real
// failures) and EngineStats::deadline_shed counts it.
class DeadlineExceeded : public ServingError {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : ServingError(ErrorCode::kDeadlineExceeded, what) {}
};

// Service::submit resolved the request's model name against the registry
// and found nothing. Delivered through the returned future, not thrown.
class UnknownModelError : public ServingError {
 public:
  explicit UnknownModelError(const std::string& what)
      : ServingError(ErrorCode::kUnknownModel, what) {}
};

// Submission reached a tier that has stopped (thrown by submit; try_submit
// returns std::nullopt instead), or an accepted request could not be served
// because the tier is going away.
class ShutdownError : public ServingError {
 public:
  explicit ShutdownError(const std::string& what)
      : ServingError(ErrorCode::kShutdown, what) {}
};

// The bounded queue declined the request. The in-process tiers signal this
// with std::nullopt from try_submit (no exception on the hot path); the
// type exists for surfaces that must deliver the decline asynchronously —
// the wire client resolves its future with this when the server framed
// kBackpressure.
class BackpressureError : public ServingError {
 public:
  explicit BackpressureError(const std::string& what)
      : ServingError(ErrorCode::kBackpressure, what) {}
};

// An accepted request failed inside the serving tier — a compute round
// threw, or the engine lost its response — while the tier itself keeps
// serving. Distinct from ShutdownError ("the server is going away") so a
// retrying client can tell a transient per-request failure from a dead
// endpoint: kInternal is worth retrying (likely a different replica or a
// recovered one), kShutdown is not.
class InternalError : public ServingError {
 public:
  explicit InternalError(const std::string& what)
      : ServingError(ErrorCode::kInternal, what) {}
};

// Wire correlation id already in flight on its connection — a client
// programming error (see the taxonomy note above for why this is
// invalid_argument).
class DuplicateIdError : public std::invalid_argument {
 public:
  explicit DuplicateIdError(const std::string& what)
      : std::invalid_argument(what) {}
  ErrorCode code() const noexcept { return ErrorCode::kDuplicateId; }
};

// Maps an in-flight failure to its wire code: the ServingError hierarchy
// reports its own code, DuplicateIdError reports kDuplicateId, and anything
// else (an engine failure mid-round, a lost response) maps to `fallback` —
// the caller picks the honest default for its context (the wire server uses
// kShutdown: whatever broke, this server cannot serve the request).
inline ErrorCode error_code_of(const std::exception_ptr& error,
                               ErrorCode fallback,
                               std::string* message = nullptr) {
  try {
    std::rethrow_exception(error);
  } catch (const ServingError& e) {
    if (message != nullptr) *message = e.what();
    return e.code();
  } catch (const DuplicateIdError& e) {
    if (message != nullptr) *message = e.what();
    return e.code();
  } catch (const std::exception& e) {
    if (message != nullptr) *message = e.what();
    return fallback;
  } catch (...) {
    if (message != nullptr) *message = "unknown error";
    return fallback;
  }
}

// The inverse, for the wire client: reconstructs the typed exception a
// direct serving::Service caller would have caught for `code`, so error
// handling is written once against the C++ types whether the service is in
// process or across a socket.
inline std::exception_ptr make_serving_error(ErrorCode code,
                                             const std::string& what) {
  switch (code) {
    case ErrorCode::kUnknownModel:
      return std::make_exception_ptr(UnknownModelError(what));
    case ErrorCode::kDuplicateId:
      return std::make_exception_ptr(DuplicateIdError(what));
    case ErrorCode::kBackpressure:
      return std::make_exception_ptr(BackpressureError(what));
    case ErrorCode::kDeadlineExceeded:
      return std::make_exception_ptr(DeadlineExceeded(what));
    case ErrorCode::kInternal:
      return std::make_exception_ptr(InternalError(what));
    case ErrorCode::kOk:
    case ErrorCode::kShutdown:
      break;
  }
  return std::make_exception_ptr(ShutdownError(what));
}

}  // namespace bt::serving
