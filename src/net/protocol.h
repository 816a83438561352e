// Length-prefixed binary wire protocol for the serving front-end.
//
// Every frame on the socket is
//
//   u32-LE payload_length | payload
//   payload := version u8 | frame_type u8 | body
//
// with four frame types (docs/WIRE.md is the normative spec, including
// the field tables and the error-code mapping):
//
//   kSubmit (client -> server): one inference request —
//     correlation u64 | deadline_ms u32 |
//     model_len u8 | model | session_len u8 | session |
//     rows u32 | cols u32 | tokens (rows*cols fp16, little-endian)
//
//   kResponse (server -> client): the matching reply —
//     correlation u64 | error u8 (serving::ErrorCode) | replica i32 |
//     model_len u8 | model | session_len u8 | session |
//     message_len u16 | message | rows u32 | cols u32 | tokens
//
//   kStatsRequest (client -> server): telemetry pull —
//     correlation u64 | include_traces u8 (strictly 0 or 1)
//
//   kStatsResponse (server -> client): the telemetry snapshot —
//     correlation u64 | metrics_len u32 | metrics_json |
//     traces_len u32 | traces_jsonl
//
// The correlation id is a per-connection token the client chooses and the
// server echoes — it is NOT the service-wide RequestId (those would collide
// across connections). deadline_ms is relative to server receipt; 0 means
// no deadline. An error frame (error != kOk) carries rows == cols == 0 and
// a human-readable message instead of tokens.
//
// Decoding is incremental and adversarial-input-safe: the Decoder owns the
// connection's read Buffer (recv() lands bytes in it via reserve/commit),
// tolerates arbitrarily split reads (a frame split anywhere — even inside
// the length prefix — just reports kNeedMore until the rest arrives), and
// rejects oversized or malformed frames with kError without ever reading
// past the declared payload. After kError the stream is unframeable (the
// prefix can no longer be trusted), so the decoder stays failed and the
// connection must be torn down — that tears down one connection, never the
// event loop.
//
// Decoded frames are zero-copy: string fields are string_views and token
// payloads raw byte pointers into the decoder's buffer, valid until the
// next next()/feed. The server memcpys token bytes straight into the
// Request tensor — one copy from socket buffer to tensor, none in between.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/buffer.h"
#include "serving/error.h"

namespace bt::net {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kLengthPrefixBytes = 4;
// Frames above this are rejected (a Decoder can lower it): large enough
// for any plausible [rows, hidden] fp16 payload, small enough that a
// garbage length prefix cannot make a connection buffer gigabytes.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{16} << 20;

enum class FrameType : std::uint8_t {
  kSubmit = 1,
  kResponse = 2,
  kStatsRequest = 3,   // client -> server: telemetry snapshot, please
  kStatsResponse = 4,  // server -> client: registry JSON + trace JSONL
};

// One request on the wire. Views/pointers alias the decoder's buffer (on
// decode) or the caller's storage (on encode).
struct SubmitFrame {
  std::uint64_t correlation = 0;
  std::uint32_t deadline_ms = 0;  // SLO relative to server receipt; 0 = none
  std::string_view model;         // empty = the service's default model
  std::string_view session;       // empty = sessionless
  std::uint32_t rows = 0;         // token rows ([rows, cols] fp16 matrix)
  std::uint32_t cols = 0;         // must equal the target model's hidden
  const std::byte* tokens = nullptr;
  std::size_t token_bytes() const {
    return std::size_t{2} * rows * cols;
  }
};

// One reply on the wire. error == kOk carries the output matrix and
// provenance; anything else carries a diagnostic message and no tokens.
struct ResponseFrame {
  std::uint64_t correlation = 0;
  serving::ErrorCode error = serving::ErrorCode::kOk;
  std::int32_t replica = -1;
  std::string_view model;
  std::string_view session;
  std::string_view message;  // empty on kOk
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  const std::byte* tokens = nullptr;
  std::size_t token_bytes() const {
    return std::size_t{2} * rows * cols;
  }
};

// Telemetry pull (client -> server): ask a live server for its metric
// registry snapshot, optionally with the sampled trace ring. The
// correlation id follows the kSubmit convention (per-connection, echoed).
//   correlation u64 | include_traces u8 (strictly 0 or 1)
struct StatsRequestFrame {
  std::uint64_t correlation = 0;
  std::uint8_t include_traces = 0;
};

// Telemetry reply (server -> client): two length-prefixed UTF-8 blobs —
// the registry snapshot as one JSON object and, when traces were
// requested, the trace ring as JSONL (one record per line; empty when
// include_traces was 0 or the ring would not fit under max_frame_bytes).
//   correlation u64 | metrics_len u32 | metrics_json |
//   traces_len u32 | traces_jsonl
struct StatsResponseFrame {
  std::uint64_t correlation = 0;
  std::string_view metrics_json;
  std::string_view traces_jsonl;
};

struct Frame {
  FrameType type = FrameType::kSubmit;
  SubmitFrame submit;                // valid when type == kSubmit
  ResponseFrame response;            // valid when type == kResponse
  StatsRequestFrame stats_request;   // valid when type == kStatsRequest
  StatsResponseFrame stats_response; // valid when type == kStatsResponse
};

// Appends one complete frame (prefix included) to `out`. Throws
// std::invalid_argument when a field exceeds its wire width (model/session
// > 255 bytes, message > 65535 bytes) or a token payload is declared
// without its bytes.
void encode_submit(Buffer& out, const SubmitFrame& f);
void encode_response(Buffer& out, const ResponseFrame& f);
// Stats frames: encode_stats_request throws when include_traces is neither
// 0 nor 1 (the wire value is strict, see the decoder); encode_stats_response
// throws when the two blobs would exceed the u32 length fields.
void encode_stats_request(Buffer& out, const StatsRequestFrame& f);
void encode_stats_response(Buffer& out, const StatsResponseFrame& f);

enum class DecodeStatus {
  kNeedMore,  // no complete frame buffered yet
  kFrame,     // *out filled; views valid until the next next() call
  kError,     // stream unframeable; error() says why; terminal
};

class Decoder {
 public:
  explicit Decoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  // The read-side storage: recv() into buffer().reserve(n), then
  // buffer().commit(bytes_read). feed() is the convenience for callers
  // that already hold the bytes (tests, the client's blocking reader).
  Buffer& buffer() { return buf_; }
  void feed(const void* data, std::size_t n) { buf_.append(data, n); }

  // Parses the frame at the front of the buffer, if complete. The frame
  // delivered by the previous call is consumed on entry, so views returned
  // last time die here. A malformed or oversized frame fails the decoder
  // permanently (see the header comment for why recovery is impossible).
  DecodeStatus next(Frame* out);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

 private:
  DecodeStatus fail(std::string why);

  Buffer buf_;
  std::size_t max_frame_bytes_;
  std::size_t pending_consume_ = 0;  // bytes of the frame delivered last call
  bool failed_ = false;
  std::string error_;
};

}  // namespace bt::net
