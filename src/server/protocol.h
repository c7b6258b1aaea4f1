// Wire protocol for pipemap_server: length-prefixed frames carrying a
// line-oriented request, answered with a length-prefixed JSON document.
//
// Framing: every message — request and response — is a 4-byte big-endian
// payload length followed by exactly that many payload bytes. A reader
// therefore never has to scan untrusted bytes for a terminator, and a
// content error in one request cannot desynchronize the stream: the next
// frame boundary is always known. Frames above the configured maximum
// are refused (and drained) without buffering them.
//
// Request payload grammar ("pipemap-server v1"):
//
//   pipemap-server v1
//   op <map|ping|stats|metrics>
//   [trace_id <hex>]          1-16 hex digits, nonzero: the client's end
//                             of request tracing. Echoed in the response,
//                             stamped on spans and the access-log line;
//                             absent = the server generates one at
//                             admission (support/trace_context.h)
//   [deadline_s <double>]     per-request wall-clock budget; 0/absent =
//                             no deadline (Deadline::HasBudget contract)
//   [procs <int>]             processor budget; 0 = whole machine
//   [algorithm <dp|greedy|auto|brute>]
//   [objective <throughput|latency>]
//   [floor <double>]          throughput floor for latency objective
//   [threads <int>]           solver threads; servers default to 1 and
//                             parallelize across requests instead
//   [cache <0|1>]             consult the shared solution cache (default 1)
//   [section chain <nbytes>]  followed by exactly nbytes raw bytes + '\n'
//   [section machine <nbytes>]
//   end
//
// Sections carry the existing io/serialize text formats verbatim and are
// byte-counted, so their content — untrusted — is never scanned for
// markers. Every numeric field goes through the checked parsers
// (support/parse.h); unknown keys, duplicate sections, truncated
// sections, and trailing bytes after `end` are all hard errors. The
// parser allocates at most the payload it was handed, which the server
// has already capped at max_frame_bytes.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pipemap::server {

/// A parsed request. String sections are raw untrusted text; the handler
/// layer runs them through the io/serialize parsers, which validate.
struct ServerRequest {
  std::string op;
  /// Client-supplied trace id (0 = none; the server generates one at
  /// admission). Canonical wire form is FormatTraceId's 16 hex digits.
  std::uint64_t trace_id = 0;
  /// Wall-clock budget in seconds; <= 0 means no deadline.
  double deadline_s = 0.0;
  int procs = 0;
  std::string algorithm = "auto";
  std::string objective = "throughput";
  double floor = 0.0;
  int threads = 1;
  bool use_cache = true;
  std::string chain_text;
  std::string machine_text;
  bool has_chain = false;
  bool has_machine = false;
};

/// Parses one request payload. Throws pipemap::InvalidArgument with a
/// one-line reason on any grammar violation; the server turns that into
/// an error response rather than closing the connection.
ServerRequest ParseServerRequest(std::string_view payload);

/// Renders `request` in the grammar above (the client side of the
/// contract; ParseServerRequest(SerializeServerRequest(r)) round-trips).
std::string SerializeServerRequest(const ServerRequest& request);

/// Frame I/O over a connected socket. ReadFrame returns false on a clean
/// EOF at a frame boundary; mid-frame EOF and I/O errors throw
/// pipemap::Error. A frame longer than `max_frame_bytes` is read and
/// discarded, then reported by throwing FrameTooLarge — the stream stays
/// synchronized, so the caller may answer with an error and keep the
/// connection.
bool ReadFrame(int fd, std::size_t max_frame_bytes, std::string* payload);
void WriteFrame(int fd, std::string_view payload);

/// Thrown by ReadFrame for an oversized (but fully drained) frame.
class FrameTooLarge : public std::runtime_error {
 public:
  explicit FrameTooLarge(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown by ReadFrame when a read times out on a socket armed with a
/// receive timeout (SO_RCVTIMEO). The server arms one per connection when
/// ServerConfig::idle_timeout_s is set, and treats this as "the peer
/// stalled": the connection slot is freed instead of being held hostage
/// by a slowloris-style client that drips or withholds bytes forever.
class IdleTimeout : public std::runtime_error {
 public:
  explicit IdleTimeout(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace pipemap::server
