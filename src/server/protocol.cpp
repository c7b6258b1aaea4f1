#include "server/protocol.h"

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <optional>

#include "support/error.h"
#include "support/parse.h"
#include "support/trace_context.h"

namespace pipemap::server {
namespace {

/// Line cursor over the payload. Sections are consumed by byte count, so
/// only the header lines are ever scanned.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }

  /// The next header line, without its terminating '\n'. A final line
  /// without a newline is accepted (it can only be `end`).
  std::string_view NextLine() {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      const std::string_view line = text.substr(pos);
      pos = text.size();
      return line;
    }
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  }

  /// Consumes exactly `n` raw bytes plus the mandatory trailing newline.
  std::string_view TakeRaw(std::size_t n) {
    if (text.size() - pos < n) {
      throw InvalidArgument("server request: truncated section body");
    }
    const std::string_view raw = text.substr(pos, n);
    pos += n;
    if (pos >= text.size() || text[pos] != '\n') {
      throw InvalidArgument(
          "server request: section body must end with a newline");
    }
    ++pos;
    return raw;
  }
};

int CheckedIntField(std::string_view key, std::string_view value) {
  const std::optional<int> v = TryParseInt(value);
  if (!v) {
    throw InvalidArgument("server request: invalid integer for '" +
                          std::string(key) + "': '" + std::string(value) +
                          "'");
  }
  return *v;
}

double CheckedDoubleField(std::string_view key, std::string_view value) {
  const std::optional<double> v = TryParseDouble(value);
  if (!v) {
    throw InvalidArgument("server request: invalid number for '" +
                          std::string(key) + "': '" + std::string(value) +
                          "'");
  }
  return *v;
}

void ReadExact(int fd, void* buffer, std::size_t n, bool* clean_eof) {
  char* out = static_cast<char*>(buffer);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, out + done, n - done);
    if (got == 0) {
      if (clean_eof != nullptr && done == 0) {
        *clean_eof = true;
        return;
      }
      throw Error("connection closed mid-frame");
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // A socket armed with SO_RCVTIMEO ran out of patience: the peer
        // is stalling (possibly mid-frame). Distinct type so the server
        // can count it and free the slot.
        throw IdleTimeout("read timed out waiting for the peer");
      }
      throw Error(std::string("read failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(got);
  }
}

}  // namespace

ServerRequest ParseServerRequest(std::string_view payload) {
  Cursor cursor{payload};
  if (cursor.NextLine() != "pipemap-server v1") {
    throw InvalidArgument("server request: missing 'pipemap-server v1'");
  }
  ServerRequest request;
  bool saw_op = false;
  bool saw_end = false;
  while (!cursor.AtEnd()) {
    const std::string_view line = cursor.NextLine();
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      throw InvalidArgument("server request: malformed line '" +
                            std::string(line) + "'");
    }
    const std::string_view key = line.substr(0, space);
    const std::string_view value = line.substr(space + 1);
    if (key == "op") {
      request.op = std::string(value);
      saw_op = true;
    } else if (key == "trace_id") {
      const std::optional<std::uint64_t> id = ParseTraceId(value);
      if (!id) {
        throw InvalidArgument(
            "server request: 'trace_id' must be 1-16 nonzero hex digits, "
            "got '" + std::string(value) + "'");
      }
      request.trace_id = *id;
    } else if (key == "deadline_s") {
      request.deadline_s = CheckedDoubleField(key, value);
    } else if (key == "procs") {
      request.procs = CheckedIntField(key, value);
    } else if (key == "algorithm") {
      request.algorithm = std::string(value);
    } else if (key == "objective") {
      request.objective = std::string(value);
    } else if (key == "floor") {
      request.floor = CheckedDoubleField(key, value);
    } else if (key == "threads") {
      request.threads = CheckedIntField(key, value);
    } else if (key == "cache") {
      const int v = CheckedIntField(key, value);
      if (v != 0 && v != 1) {
        throw InvalidArgument("server request: 'cache' must be 0 or 1");
      }
      request.use_cache = v == 1;
    } else if (key == "section") {
      const std::size_t name_end = value.find(' ');
      if (name_end == std::string_view::npos) {
        throw InvalidArgument("server request: section needs a byte count");
      }
      const std::string_view name = value.substr(0, name_end);
      const int nbytes = CheckedIntField("section", value.substr(name_end + 1));
      if (nbytes < 0) {
        throw InvalidArgument("server request: negative section length");
      }
      const std::string_view raw =
          cursor.TakeRaw(static_cast<std::size_t>(nbytes));
      if (name == "chain") {
        if (request.has_chain) {
          throw InvalidArgument("server request: duplicate chain section");
        }
        request.chain_text = std::string(raw);
        request.has_chain = true;
      } else if (name == "machine") {
        if (request.has_machine) {
          throw InvalidArgument("server request: duplicate machine section");
        }
        request.machine_text = std::string(raw);
        request.has_machine = true;
      } else {
        throw InvalidArgument("server request: unknown section '" +
                              std::string(name) + "'");
      }
    } else {
      throw InvalidArgument("server request: unknown key '" +
                            std::string(key) + "'");
    }
  }
  if (!saw_end) {
    throw InvalidArgument("server request: missing 'end'");
  }
  if (!cursor.AtEnd()) {
    throw InvalidArgument("server request: trailing bytes after 'end'");
  }
  if (!saw_op) {
    throw InvalidArgument("server request: missing 'op'");
  }
  return request;
}

std::string SerializeServerRequest(const ServerRequest& request) {
  std::string out = "pipemap-server v1\n";
  out += "op " + request.op + "\n";
  if (request.trace_id != 0) {
    out += "trace_id " + FormatTraceId(request.trace_id) + "\n";
  }
  const auto number = [](double v) {
    // Shortest round-trip-safe form; matches what TryParseDouble accepts.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  if (request.deadline_s != 0.0) {
    out += "deadline_s " + number(request.deadline_s) + "\n";
  }
  if (request.procs != 0) out += "procs " + std::to_string(request.procs) + "\n";
  out += "algorithm " + request.algorithm + "\n";
  out += "objective " + request.objective + "\n";
  if (request.floor != 0.0) out += "floor " + number(request.floor) + "\n";
  out += "threads " + std::to_string(request.threads) + "\n";
  out += std::string("cache ") + (request.use_cache ? "1" : "0") + "\n";
  const auto section = [&out](const char* name, const std::string& body) {
    out += "section ";
    out += name;
    out += ' ';
    out += std::to_string(body.size());
    out += '\n';
    out += body;
    out += '\n';
  };
  if (request.has_chain) section("chain", request.chain_text);
  if (request.has_machine) section("machine", request.machine_text);
  out += "end\n";
  return out;
}

bool ReadFrame(int fd, std::size_t max_frame_bytes, std::string* payload) {
  unsigned char header[4];
  bool clean_eof = false;
  ReadExact(fd, header, sizeof(header), &clean_eof);
  if (clean_eof) return false;
  const std::uint32_t length = (static_cast<std::uint32_t>(header[0]) << 24) |
                               (static_cast<std::uint32_t>(header[1]) << 16) |
                               (static_cast<std::uint32_t>(header[2]) << 8) |
                               static_cast<std::uint32_t>(header[3]);
  if (length > max_frame_bytes) {
    // Drain in bounded chunks so the stream stays frame-aligned without
    // ever buffering the oversized payload.
    char sink[4096];
    std::size_t remaining = length;
    while (remaining > 0) {
      const std::size_t chunk = std::min(remaining, sizeof(sink));
      ReadExact(fd, sink, chunk, nullptr);
      remaining -= chunk;
    }
    throw FrameTooLarge("frame of " + std::to_string(length) +
                        " bytes exceeds the limit of " +
                        std::to_string(max_frame_bytes));
  }
  payload->resize(length);
  if (length > 0) ReadExact(fd, payload->data(), length, nullptr);
  return true;
}

void WriteFrame(int fd, std::string_view payload) {
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  unsigned char header[4] = {
      static_cast<unsigned char>((length >> 24) & 0xFF),
      static_cast<unsigned char>((length >> 16) & 0xFF),
      static_cast<unsigned char>((length >> 8) & 0xFF),
      static_cast<unsigned char>(length & 0xFF)};
  std::string buffer(reinterpret_cast<char*>(header), sizeof(header));
  buffer.append(payload);
  std::size_t done = 0;
  while (done < buffer.size()) {
    const ssize_t wrote = ::write(fd, buffer.data() + done,
                                  buffer.size() - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("write failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(wrote);
  }
}

}  // namespace pipemap::server
