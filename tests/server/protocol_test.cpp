// Wire protocol: the request grammar round-trips, every malformed shape
// is refused with InvalidArgument (never accepted garbage, never a
// crash), and framing over a real socketpair survives oversized frames
// without losing stream alignment.
#include "server/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "support/error.h"

namespace pipemap::server {
namespace {

TEST(ProtocolTest, RoundTripsAllFields) {
  ServerRequest request;
  request.op = "map";
  request.deadline_s = 1.5;
  request.procs = 12;
  request.algorithm = "dp";
  request.objective = "latency";
  request.floor = 0.25;
  request.threads = 2;
  request.use_cache = false;
  request.chain_text = "pipemap-chain v1\nwith\nnewlines";
  request.has_chain = true;
  request.machine_text = "machine body";
  request.has_machine = true;

  const ServerRequest parsed =
      ParseServerRequest(SerializeServerRequest(request));
  EXPECT_EQ(parsed.op, "map");
  EXPECT_EQ(parsed.deadline_s, 1.5);
  EXPECT_EQ(parsed.procs, 12);
  EXPECT_EQ(parsed.algorithm, "dp");
  EXPECT_EQ(parsed.objective, "latency");
  EXPECT_EQ(parsed.floor, 0.25);
  EXPECT_EQ(parsed.threads, 2);
  EXPECT_FALSE(parsed.use_cache);
  EXPECT_TRUE(parsed.has_chain);
  EXPECT_EQ(parsed.chain_text, request.chain_text);
  EXPECT_TRUE(parsed.has_machine);
  EXPECT_EQ(parsed.machine_text, "machine body");
}

TEST(ProtocolTest, TraceIdRoundTripsInCanonicalForm) {
  ServerRequest request;
  request.op = "ping";
  request.trace_id = 0x00c0ffee12345678ull;
  const std::string wire = SerializeServerRequest(request);
  // Canonical wire form: exactly 16 lowercase hex digits, zero-padded.
  EXPECT_NE(wire.find("trace_id 00c0ffee12345678\n"), std::string::npos)
      << wire;
  EXPECT_EQ(ParseServerRequest(wire).trace_id, request.trace_id);

  // Zero means "no id assigned": the field is omitted entirely, and the
  // parsed request comes back with trace_id 0 for admission to fill.
  ServerRequest no_id;
  no_id.op = "ping";
  const std::string bare = SerializeServerRequest(no_id);
  EXPECT_EQ(bare.find("trace_id"), std::string::npos);
  EXPECT_EQ(ParseServerRequest(bare).trace_id, 0u);

  // Short (unpadded) client ids and uppercase hex are accepted on input.
  EXPECT_EQ(ParseServerRequest(
                "pipemap-server v1\nop ping\ntrace_id abc\nend\n")
                .trace_id,
            0xabcu);
  EXPECT_EQ(ParseServerRequest(
                "pipemap-server v1\nop ping\ntrace_id DEADBEEF\nend\n")
                .trace_id,
            0xdeadbeefu);
}

TEST(ProtocolTest, RejectsMalformedTraceIds) {
  const auto rejects = [](const std::string& value) {
    const std::string payload =
        "pipemap-server v1\nop ping\ntrace_id " + value + "\nend\n";
    EXPECT_THROW(ParseServerRequest(payload), InvalidArgument)
        << "accepted trace_id: '" << value << "'";
  };
  rejects("");                   // empty value
  rejects("0");                  // zero is reserved for "unassigned"
  rejects("00000000");           // ...in any width
  rejects("xyz");                // not hex
  rejects("12g4");               // one bad digit
  rejects("0x12ab");             // no 0x prefix on the wire
  rejects("00c0ffee123456789");  // 17 digits overflows the canonical form
  rejects("-1");
}

TEST(ProtocolTest, SectionsAreByteCountedNotScanned) {
  // A section body containing protocol keywords must pass through raw:
  // byte counting means content is never mistaken for grammar.
  ServerRequest request;
  request.op = "map";
  request.chain_text = "end\nsection chain 3\nop x\n";
  request.has_chain = true;
  const ServerRequest parsed =
      ParseServerRequest(SerializeServerRequest(request));
  EXPECT_EQ(parsed.chain_text, request.chain_text);
  EXPECT_EQ(parsed.op, "map");
  EXPECT_FALSE(parsed.has_machine);
}

TEST(ProtocolTest, RejectsMalformedPayloads) {
  const auto rejects = [](const std::string& payload) {
    EXPECT_THROW(ParseServerRequest(payload), InvalidArgument)
        << "accepted: " << payload;
  };
  rejects("");
  rejects("pipemap-server v2\nop ping\nend\n");          // wrong version
  rejects("pipemap-server v1\nend\n");                   // missing op
  rejects("pipemap-server v1\nop ping\n");               // missing end
  rejects("pipemap-server v1\nop ping\nend\nx");         // trailing bytes
  rejects("pipemap-server v1\nop ping\nbogus 1\nend\n"); // unknown key
  // No op simulates, so simulation settings and a mapping section are
  // unknown too.
  rejects("pipemap-server v1\nop map\ndatasets 200\nend\n");
  rejects("pipemap-server v1\nop map\nnoise 0.1\nend\n");
  rejects("pipemap-server v1\nop map\nseed 1\nend\n");
  rejects("pipemap-server v1\nop map\nsection mapping 0\n\nend\n");
  rejects("pipemap-server v1\nop ping\nnoline\nend\n");  // key without value
  rejects("pipemap-server v1\nop ping\nprocs 4x\nend\n");
  rejects("pipemap-server v1\nop ping\ndeadline_s inf\nend\n");
  rejects("pipemap-server v1\nop ping\ncache 2\nend\n");
  rejects("pipemap-server v1\nop ping\nsection chain\nend\n");
  rejects("pipemap-server v1\nop ping\nsection chain -1\nend\n");
  rejects("pipemap-server v1\nop ping\nsection bogus 2\nxx\nend\n");
  rejects("pipemap-server v1\nop ping\nsection chain 99\nshort\nend\n");
  // Section body not newline-terminated at the declared length.
  rejects("pipemap-server v1\nop ping\nsection chain 2\nxxxend\n");
  // Duplicate section.
  rejects(
      "pipemap-server v1\nop ping\nsection chain 1\na\n"
      "section chain 1\nb\nend\n");
}

TEST(ProtocolTest, FramesRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload("hello\n\x00\x01\x02 frame", 14);
  WriteFrame(fds[0], payload);
  WriteFrame(fds[0], "");  // empty frames are legal
  std::string got;
  ASSERT_TRUE(ReadFrame(fds[1], 1 << 20, &got));
  EXPECT_EQ(got, payload);
  ASSERT_TRUE(ReadFrame(fds[1], 1 << 20, &got));
  EXPECT_EQ(got, "");
  ::close(fds[0]);
  // Clean EOF at a frame boundary: false, no throw.
  EXPECT_FALSE(ReadFrame(fds[1], 1 << 20, &got));
  ::close(fds[1]);
}

TEST(ProtocolTest, OversizedFrameIsDrainedAndStreamStaysAligned) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Writer thread: one oversized frame, then a small one. The reader must
  // refuse the first without desynchronizing, then read the second.
  std::thread writer([&] {
    WriteFrame(fds[0], std::string(64 * 1024, 'x'));
    WriteFrame(fds[0], "after");
    ::close(fds[0]);
  });
  std::string got;
  EXPECT_THROW(ReadFrame(fds[1], 1024, &got), FrameTooLarge);
  ASSERT_TRUE(ReadFrame(fds[1], 1024, &got));
  EXPECT_EQ(got, "after");
  EXPECT_FALSE(ReadFrame(fds[1], 1024, &got));
  writer.join();
  ::close(fds[1]);
}

TEST(ProtocolTest, MidFrameEofThrows) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length header promising more bytes than ever arrive.
  const unsigned char header[4] = {0, 0, 0, 10};
  ASSERT_EQ(::write(fds[0], header, 4), 4);
  ASSERT_EQ(::write(fds[0], "abc", 3), 3);
  ::close(fds[0]);
  std::string got;
  EXPECT_THROW(ReadFrame(fds[1], 1 << 20, &got), Error);
  ::close(fds[1]);
}

}  // namespace
}  // namespace pipemap::server
