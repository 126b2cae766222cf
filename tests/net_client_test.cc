// Edge tests of the wire client's buffered reader (DESIGN.md §12, "client
// reads"), against a raw-socket peer that plays the server: the test
// writes exactly the reply bytes, and the pauses between them, that each
// case needs. A burst of frames must come back one per call from one
// socket read, a frame dribbled a byte at a time must come back whole, EOF
// and a stall mid-frame must give their typed errors, a hostile length
// must be refused from the header alone, a frame larger than the buffer
// must grow it, and injected short reads must never change a byte.

#include <gtest/gtest.h>
#include <sys/ioctl.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "serve/net/client.h"
#include "serve/wire.h"
#include "util/deadline.h"
#include "util/fault_injector.h"
#include "util/socket.h"
#include "util/status.h"

namespace yver::serve {
namespace {

using util::StatusCode;
using Clock = std::chrono::steady_clock;

/// A frame of `type` whose payload is `n` bytes drawn from `seed`. The
/// client returns raw frame bytes, so the payload need not decode.
std::string MakeFrame(wire::FrameType type, size_t n, uint8_t seed) {
  std::string payload(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<char>(seed + i * 31);
  }
  std::string frame;
  wire::AppendFrame(type, payload, &frame);
  return frame;
}

/// Every probability zero: the injector fires nothing but counts each
/// ReadSome, which is how these tests count the client's socket reads.
void CountSocketReads() { util::FaultInjector::Global().Arm({}); }

uint64_t SocketReads() {
  return util::FaultInjector::Global().hits(util::FaultPoint::kSocketRead);
}

class NetClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto listener = util::Socket::Listen(0);
    ASSERT_TRUE(listener.ok());
    auto port = listener->LocalPort();
    ASSERT_TRUE(port.ok());
    auto client = net::Client::Connect(*port);
    ASSERT_TRUE(client.ok());
    client_ = std::move(*client);
    auto peer = listener->Accept();
    ASSERT_TRUE(peer.ok());
    ASSERT_TRUE(peer->valid());
    peer_ = std::move(*peer);
    ASSERT_TRUE(peer_.SetNoDelay(true).ok());
  }

  void TearDown() override { util::FaultInjector::Global().Disarm(); }

  /// Writes `bytes` as the server would, then waits until the client's
  /// kernel has acknowledged all of them, so the client's next read finds
  /// every byte already queued. `bytes` must fit the socket buffers.
  void Deliver(std::string_view bytes) {
    ASSERT_TRUE(peer_.WriteFull(bytes.data(), bytes.size()).ok());
    auto give_up = Clock::now() + std::chrono::seconds(5);
    int unacked = 1;
    while (Clock::now() < give_up) {
      ASSERT_EQ(::ioctl(peer_.fd(), TIOCOUTQ, &unacked), 0);
      if (unacked == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << unacked << " byte(s) never reached the client";
  }

  /// Reads up to `n` frames, stopping at the first failed read (a test
  /// may still have a writer thread to join, so no ASSERT here).
  std::vector<std::string> ReadFrames(size_t n) {
    std::vector<std::string> frames;
    for (size_t i = 0; i < n; ++i) {
      auto got = client_.ReadFrameBytes(util::Deadline::AfterMillis(5000));
      if (!got.ok()) {
        ADD_FAILURE() << "frame " << i << ": " << got.status().ToString();
        break;
      }
      frames.push_back(std::move(*got));
    }
    return frames;
  }

  net::Client client_;
  util::Socket peer_;  // the server's end of the connection
};

TEST_F(NetClientTest, ThreeFramesInOneWriteComeBackOnePerCallFromOneRead) {
  std::vector<std::string> frames = {
      MakeFrame(wire::FrameType::kResult, 29, 1),
      MakeFrame(wire::FrameType::kError, 0, 2),  // an empty payload
      MakeFrame(wire::FrameType::kInfo, 300, 3)};
  CountSocketReads();
  Deliver(frames[0] + frames[1] + frames[2]);
  EXPECT_EQ(ReadFrames(frames.size()), frames);
  EXPECT_EQ(SocketReads(), 1u) << "the burst costs one read, not one a frame";
}

TEST_F(NetClientTest, FrameWrittenOneByteAtATimeComesBackWhole) {
  std::string frame = MakeFrame(wire::FrameType::kResult, 40, 7);
  util::Status written = util::Status::Ok();
  std::thread writer([&] {
    for (char c : frame) {
      written = peer_.WriteFull(&c, 1);
      if (!written.ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto got = client_.ReadFrameBytes(util::Deadline::AfterMillis(5000));
  writer.join();
  ASSERT_TRUE(written.ok()) << written.ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, frame);
}

TEST_F(NetClientTest, EofMidFrameIsUnavailable) {
  std::string frame = MakeFrame(wire::FrameType::kResult, 64, 2);
  Deliver(frame + frame.substr(0, 20));  // one frame, then a cut-off one
  peer_.Close();
  auto first = client_.ReadFrameBytes(util::Deadline::AfterMillis(5000));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, frame);
  auto cut = client_.ReadFrameBytes(util::Deadline::AfterMillis(5000));
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kUnavailable)
      << cut.status().ToString();
}

TEST_F(NetClientTest, StallMidFrameIsDeadlineExceededWithinBudget) {
  std::string frame = MakeFrame(wire::FrameType::kResult, 64, 4);
  Deliver(frame.substr(0, 30));  // the header and part of the payload
  auto start = Clock::now();
  auto stalled = client_.ReadFrameBytes(util::Deadline::AfterMillis(100));
  auto elapsed = Clock::now() - start;
  ASSERT_FALSE(stalled.ok());
  EXPECT_EQ(stalled.status().code(), StatusCode::kDeadlineExceeded)
      << stalled.status().ToString();
  EXPECT_GE(elapsed, std::chrono::milliseconds(100));
  EXPECT_LT(elapsed, std::chrono::seconds(2)) << "the deadline, not a hang";
  // The timed-out read kept what it had buffered: once the rest arrives,
  // the frame comes back whole.
  Deliver(frame.substr(30));
  auto got = client_.ReadFrameBytes(util::Deadline::AfterMillis(5000));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, frame);
}

TEST_F(NetClientTest, OverLimitHeaderIsRefusedFromTheHeaderAlone) {
  // A header declaring one byte past the protocol maximum, then 32 KiB of
  // filler and no end: the client must refuse from the 8 header bytes,
  // without growing its buffer or waiting for the declared payload.
  std::string bytes = MakeFrame(wire::FrameType::kResult, 0, 0);
  uint32_t length = static_cast<uint32_t>(wire::kMaxFramePayload) + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[4 + i] = static_cast<char>((length >> (8 * i)) & 0xff);
  }
  bytes.append(32 << 10, 'x');
  CountSocketReads();
  Deliver(bytes);
  auto start = Clock::now();
  auto got = client_.ReadFrameBytes(util::Deadline::AfterMillis(5000));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss)
      << got.status().ToString();
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(SocketReads(), 1u) << "no more than one read chunk";
}

TEST_F(NetClientTest, FrameLargerThanTheBufferComesBackWhole) {
  // 200 KiB is over three times the receive buffer; the small frame
  // behind it must come back intact from the grown buffer.
  std::vector<std::string> frames = {
      MakeFrame(wire::FrameType::kInfo, 200 << 10, 5),
      MakeFrame(wire::FrameType::kResult, 10, 6)};
  std::string stream = frames[0] + frames[1];
  util::Status written = util::Status::Ok();
  std::thread writer(
      [&] { written = peer_.WriteFull(stream.data(), stream.size()); });
  std::vector<std::string> got = ReadFrames(frames.size());
  writer.join();
  EXPECT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(got, frames);
}

TEST_F(NetClientTest, TruncatedSocketReadsStillGiveByteIdenticalFrames) {
  std::vector<std::string> frames;
  std::string stream;
  for (size_t i = 0; i < 40; ++i) {
    frames.push_back(MakeFrame(wire::FrameType::kResult, (i * 37) % 500,
                               static_cast<uint8_t>(i)));
    stream += frames.back();
  }
  // Short reads cut a read to one byte, at any offset in a header or a
  // payload; they fragment the peer's writes the same way.
  util::FaultConfig config;
  config.seed = 5;
  config.short_read_probability = 0.5;
  util::FaultInjector::Global().Arm(config);
  util::Status written = util::Status::Ok();
  std::thread writer([&] {
    for (size_t off = 0; off < stream.size() && written.ok(); off += 333) {
      size_t n = std::min<size_t>(333, stream.size() - off);
      written = peer_.WriteFull(stream.data() + off, n);
    }
  });
  std::vector<std::string> got = ReadFrames(frames.size());
  writer.join();
  EXPECT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(got, frames);
  EXPECT_GT(util::FaultInjector::Global().injections(
                util::FaultPoint::kSocketRead),
            0u);
}

}  // namespace
}  // namespace yver::serve
