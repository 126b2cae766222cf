#include "serve/net/replay.h"

#include <sstream>
#include <utility>

#include "serve/wire.h"

namespace yver::serve::net {

util::StatusOr<CaptureWriter> CaptureWriter::Open(const std::string& path) {
  CaptureWriter writer;
  writer.f_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.f_.is_open()) {
    return util::Status::NotFound("cannot open capture file for writing: " +
                                  path);
  }
  char header[kCaptureHeaderSize] = {};
  header[0] = kCaptureMagic[0];
  header[1] = kCaptureMagic[1];
  header[2] = kCaptureMagic[2];
  header[3] = kCaptureMagic[3];
  header[4] = static_cast<char>(wire::kVersion);
  writer.f_.write(header, sizeof(header));
  if (!writer.f_.good()) {
    return util::Status::DataLoss("capture header write failed: " + path);
  }
  return writer;
}

util::Status CaptureWriter::Append(std::string_view frame_bytes) {
  f_.write(frame_bytes.data(),
           static_cast<std::streamsize>(frame_bytes.size()));
  if (!f_.good()) return util::Status::DataLoss("capture write failed");
  return util::Status::Ok();
}

util::Status CaptureWriter::Close() {
  if (!f_.is_open()) return util::Status::Ok();
  f_.close();
  if (f_.fail()) return util::Status::DataLoss("capture close failed");
  return util::Status::Ok();
}

util::StatusOr<std::vector<std::string>> LoadCapture(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) {
    return util::Status::NotFound("cannot open capture file: " + path);
  }
  std::ostringstream contents;
  contents << f.rdbuf();
  std::string data = contents.str();
  if (data.size() < kCaptureHeaderSize) {
    return util::Status::DataLoss("capture file truncated before header: " +
                                  path);
  }
  if (data[0] != kCaptureMagic[0] || data[1] != kCaptureMagic[1] ||
      data[2] != kCaptureMagic[2] || data[3] != kCaptureMagic[3]) {
    return util::Status::InvalidArgument("not a capture file: " + path);
  }
  uint8_t version = static_cast<uint8_t>(data[4]);
  if (version != wire::kVersion) {
    return util::Status::InvalidArgument(
        "unsupported capture version " + std::to_string(version) + ": " +
        path);
  }
  std::vector<std::string> frames;
  std::string_view rest(data);
  rest.remove_prefix(kCaptureHeaderSize);
  while (!rest.empty()) {
    wire::Frame frame;
    auto consumed = wire::ExtractFrame(rest, &frame);
    if (!consumed.ok()) return consumed.status();
    if (*consumed == 0) {
      return util::Status::DataLoss("capture file truncated mid-frame: " +
                                    path);
    }
    if (frame.type != wire::FrameType::kQuery) {
      return util::Status::InvalidArgument(
          "capture holds a non-query frame: " + path);
    }
    frames.emplace_back(rest.substr(0, *consumed));
    rest.remove_prefix(*consumed);
  }
  return frames;
}

}  // namespace yver::serve::net
