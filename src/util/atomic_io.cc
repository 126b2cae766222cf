#include "util/atomic_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace yver::util {

namespace {

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path, int open_flags) {
  int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) return Errno("open " + path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync " + path);
  return Status::Ok();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("create " + tmp);
  const char* data = contents.data();
  size_t n = contents.size();
  while (n > 0) {
    ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      Status failed = Errno("write " + tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return failed;
    }
    data += wrote;
    n -= static_cast<size_t>(wrote);
  }
  if (::fsync(fd) != 0) {
    Status failed = Errno("fsync " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return failed;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status failed = Errno("rename " + tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return failed;
  }
  return FsyncPath(ParentDir(path), O_RDONLY | O_DIRECTORY);
}

}  // namespace yver::util
