#ifndef YVER_UTIL_ATOMIC_IO_H_
#define YVER_UTIL_ATOMIC_IO_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace yver::util {

/// Crash-atomic file replacement (DESIGN.md §14): writes `contents` to
/// `path + ".tmp"`, fsyncs the file, rename()s it over `path`, and fsyncs
/// the parent directory. A crash at any point leaves either the old file
/// or the new one — never a torn mix — because rename() is atomic on
/// POSIX filesystems. Typed UNAVAILABLE on any I/O failure (the tmp file
/// is unlinked best-effort).
Status WriteFileAtomic(const std::string& path, std::string_view contents);

}  // namespace yver::util

#endif  // YVER_UTIL_ATOMIC_IO_H_
