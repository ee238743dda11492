#include "util/atomic_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace rdcn {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

/// Writes all of `contents` to `fd`, then fsyncs and closes it; false
/// (errno set, fd closed) on failure.
bool write_synced(int fd, const std::string& contents) {
  std::size_t written = 0;
  while (written < contents.size()) {
    const ::ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return false;
  }
  return ::close(fd) == 0;
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& contents) {
  const std::string temp = path + ".tmp";
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot create", temp);
  if (!write_synced(fd, contents)) {
    ::unlink(temp.c_str());
    fail("cannot write", temp);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    fail("cannot rename into", path);
  }

  // fsync the directory so the rename is durable, not just ordered.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best-effort: some filesystems reject directory fsync
    ::close(dir_fd);
  }
}

void append_synced(const std::string& path, const std::string& contents) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) fail("cannot open", path);
  if (!write_synced(fd, contents)) fail("cannot append to", path);
}

}  // namespace rdcn
