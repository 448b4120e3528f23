#include "util/file_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <string_view>

#include "util/error.hpp"

namespace gear {

Bytes read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw_error(ErrorCode::kInternal, "cannot open " + path.string());
  }
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::filesystem::path& path, BytesView content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw_error(ErrorCode::kInternal, "cannot create " + path.string());
  }
  out.write(reinterpret_cast<const char*>(content.data()),
            static_cast<std::streamsize>(content.size()));
  if (!out) {
    throw_error(ErrorCode::kInternal, "short write to " + path.string());
  }
}

namespace {

constexpr std::string_view kTempSuffix = ".tmp";

[[noreturn]] void throw_errno(const std::string& what,
                              const std::filesystem::path& path) {
  throw_error(ErrorCode::kInternal,
              what + " " + path.string() + ": " + std::strerror(errno));
}

void fsync_path(const std::filesystem::path& path, int open_flags) {
  int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) throw_errno("cannot open for fsync", path);
  if (::fsync(fd) != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("fsync failed for", path);
  }
  ::close(fd);
}

}  // namespace

void write_file_durable(const std::filesystem::path& path, BytesView content) {
  const std::filesystem::path tmp = path.string().append(kTempSuffix);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create", tmp);
  std::size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("write failed to", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("fsync failed for", tmp);
  }
  if (::close(fd) != 0) throw_errno("close failed for", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("rename failed onto", path);
  }
  // The rename itself must be durable: sync the containing directory.
  fsync_path(path.parent_path(), O_RDONLY | O_DIRECTORY);
}

bool is_durable_temp(const std::string& name) {
  return name.size() > kTempSuffix.size() &&
         name.compare(name.size() - kTempSuffix.size(), kTempSuffix.size(),
                      kTempSuffix) == 0;
}

}  // namespace gear
