#include "core/safe_io.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "sim/check.hpp"

namespace paratick::core {

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::filesystem::path fs_path{path};
  // Special targets (/dev/null, pipes) cannot be renamed over — and must
  // not be: replacing /dev/null with a regular file would be a disaster.
  // Plain in-place write for anything that exists and is not a file.
  std::error_code stat_ec;
  const auto status = std::filesystem::status(fs_path, stat_ec);
  if (!stat_ec && std::filesystem::exists(status) &&
      !std::filesystem::is_regular_file(status)) {
    std::FILE* direct = std::fopen(path.c_str(), "w");
    PARATICK_CHECK_MSG(direct != nullptr,
                       ("cannot open file for writing: " + path).c_str());
    const bool wrote =
        std::fwrite(content.data(), 1, content.size(), direct) == content.size();
    // fclose flushes the buffered tail: a full device fails here.
    const bool closed = std::fclose(direct) == 0;
    PARATICK_CHECK_MSG(wrote && closed, ("write failed for: " + path).c_str());
    return;
  }
  if (fs_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fs_path.parent_path(), ec);
  }
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  PARATICK_CHECK_MSG(f != nullptr,
                     ("cannot open temp file for atomic write: " + tmp).c_str());
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    PARATICK_CHECK_MSG(false, ("atomic write failed for: " + path).c_str());
  }
}

std::string read_file(const std::string& path, const char* what) {
  const auto fail = [&](const char* verb) {
    const std::string msg = std::string("cannot ") + verb + " " + what + " " + path +
                            ": " + std::strerror(errno);
    PARATICK_CHECK_MSG(false, msg.c_str());
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail("open");
  std::string out;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  const bool read_failed = std::ferror(f) != 0;
  const int read_errno = errno;
  std::fclose(f);
  if (read_failed) {
    errno = read_errno;
    fail("read");
  }
  return out;
}

}  // namespace paratick::core
