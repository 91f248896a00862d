// Signal-safe pipe I/O and crash-safe file writes.
//
// Two failure modes used to corrupt sweep artifacts:
//
//   1. A signal landing mid-read/mid-write on a pipe made the raw
//      read()/write() return -1/EINTR, which a pipe reader could mistake
//      for a dead peer — truncating the newline-framed record stream and
//      converting perfectly good runs into kCrash records.
//   2. A process killed between fopen() and fclose() left a truncated
//      export, history snapshot or replay bundle on disk for the next
//      reader to choke on.
//
// The helpers here close both holes: read_retry/write_all restart on
// EINTR (and write_all handles short writes), and write_file_atomic
// stages content in a same-directory temp file and rename()s it into
// place, so readers only ever observe the old file or the complete new
// one — never a partial write. Its reading side, read_file, tells a read
// error from end of file and names the path in every failure.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>

namespace paratick::core {

/// read(fd) restarted on EINTR. Returns bytes read (0 = EOF) or -1 on a
/// real error (errno preserved).
[[nodiscard]] ssize_t read_retry(int fd, void* buf, std::size_t len);

/// Write all `len` bytes, restarting on EINTR and short writes. Returns
/// false on a real error (e.g. EPIPE after the reader died).
[[nodiscard]] bool write_all(int fd, const void* buf, std::size_t len);

/// Crash-safe whole-file write: content goes to "<path>.tmp.<pid>" in the
/// same directory (so rename stays atomic within one filesystem), is
/// flushed, then rename()d over `path`. Parent directories are created.
/// PARATICK_CHECKs (throws sim::SimError) on any I/O failure, removing
/// the temp file first.
void write_file_atomic(const std::string& path, const std::string& content);

/// Whole-file read. PARATICK_CHECKs (throws sim::SimError) when `path`
/// cannot be opened or read — a directory, an I/O error — with a message
/// naming `what` (the kind of file), the path and the system error.
[[nodiscard]] std::string read_file(const std::string& path, const char* what);

}  // namespace paratick::core
