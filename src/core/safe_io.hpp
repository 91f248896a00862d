// Crash-safe file writes and checked file reads.
//
// A process killed between fopen() and fclose() used to leave a truncated
// export, history snapshot or replay bundle on disk for the next reader
// to choke on. write_file_atomic closes that hole: it stages content in a
// same-directory temp file and rename()s it into place, so readers only
// ever observe the old file or the complete new one — never a partial
// write. Its reading side, read_file, tells a read error from end of file
// and names the path in every failure.
#pragma once

#include <string>

namespace paratick::core {

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
