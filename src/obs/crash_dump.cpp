#include "obs/crash_dump.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace dagsched {

namespace {

// Drops any partial trailing JSONL record so the file ends on a complete
// line ('\n'-terminated).  A streamed log can end mid-record when stdio
// flushed a full buffer that split a line; appending the abort event after
// such a tail would corrupt two records at once.  Fixed-size backward scan:
// the crash hook must not allocate unboundedly.
void truncate_to_last_complete_line(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return;
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  char buf[4096];
  std::uintmax_t end = size;
  while (end > 0) {
    const auto chunk = static_cast<std::size_t>(
        std::min<std::uintmax_t>(end, sizeof(buf)));
    in.seekg(static_cast<std::streamoff>(end - chunk));
    in.read(buf, static_cast<std::streamsize>(chunk));
    if (!in) return;
    for (std::size_t i = chunk; i-- > 0;) {
      if (buf[i] == '\n') {
        const std::uintmax_t keep = end - chunk + i + 1;
        if (keep < size) std::filesystem::resize_file(path, keep, ec);
        return;
      }
    }
    end -= chunk;
  }
  // No newline anywhere: the whole file is one partial record.
  std::filesystem::resize_file(path, 0, ec);
}

}  // namespace

CrashDumpGuard::CrashDumpGuard(EventLog* log, std::string path)
    : log_(log), path_(std::move(path)) {
  previous_ = set_check_failure_hook(
      [this](const std::string& message) { dump(message); });
}

CrashDumpGuard::~CrashDumpGuard() { set_check_failure_hook(previous_); }

void CrashDumpGuard::dump(const std::string& message) {
  if (log_ == nullptr) return;
  // Stamp the abort at the time of the last recorded decision: the engine's
  // clock is unreachable from here, and the final event's time is the best
  // available estimate of when the run died.
  const Time when = log_->last_time();
  (void)message;  // full text already on stderr; the log stays numeric-only
  if (std::ostream* stream = log_->stream();
      stream != nullptr || log_->streamed()) {
    // Streaming mode (also after a detach): the file already holds (a
    // possibly ragged prefix of) the log, and memory holds none of it.
    // Detach, flush buffered complete lines, truncate any partial tail,
    // then append the abort event so the dump ends on a complete record.
    if (stream != nullptr) {
      log_->stream_to(nullptr);
      stream->flush();
    }
    truncate_to_last_complete_line(path_);
    std::ofstream out(path_, std::ios::app);
    if (out) {
      write_event_jsonl(
          out, {when, kInvalidJob, ObsEventKind::kEngineAbort, "ds-check", {}});
    }
    return;
  }
  log_->emit(when, kInvalidJob, ObsEventKind::kEngineAbort, "ds-check");
  std::ofstream out(path_);
  if (out) log_->write_jsonl(out);
}

}  // namespace dagsched
