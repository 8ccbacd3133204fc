// Crash-time flushing of the decision-event log.
//
// DS_CHECK failures abort the process, which would normally lose the
// in-memory EventLog and with it the decision history that led to the
// violation.  CrashDumpGuard installs a check-failure hook (util/check.h)
// that, on the first DS_CHECK violation, appends a final `engine-abort`
// event (reason "ds-check", detail-free; the failure text goes in the
// event's reason slug's sibling file on stderr) and writes the whole log as
// JSONL to a path chosen at construction.  If the log is streaming
// (EventLog::stream_to; it then keeps no events in memory) the guard
// instead flushes the stream, truncates any partial trailing record so the
// file ends on a complete line, and appends only the abort event, stamped
// with the log's last event time.  The guard restores the previous hook on
// destruction, so scopes nest.
//
// The hook runs between the failure message being printed and std::abort;
// it must not allocate unboundedly or throw.  Writing a small JSONL file is
// acceptable: the process is dying anyway, and a partial dump beats none.
#pragma once

#include <string>

#include "obs/event_log.h"
#include "util/check.h"
#include "util/types.h"

namespace dagsched {

class CrashDumpGuard {
 public:
  /// On DS_CHECK failure, dumps `log` (plus a trailing `engine-abort`
  /// event) to `path`.  `log` must outlive the guard.
  CrashDumpGuard(EventLog* log, std::string path);
  ~CrashDumpGuard();

  CrashDumpGuard(const CrashDumpGuard&) = delete;
  CrashDumpGuard& operator=(const CrashDumpGuard&) = delete;

  const std::string& path() const { return path_; }

 private:
  void dump(const std::string& message);

  EventLog* log_;
  std::string path_;
  CheckFailureHook previous_;
};

}  // namespace dagsched
